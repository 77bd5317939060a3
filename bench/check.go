package main

import (
	"fmt"

	"prany/internal/wire"
)

// The output check. It runs on every run; a run whose check fails prints
// correct=false and exits non-zero.

// checkQuiet asserts Definition 1's clause 2 from outside: every site
// reports Quiesced and no protocol-table entry is retained.
func checkQuiet(c *cluster, when string) []string {
	var errs []string
	for _, n := range c.nodes {
		if !n.site.Quiesced() {
			errs = append(errs, fmt.Sprintf("%s: site %s not quiesced", when, n.id))
		}
		if r := n.met.Site(n.id).Retained(); r != 0 {
			errs = append(errs, fmt.Sprintf("%s: site %s retains %d protocol-table entries", when, n.id, r))
		}
	}
	return errs
}

// checkData compares every participant's committed state with the model
// built from the plans and the outcomes the clients saw.
func checkData(d *driver, when string) []string {
	if d.w.Open {
		return checkOpenData(d, when)
	}
	var errs []string
	bad := 0
	for _, n := range d.c.parts() {
		snap := n.kv.Snapshot()
		want := 0
		for c, ring := range d.plan.keys {
			for slot, key := range ring {
				v := d.model[c][slot]
				if v == "" {
					continue
				}
				want++
				if v == "?" {
					continue // a failed transaction left this key's outcome unknown
				}
				if got := snap[key]; got != v {
					if bad++; bad <= 5 {
						errs = append(errs, fmt.Sprintf("%s: %s[%s] = %q, want last committed value %q", when, n.id, key, got, v))
					}
				}
			}
		}
		if len(snap) != want {
			errs = append(errs, fmt.Sprintf("%s: %s holds %d keys, model has %d", when, n.id, len(snap), want))
		}
	}
	if bad > 5 {
		errs = append(errs, fmt.Sprintf("%s: %d more mismatches", when, bad-5))
	}
	return errs
}

// checkOpenData checks the open-loop invariant: lock order is not visible
// from outside, so the last writer of a hot key is unknown, but every value
// a site holds — and every value a transaction read — must have been
// written there by a transaction that committed, never by a planned abort.
func checkOpenData(d *driver, when string) []string {
	type cell struct {
		site int
		key  string
	}
	// writers[cell][value]: committed (or, after an error, unknown-outcome)
	// transactions that put value there.
	writers := make(map[cell]map[string]bool)
	for i, t := range d.openTxns {
		r := d.openDone[i]
		if r.refused || r.abort && r.ok {
			continue
		}
		for s, si := range t.sites {
			for _, op := range t.ops[s] {
				if op.Kind != wire.OpPut {
					continue
				}
				k := cell{si, op.Key}
				if writers[k] == nil {
					writers[k] = make(map[string]bool)
				}
				writers[k][op.Value] = true
			}
		}
	}
	legal := func(site int, key, v string) bool {
		return v == initValue || writers[cell{site, key}][v]
	}
	var errs []string
	bad := 0
	report := func(msg string) {
		if bad++; bad <= 5 {
			errs = append(errs, when+": "+msg)
		}
	}
	for si, n := range d.c.parts() {
		snap := n.kv.Snapshot()
		if len(snap) != d.w.Keys {
			report(fmt.Sprintf("%s holds %d keys, want %d", n.id, len(snap), d.w.Keys))
		}
		for k, v := range snap {
			if !legal(si, k, v) {
				report(fmt.Sprintf("%s[%s] = %q was not written by a committed transaction", n.id, k, v))
			}
		}
	}
	for i, t := range d.openTxns {
		if !d.openDone[i].ok {
			continue
		}
		for s, si := range t.sites {
			for _, op := range t.ops[s] {
				if op.Kind == wire.OpGet && !legal(si, op.Key, d.openReads[i][s]) {
					report(fmt.Sprintf("txn %d read %s[%s] = %q, not a committed value", i, partIDs[si], op.Key, d.openReads[i][s]))
				}
			}
		}
	}
	if bad > 5 {
		errs = append(errs, fmt.Sprintf("%s: %d more violations", when, bad-5))
	}
	return errs
}
