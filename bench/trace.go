package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// collectSpans gathers a traced run's spans: the site-side ones the shims
// recorded plus the client-side ones derived from the sampled transactions'
// records, sorted by transaction and start time.
func collectSpans(m *measurement) []span {
	var spans []span
	for _, st := range m.tr.sites {
		spans = append(spans, st.spans.all()...)
	}
	for i := range m.recs {
		r := &m.recs[i]
		if r.refused || !m.tr.sampled(r.seq) {
			continue
		}
		add := func(name spanName, start, end int64) {
			spans = append(spans, span{txn: r.seq, start: start, end: end, name: name})
		}
		add(spClientTxn, r.start, r.end)
		add(spClientBegin, r.start, r.begun)
		for e := 0; e < int(r.nexec); e++ {
			add(spClientExec, r.exec[e][0], r.exec[e][1])
		}
		add(spClientCommit, r.commit0, r.end)
	}
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.txn != b.txn {
			return a.txn < b.txn
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end > b.end
	})
	return spans
}

// parents finds, for every span, the span that caused it as far as that is
// knowable from outside: the latest-starting span of the same transaction
// that contains it in time and is either on the same site (a handler around
// the resource-manager and log calls it makes) or a client span (the Exec or
// Commit call that the work serves). -1 means none: work that outlives the
// client's call, such as the acknowledgment drain.
func parents(spans []span) []int {
	par := make([]int, len(spans))
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].txn == spans[lo].txn {
			hi++
		}
		for i := lo; i < hi; i++ {
			par[i] = -1
			s := &spans[i]
			// Spans are sorted by start, so candidates precede i; scan back
			// for the innermost container.
			for j := i - 1; j >= lo; j-- {
				p := &spans[j]
				if p.end < s.end || !(p.name.client() || p.site == s.site && !s.name.client()) {
					continue
				}
				par[i] = j
				break
			}
		}
		lo = hi
	}
	return par
}

// handlerSelfRatio is Σ self time / Σ duration over the sampled handler
// spans, self time being a span's duration minus what its children cover.
func handlerSelfRatio(spans []span, par []int) float64 {
	child := make([]int64, len(spans))
	for i, p := range par {
		if p >= 0 {
			child[p] += spans[i].end - spans[i].start
		}
	}
	var total, self int64
	for i := range spans {
		if spans[i].name < spHandler {
			continue
		}
		d := spans[i].end - spans[i].start
		total += d
		if c := child[i]; c < d {
			self += d - c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// writeTrace writes one JSON object per span; parent is the line index of
// the parent span, or -1.
func writeTrace(path string, spans []span, par []int, sites []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for i, s := range spans {
		fmt.Fprintf(bw, "{\"txn\":%d,\"name\":%q,\"site\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n",
			s.txn, s.name.String(), sites[s.site], s.start, s.end, par[i])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
