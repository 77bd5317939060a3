package core

import (
	"fmt"
	"slices"
	"testing"

	"prany/internal/wire"
)

// TestDefinition2Enumeration is Definition 2 and Theorems 1–3 as a table:
// over every roster in {PrN, PrA, PrC, IYV, CL}^1..3 (155 rosters) and both
// outcomes it drives a real coordinator's Select, expectsAck (through
// decisionMsgsLocked) and presumeFor, and checks which sites it may forget
// without and what each is told when it inquires afterwards.
func TestDefinition2Enumeration(t *testing.T) {
	rosters := enumRosters(3)
	if len(rosters) != 155 {
		t.Fatalf("enumerated %d rosters, want 155", len(rosters))
	}
	outcomes := []wire.Outcome{wire.Commit, wire.Abort}
	prany := newEnumCoord(CoordinatorConfig{Strategy: StrategyPrAny})

	t.Run("sufficient_and_minimal", func(t *testing.T) {
		for _, ros := range rosters {
			for _, o := range outcomes {
				f := prany.forget(t, ros, o)
				// (a) Sufficiency: every site outside the expected-ack set
				// is answered o by presumption once the coordinator forgets.
				if !f.safe(o, -1) {
					t.Errorf("PrAny %v/%v: forgetting after %v misleads an inquirer (answers %v)", ros, o, f.expect, f.answer)
				}
				for i, p := range ros {
					if !f.expect[i] {
						continue
					}
					if p.Rule().Part == wire.PresumeNothing {
						// PrN and CL presume nothing: their rows keep them
						// in the set on both outcomes.
						if !p.Acks(wire.Commit) || !p.Acks(wire.Abort) {
							t.Errorf("PrAny %v/%v: %v waited for but does not ack both outcomes", ros, o, p)
						}
						continue
					}
					// (b) Minimality: forgetting without this site's ack
					// lets its own presumption contradict o.
					if f.safe(o, i) {
						t.Errorf("PrAny %v/%v: ack from site %d (%v) is not needed", ros, o, i, p)
					}
				}
			}
		}
	})

	t.Run("theorem1_U2PC", func(t *testing.T) {
		// (c) Under each native variant U2PC misleads some inquirer, and
		// only on rosters with a site whose presumption differs from the
		// native one.
		for _, native := range []wire.Protocol{wire.PrN, wire.PrA, wire.PrC} {
			c := newEnumCoord(CoordinatorConfig{Strategy: StrategyU2PC, Native: native})
			own, _ := native.Presumption()
			failures := 0
			for _, ros := range rosters {
				for _, o := range outcomes {
					if c.forget(t, ros, o).safe(o, -1) {
						continue
					}
					failures++
					if !slices.ContainsFunc(ros, func(p wire.Protocol) bool {
						pres, _ := p.Presumption()
						return pres != own
					}) {
						t.Errorf("U2PC/%v %v/%v fails with every site presuming %v", native, ros, o, own)
					}
				}
			}
			if failures == 0 {
				t.Errorf("U2PC/%v never misleads an inquirer", native)
			}
		}
	})

	t.Run("theorem2_C2PC", func(t *testing.T) {
		// (d) C2PC waits for an ack that never comes exactly on the rosters
		// with a site that does not acknowledge o: a PrC site on commit, a
		// PrA or IYV site on abort.
		c := newEnumCoord(CoordinatorConfig{Strategy: StrategyC2PC, Native: wire.PrN})
		silent := map[wire.Outcome][]wire.Protocol{
			wire.Commit: {wire.PrC},
			wire.Abort:  {wire.PrA, wire.IYV},
		}
		for _, ros := range rosters {
			for _, o := range outcomes {
				f := c.forget(t, ros, o)
				stuck := false
				for i, p := range ros {
					stuck = stuck || (f.expect[i] && !p.Acks(o))
				}
				want := slices.ContainsFunc(ros, func(p wire.Protocol) bool { return slices.Contains(silent[o], p) })
				if stuck != want {
					t.Errorf("C2PC %v/%v: waits forever = %v, want %v", ros, o, stuck, want)
				}
			}
		}
	})

	t.Run("fixed_answer", func(t *testing.T) {
		// A coordinator that forgets as PrAny does but answers every late
		// inquiry with one fixed outcome is safe on a roster only if some
		// fixed outcome is right for both decisions — which fails exactly
		// when an abort-presuming site (PrA, IYV) meets a commit-presuming
		// one (PrC). The dynamic per-inquirer answer is what PrAny adds.
		for _, ros := range rosters {
			mixes := slices.Contains(ros, wire.PrC) &&
				(slices.Contains(ros, wire.PrA) || slices.Contains(ros, wire.IYV))
			someSafe := false
			for _, fixed := range outcomes {
				safe := true
				for _, o := range outcomes {
					f := prany.forget(t, ros, o)
					for i := range f.answer {
						f.answer[i] = fixed
					}
					safe = safe && f.safe(o, -1)
				}
				if mixes && safe {
					t.Errorf("%v: fixed answer %v is safe on a roster mixing presumptions", ros, fixed)
				}
				someSafe = someSafe || safe
			}
			if !mixes && !someSafe {
				t.Errorf("%v: no fixed answer is safe, though the roster mixes no presumptions", ros)
			}
		}
	})
}

// enumRosters returns every sequence of 1..n participant protocols.
func enumRosters(n int) [][]wire.Protocol {
	base := []wire.Protocol{wire.PrN, wire.PrA, wire.PrC, wire.IYV, wire.CL}
	var out, prev [][]wire.Protocol
	prev = [][]wire.Protocol{nil}
	for k := 1; k <= n; k++ {
		var next [][]wire.Protocol
		for _, r := range prev {
			for _, p := range base {
				next = append(next, append(slices.Clone(r), p))
			}
		}
		out = append(out, next...)
		prev = next
	}
	return out
}

// enumCoord is a coordinator with its participants' table, driven one
// roster at a time without a log or a network.
type enumCoord struct {
	c   *Coordinator
	pcp *PCP
}

func newEnumCoord(cfg CoordinatorConfig) enumCoord {
	pcp := NewPCP()
	return enumCoord{c: NewCoordinator(Env{ID: "coord", Send: func(wire.Message) {}}, cfg, pcp), pcp: pcp}
}

// forgetting is one roster × outcome at the coordinator's forgetting point:
// which sites it waited to hear an ack from, and what each is answered when
// it inquires after the entry is gone.
type forgetting struct {
	expect []bool
	answer []wire.Outcome
}

// forget decides o for a roster in which every site voted yes (an abort is
// a timeout's) and reads the expected-ack marks and post-forget answers.
func (e enumCoord) forget(t *testing.T, ros []wire.Protocol, o wire.Outcome) forgetting {
	t.Helper()
	ct := &ctxn{txn: wire.TxnID{Coord: "coord", Seq: 1}, parts: map[wire.SiteID]*cpart{},
		chosen: e.c.choose(ros), decided: true, outcome: o, state: cDraining}
	for i, p := range ros {
		id := wire.SiteID(fmt.Sprintf("p%d", i))
		e.pcp.Set(id, p)
		ct.parts[id] = &cpart{proto: p, voted: true, vote: wire.VoteYes}
		ct.order = append(ct.order, id)
	}
	if msgs := e.c.decisionMsgsLocked(ct); len(msgs) != len(ros) {
		t.Fatalf("%v/%v: %d decisions sent to %d yes voters", ros, o, len(msgs), len(ros))
	}
	var f forgetting
	for i, id := range ct.order {
		f.expect = append(f.expect, ct.parts[id].expectAck)
		f.answer = append(f.answer, e.c.presumeFor(wire.Message{Kind: wire.MsgInquiry, From: id, Proto: ros[i]}))
	}
	return f
}

// safe is Definition 2: every site the coordinator did not wait for —
// counting site skip as not waited for, when skip >= 0 — is answered o.
func (f forgetting) safe(o wire.Outcome, skip int) bool {
	for i, a := range f.answer {
		if (!f.expect[i] || i == skip) && a != o {
			return false
		}
	}
	return true
}
