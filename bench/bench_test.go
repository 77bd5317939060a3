package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkDecl is BENCHMARK.json as the test reads it.
type benchmarkDecl struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readDecl(t *testing.T) benchmarkDecl {
	t.Helper()
	var decl benchmarkDecl
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

// smokeOpts is a 1-second run at a tenth of the frozen round sizes.
func smokeOpts(t *testing.T, w *workload) runOpts {
	o := runOpts{seed: 1, seconds: 1, setups: 1, dir: t.TempDir(), roundTxns: w.RoundTxns / 10}
	if testing.Short() {
		o.seconds = 0.4
	}
	return o
}

// TestDeclaration holds BENCHMARK.json and the code in agreement: the same
// workloads with the same reasons, the same metric names, units and
// directions, every bound within the contract's limit.
func TestDeclaration(t *testing.T) {
	decl := readDecl(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code has %q (%q)",
				i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(decl.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the code has %d", len(decl.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if decl.EndToEnd[i].metricDef != d {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the code has %+v", i, decl.EndToEnd[i].metricDef, d)
		}
		if b := decl.EndToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("end_to_end[%d] %s: bound %v outside (0, 0.25]", i, d.Name, b)
		}
	}
	if len(decl.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the code has %d", len(decl.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		if decl.PerLayer[i] != d {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, the code has %+v", i, decl.PerLayer[i], d)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %+v: bad or repeated name, or bad unit", d)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload for a second, untraced and traced, and
// checks what a run must always deliver: the output check passes, nothing
// fails, every declared metric is there and finite.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			o := smokeOpts(t, w)
			ref, e2e, err := measureE2E(w, o)
			if err != nil {
				t.Fatal(err)
			}
			check := func(m *measurement, defs []metricDef, vals map[string]float64) {
				t.Helper()
				for _, f := range m.failures {
					t.Errorf("output check: %s", f)
				}
				if m.attempted() == 0 || m.failed() != 0 {
					t.Errorf("attempted %d, failed %d", m.attempted(), m.failed())
				}
				if len(vals) != len(defs) {
					t.Errorf("%d metrics computed, %d declared", len(vals), len(defs))
				}
				for _, d := range defs {
					v, ok := vals[d.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s: missing or not finite (%v)", d.Name, v)
					}
				}
			}
			check(ref, endToEndDefs, e2e)
			for _, d := range endToEndDefs {
				if e2e[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, e2e[d.Name])
				}
			}
			if testing.Short() {
				return
			}
			o.seconds *= 2 // measureLayers gives the traced run half
			m, layers, err := measureLayers(w, o, ref)
			if err != nil {
				t.Fatal(err)
			}
			check(m, perLayerDefs, layers)
			if layers["bench.fail_ratio"] != 0 || layers["core.pt_retained"] != 0 || layers["wal.retained_recs"] != 0 {
				t.Errorf("fail_ratio %v, pt_retained %v, retained_recs %v: want 0",
					layers["bench.fail_ratio"], layers["core.pt_retained"], layers["wal.retained_recs"])
			}
			if w.Paxos != (layers["consensus.msgs_per_txn"] > 0) {
				t.Errorf("consensus.msgs_per_txn = %v on a workload with Paxos=%v", layers["consensus.msgs_per_txn"], w.Paxos)
			}
		})
	}
}

// TestSeedDeterminesPlans: the same seed gives the same inputs, another
// seed gives others.
func TestSeedDeterminesPlans(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.Open {
			a, b, c := newOpenPlan(w, 7, 0, 2), newOpenPlan(w, 7, 0, 2), newOpenPlan(w, 8, 0, 2)
			if len(a) == 0 || len(a) != len(b) || a[0] != b[0] || a[len(a)-1] != b[len(b)-1] {
				t.Errorf("%s: same seed, different open-loop plans", w.Name)
			}
			if a[0] == c[0] {
				t.Errorf("%s: different seeds, same first arrival", w.Name)
			}
			for _, txn := range a {
				for s := range txn.ops {
					if txn.ops[s][0].Key >= txn.ops[s][1].Key {
						t.Fatalf("%s: keys %q, %q not in ascending order", w.Name, txn.ops[s][0].Key, txn.ops[s][1].Key)
					}
				}
			}
			continue
		}
		a, b, c := newClosedPlan(w, 7), newClosedPlan(w, 7), newClosedPlan(w, 8)
		if a.salt != b.salt || a.keys[3][5] != b.keys[3][5] {
			t.Errorf("%s: same seed, different closed-loop plans", w.Name)
		}
		if a.salt == c.salt {
			t.Errorf("%s: different seeds, same salt", w.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
