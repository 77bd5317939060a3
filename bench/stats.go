package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the exclusive method), the rule the benchmark's acceptance uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// printSpread prints, per end-to-end metric, the median, the quartiles and
// the relative spread (q3 − q1) / median over the repeats.
func printSpread(workload string, repeats map[string][]float64) {
	for _, d := range endToEndDefs {
		q1, q2, q3 := quartiles(repeats[d.Name])
		fmt.Printf("%-12s %-36s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.2f%%  n=%d\n",
			workload, d.Name, q2, q1, q3, 100*ratio(q3-q1, q2), len(repeats[d.Name]))
	}
}

// benchmarkJSON is the part of BENCHMARK.json the comparison needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles applies BENCHMARK.json's bounds to two result files: for
// every (end-to-end metric, workload) pair, b may be worse than a by at most
// the metric's bound, as a share of a's value; and b may not fail more.
func compareFiles(benchPath string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two result files: a.json b.json")
	}
	var bj benchmarkJSON
	var a, b resultFile
	for _, in := range []struct {
		path string
		v    any
	}{{benchPath, &bj}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			return err
		}
	}
	regressions := 0
	for i := range workloads {
		name := workloads[i].Name
		wa, okA := a.Workloads[name]
		wb, okB := b.Workloads[name]
		if !okA || !okB {
			return fmt.Errorf("workload %s missing from a result file", name)
		}
		for _, e := range bj.EndToEnd {
			va, vb := wa.EndToEnd[e.Name].Value, wb.EndToEnd[e.Name].Value
			worse := ratio(vb-va, va)
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Printf("%-12s %-16s %12.4f -> %12.4f  %+7.2f%% worse (bound %.0f%%)  %s\n",
				name, e.Name, va, vb, 100*worse, 100*e.Bound, verdict)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		if fb > fa || wa.Correct && !wb.Correct {
			fmt.Printf("%-12s fail_ratio %.6f -> %.6f, correct %v -> %v  REGRESSION\n", name, fa, fb, wa.Correct, wb.Correct)
			regressions++
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}
