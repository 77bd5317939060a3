// Command bench is the repository's one benchmark: four workloads over a
// 4-site loopback-TCP cluster built the way the shipped binaries build a
// site, seven end-to-end metrics per workload, and a per-layer budget taken
// from outside the program. See README.md.
//
//	bash bench/run.sh --workload mem-closed --seed 1 --seconds 20 --trace 0   one run, one JSON line (the BENCHMARK.json contract)
//	bash bench/run.sh -seed 1 -out bench/out/result.json                      all four workloads, untraced then traced
//	bash bench/run.sh -repeat 5                                               medians, quartiles and spread
//	bash bench/run.sh -compare a.json b.json                                  apply BENCHMARK.json's bounds; exit 1 on a regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runLine is the last line of standard output of a single-workload run.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

func printMetrics(workload string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%-12s %-36s %14.4f %s\n", workload, d.Name, vals[d.Name], d.Unit)
	}
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print one JSON result line (default: all four, untraced then traced)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same plans")
		seconds   = flag.Float64("seconds", 20, "how long one run measures")
		trace     = flag.Int("trace", 0, "with -workload: 1 runs with the timing shims on and prints the per-layer metrics")
		dir       = flag.String("dir", filepath.Join("bench", "out"), "scratch directory for WAL files and traces")
		out       = flag.String("out", "", "write the result file here (all-workloads mode; default <dir>/result.json)")
		repeat    = flag.Int("repeat", 1, "all-workloads mode: untraced runs per workload; prints median, quartiles and spread")
		compare   = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		benchJSON = flag.String("benchmark", "BENCHMARK.json", "with -compare: where the bounds are")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *compare:
		err = compareFiles(*benchJSON, flag.Args())
	case *name != "":
		err = runOne(*name, runOpts{seed: *seed, seconds: *seconds, traced: *trace != 0, setups: setupRuns, dir: *dir})
	default:
		if *out == "" {
			*out = filepath.Join(*dir, "result.json")
		}
		err = runAll(runOpts{seed: *seed, seconds: *seconds, setups: setupRuns, dir: *dir}, *repeat, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// setupRuns is how many times at least an untraced run sets the cluster
// up; setup_s is the median.
const setupRuns = 5

// measureE2E is one untraced run and its end-to-end metrics.
func measureE2E(w *workload, o runOpts) (*measurement, map[string]float64, error) {
	o.traced = false
	m, err := runWorkload(w, o)
	if err != nil {
		return nil, nil, err
	}
	return m, endToEnd(m), nil
}

// measureLayers is one traced run of half o.seconds and the per-layer
// metrics. ref is the untraced run it is compared with; nil runs one first,
// for the other half.
func measureLayers(w *workload, o runOpts, ref *measurement) (*measurement, map[string]float64, error) {
	o.traced, o.setups = false, 1
	o.seconds /= 2
	if ref == nil {
		var err error
		if ref, err = runWorkload(w, o); err != nil {
			return nil, nil, err
		}
	}
	o.traced = true
	m, err := runWorkload(w, o)
	if err != nil {
		return nil, nil, err
	}
	m.failures = append(m.failures, ref.failures...)
	pr, err := runProbes(o.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	spans := collectSpans(m)
	par := parents(spans)
	sites := []string{string(coordID)}
	for _, id := range partIDs {
		sites = append(sites, string(id))
	}
	if err := writeTrace(filepath.Join(o.dir, "trace-"+w.Name+".jsonl"), spans, par, sites); err != nil {
		return nil, nil, err
	}
	vals := perLayer(m, ref, pr, handlerSelfRatio(spans, par))
	return m, vals, nil
}

func reportFailures(m *measurement) {
	for _, f := range m.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: output check: %s\n", m.w.Name, f)
	}
	for msg, n := range m.txnErrs {
		fmt.Fprintf(os.Stderr, "bench: %s: %d failed transaction(s): %s\n", m.w.Name, n, msg)
	}
}

// runOne is the BENCHMARK.json contract: one workload, one run, the
// metrics by name, and one JSON object as the last line.
func runOne(name string, o runOpts) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	var m *measurement
	var vals map[string]float64
	defs := endToEndDefs
	if o.traced {
		defs = perLayerDefs
		m, vals, err = measureLayers(w, o, nil)
	} else {
		m, vals, err = measureE2E(w, o)
	}
	if err != nil {
		return err
	}
	reportFailures(m)
	printMetrics(w.Name, defs, vals)
	if !o.traced {
		fmt.Printf("%-12s %-36s %14d %s\n", w.Name, "bench.sample_n", int64(m.started()), "count")
	}
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is not finite", w.Name, k)
		}
	}
	line, err := json.Marshal(runLine{
		Correct: len(m.failures) == 0, Attempted: m.attempted(), Failed: m.failed(),
		Metrics: withUnits(defs, vals),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(m.failures) > 0 {
		return fmt.Errorf("%s: output check failed", w.Name)
	}
	return nil
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	// Repeats holds every untraced run's end-to-end values when -repeat > 1;
	// EndToEnd is then their median.
	Repeats map[string][]float64 `json:"repeats,omitempty"`
	Sizes   workload             `json:"sizes"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Commit     string                    `json:"git_commit"`
	Host       string                    `json:"hostname"`
	NProc      int                       `json:"nproc"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	GoVersion  string                    `json:"go_version"`
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	FsyncUS    float64                   `json:"wal.fsync_probe_us"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

// runAll runs every workload — repeat untraced runs, then one traced run —
// checks the outputs, prints every metric and writes the result file.
func runAll(o runOpts, repeat int, outPath string) error {
	host, _ := os.Hostname()
	var substrate probes
	if err := substrate.probeFsync(o.dir); err != nil {
		return err
	}
	res := resultFile{
		Commit: gitCommit(), Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: o.seed, Seconds: o.seconds,
		FsyncUS: substrate.fsyncUS, Workloads: make(map[string]workloadResult),
	}
	failed := false
	for i := range workloads {
		w := &workloads[i]
		wr := workloadResult{Correct: true, Sizes: *w, Repeats: make(map[string][]float64)}
		var ref *measurement
		for r := 0; r < repeat; r++ {
			ro := o
			ro.seed += int64(r)
			m, vals, err := measureE2E(w, ro)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			reportFailures(m)
			wr.Correct = wr.Correct && len(m.failures) == 0
			wr.Attempted += m.attempted()
			wr.Failed += m.failed()
			for k, v := range vals {
				wr.Repeats[k] = append(wr.Repeats[k], v)
			}
			ref = m
		}
		e2e := make(map[string]float64)
		for k, vs := range wr.Repeats {
			e2e[k] = median(vs)
		}
		m, layers, err := measureLayers(w, o, ref)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		reportFailures(m)
		wr.Correct = wr.Correct && len(m.failures) == 0
		wr.EndToEnd, wr.PerLayer = withUnits(endToEndDefs, e2e), withUnits(perLayerDefs, layers)
		printMetrics(w.Name, endToEndDefs, e2e)
		if repeat > 1 {
			printSpread(w.Name, wr.Repeats)
		} else {
			wr.Repeats = nil
		}
		printMetrics(w.Name, perLayerDefs, layers)
		fmt.Printf("%-12s correct=%v attempted=%d failed=%d\n\n", w.Name, wr.Correct, wr.Attempted, wr.Failed)
		failed = failed || !wr.Correct
		res.Workloads[w.Name] = wr
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("result file:", outPath)
	if failed {
		return fmt.Errorf("output check failed")
	}
	return nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
