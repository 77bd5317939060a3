package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRunSingleEpisode runs one seeded PrAny episode: deterministic by
// construction, it must judge operationally correct and exit 0.
func TestRunSingleEpisode(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-episodes", "1", "-seed", "1", "-txns", "4", "-v"}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"chaos: 1 episodes, seeds 1..1, strategy prany, 4 txns each",
		"seed 1",
		"faults: drop=",
		"1/1 episodes operationally correct",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

// TestRunUnknownStrategy exits 2 with a usage error.
func TestRunUnknownStrategy(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-strategy", "frob"}, &out); code != 2 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "unknown strategy") {
		t.Fatalf("missing error:\n%s", out.String())
	}
}

// TestRunMatrixJSON runs a tiny E14 matrix and checks the JSON shape the
// JUDGE_chaos.json artifact is generated from.
func TestRunMatrixJSON(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-e14", "-episodes", "2", "-seed", "1", "-txns", "4", "-json"}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	var got struct {
		Experiment string `json:"experiment"`
		Episodes   int    `json:"episodes"`
		Rows       []struct {
			Strategy string `json:"strategy"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if got.Experiment != "E14 chaos matrix" || got.Episodes != 2 || len(got.Rows) != 3 {
		t.Fatalf("unexpected matrix shape: %+v", got)
	}
}

// byzCanonical is the flag set JUDGE_byz.json was generated with.
var byzCanonical = []string{"-byz", "-episodes", "2", "-seed", "1", "-txns", "8", "-json"}

var elapsedMS = regexp.MustCompile(`"elapsed_ms": \d+`)

// TestByzJSONShape pins the committed JUDGE_byz.json artifact.
func TestByzJSONShape(t *testing.T) {
	data, err := os.ReadFile("../../JUDGE_byz.json")
	if err != nil {
		t.Fatal(err)
	}
	checkByzDoc(t, data)
}

// TestByzJSONMatchesArtifact regenerates the E20 document in memory with
// the canonical flags and holds it against the committed JUDGE_byz.json, so
// the artifact can never drift from its generator and no gate rewrites a
// committed file. The exhaustive half (header, the 16 mcheck cells with
// their counterexamples, the verdict) is deterministic and must be
// bit-identical once elapsed_ms is zeroed on both sides. The seeded rows run
// on real timers and goroutines — their commit/abort/forged counts differ
// from run to run on one host — so there the fresh document must make the
// same claims the artifact does (checkByzDoc), not the same numbers.
//
// The two replicated-decider cells take about 6 minutes on two cores alone
// and 9 beside the rest of `go test ./...`, which is the test binary's
// default 10-minute deadline: the test runs only when the deadline leaves
// room, and `make test` runs it by itself with -timeout 30m.
func TestByzJSONMatchesArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 16 exhaustive E20 cells (minutes); skipped with -short")
	}
	if d, ok := t.Deadline(); ok && time.Until(d) < 15*time.Minute {
		t.Skip("needs up to 9 minutes and the deadline is nearer than 15; run it alone: " +
			"go test -timeout 30m -run TestByzJSONMatchesArtifact ./cmd/prany-chaos")
	}
	var out bytes.Buffer
	if code := run(byzCanonical, &out); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	checkByzDoc(t, out.Bytes())

	want, err := os.ReadFile("../../JUDGE_byz.json")
	if err != nil {
		t.Fatal(err)
	}
	var gen, art map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &gen); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &art); err != nil {
		t.Fatal(err)
	}
	if len(gen) != len(art) {
		t.Fatalf("generated document has %d top-level fields, JUDGE_byz.json %d", len(gen), len(art))
	}
	zero := []byte(`"elapsed_ms": 0`)
	for field, a := range art {
		if field == "seeded_rows" {
			continue
		}
		g := elapsedMS.ReplaceAll(gen[field], zero)
		if a = elapsedMS.ReplaceAll(a, zero); !bytes.Equal(g, a) {
			t.Errorf("prany-chaos %s drifted from JUDGE_byz.json in %q:\n generated: %s\n artifact:  %s",
				strings.Join(byzCanonical, " "), field, g, a)
		}
	}
}

// checkByzDoc holds one E20 document to the claims the experiment makes:
// the document shape, the seeded sweep's 3x4 (strategy, behavior) grid, the
// 16 exhaustive cells, the passing verdict, and the headline — PrAny's
// honest sites stay whole under every lying participant, and at least one
// cell carries a replayable +byz= counterexample.
func checkByzDoc(t *testing.T, data []byte) {
	t.Helper()
	type row struct {
		Strategy  string `json:"strategy"`
		Behavior  string `json:"behavior"`
		Episodes  int    `json:"episodes"`
		Honest    int    `json:"honest"`
		Spread    int    `json:"spread"`
		Contained int    `json:"contained"`
	}
	type cex struct {
		Schedule string `json:"schedule"`
	}
	type cell struct {
		Label           string `json:"label"`
		Schedules       int    `json:"schedules"`
		Violating       int    `json:"violating"`
		HonestViolating int    `json:"honest_violating"`
		SpreadViolating int    `json:"spread_violating"`
		Truncated       bool   `json:"truncated"`
		Counterexamples []cex  `json:"counterexamples"`
	}
	var doc struct {
		Experiment  string `json:"experiment"`
		ByzSite     string `json:"byz_site"`
		SeededRows  []row  `json:"seeded_rows"`
		McheckCells []cell `json:"mcheck_cells"`
		Verdict     string `json:"verdict"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if doc.Experiment != "E20 Byzantine tolerance matrix" || doc.ByzSite != "pc" {
		t.Fatalf("unexpected header: experiment=%q byz_site=%q", doc.Experiment, doc.ByzSite)
	}
	if doc.Verdict != "pass" {
		t.Fatalf("verdict = %q, want pass", doc.Verdict)
	}
	if len(doc.SeededRows) != 12 { // 3 strategies x 4 behaviors
		t.Fatalf("seeded rows = %d, want 12", len(doc.SeededRows))
	}
	behaviors := map[string]int{}
	for _, r := range doc.SeededRows {
		if r.Episodes <= 0 {
			t.Fatalf("row %s/%s ran no episodes", r.Strategy, r.Behavior)
		}
		behaviors[r.Behavior]++
		if r.Strategy == "PrAny" && (r.Honest != 0 || r.Spread != 0) {
			t.Fatalf("PrAny byz=%s: honest=%d spread=%d, want 0/0", r.Behavior, r.Honest, r.Spread)
		}
	}
	for _, b := range []string{"eq", "li", "sa", "vf"} {
		if behaviors[b] != 3 {
			t.Fatalf("behavior %s appears in %d rows, want 3", b, behaviors[b])
		}
	}
	if len(doc.McheckCells) != 16 {
		t.Fatalf("mcheck cells = %d, want 16", len(doc.McheckCells))
	}
	replayable := false
	for _, c := range doc.McheckCells {
		if c.Truncated || c.Schedules <= 0 {
			t.Fatalf("cell %s: truncated=%v schedules=%d", c.Label, c.Truncated, c.Schedules)
		}
		if c.HonestViolating != 0 {
			t.Fatalf("cell %s: %d honest-site untainted violations", c.Label, c.HonestViolating)
		}
		if strings.HasPrefix(c.Label, "PrAny") && !strings.Contains(c.Label, "+byz=coord:") && c.SpreadViolating != 0 {
			t.Fatalf("cell %s: spread=%d, want 0", c.Label, c.SpreadViolating)
		}
		for _, x := range c.Counterexamples {
			if strings.Contains(x.Schedule, "+byz=") {
				replayable = true
			}
		}
	}
	if !replayable {
		t.Fatal("no cell carries a replayable +byz= counterexample")
	}
}
