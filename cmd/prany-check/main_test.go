package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestRunReplayCleanSchedule replays a no-fault PrAny schedule: clean
// verdict, exit 0.
func TestRunReplayCleanSchedule(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-replay", "prany|pa=PrA,pc=PrC|t1|crash=-|"}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ok: operationally correct") {
		t.Fatalf("missing clean verdict:\n%s", out.String())
	}
}

// TestRunReplayViolatingSchedule replays the C2PC no-fault retention
// schedule: FAIL verdict, exit 1.
func TestRunReplayViolatingSchedule(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-replay", "c2pc/PrN|pa=PrA,pc=PrC|t1|crash=-|"}, &out)
	if code != 1 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "retention") {
		t.Fatalf("missing retention verdict:\n%s", out.String())
	}
}

// TestRunReplayMalformed exits 2 with a parse error.
func TestRunReplayMalformed(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-replay", "not-a-schedule"}, &out); code != 2 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
}

// TestRunSingleStrategy checks the one-strategy mode in its quick budget:
// PrAny exits 0 and prints the clean verdict; C2PC exits 1 with a
// replayable counterexample line.
func TestRunSingleStrategy(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-strategy", "prany", "-txns", "1", "-maxskip", "-1"}, &out)
	if code != 0 {
		t.Fatalf("prany exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ok: no Definition-1 violation") {
		t.Fatalf("missing clean verdict:\n%s", out.String())
	}

	out.Reset()
	code = run([]string{"-strategy", "c2pc", "-txns", "1", "-maxskip", "-1", "-stop"}, &out)
	if code != 1 {
		t.Fatalf("c2pc exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "-replay 'c2pc/PrN|") {
		t.Fatalf("missing replayable counterexample:\n%s", out.String())
	}
}

// TestRunUnknownStrategy exits 2.
func TestRunUnknownStrategy(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-strategy", "frob"}, &out); code != 2 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
}

var elapsedMS = regexp.MustCompile(`"elapsed_ms": \d+`)

// TestMatrixJSONMatchesArtifact regenerates the E15 document in memory and
// requires it bit-identical to the committed JUDGE_mcheck.json once every
// elapsed_ms — the one wall-clock field — is zeroed on both sides: the
// exhaustive judge is deterministic, so any other difference is drift
// between the checker (or the protocols under it) and its artifact.
func TestMatrixJSONMatchesArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("full E15 budget (~30 s); skipped with -short")
	}
	var out bytes.Buffer
	if code := run([]string{"-json"}, &out); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	want, err := os.ReadFile("../../JUDGE_mcheck.json")
	if err != nil {
		t.Fatal(err)
	}
	zero := []byte(`"elapsed_ms": 0`)
	got := strings.Split(string(elapsedMS.ReplaceAll(out.Bytes(), zero)), "\n")
	art := strings.Split(string(elapsedMS.ReplaceAll(want, zero)), "\n")
	for i := 0; i < len(got) && i < len(art); i++ {
		if got[i] != art[i] {
			t.Fatalf("prany-check -json drifted from JUDGE_mcheck.json at line %d:\n generated: %s\n artifact:  %s", i+1, got[i], art[i])
		}
	}
	if len(got) != len(art) {
		t.Fatalf("prany-check -json has %d lines, JUDGE_mcheck.json %d", len(got), len(art))
	}
}
