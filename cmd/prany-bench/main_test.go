package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// golden compares one deterministic section's output byte-for-byte against
// its checked-in table. Regenerate with:
//
//	go run ./cmd/prany-bench -run <section> > cmd/prany-bench/testdata/<section>.golden
func golden(t *testing.T, section string) {
	t.Helper()
	var out strings.Builder
	if code := run([]string{"-run", section}, &out); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	want, err := os.ReadFile("testdata/" + section + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("section %s drifted from golden:\n--- got ---\n%s--- want ---\n%s", section, out.String(), want)
	}
}

// TestGoldenTheorem1 pins E5: the Theorem 1 violation table is a logical
// count, fully deterministic.
func TestGoldenTheorem1(t *testing.T) { golden(t, "theorem1") }

// TestGoldenTheorem2 pins E6: retention growth is linear in txns under
// C2PC and identically zero under PrAny.
func TestGoldenTheorem2(t *testing.T) { golden(t, "theorem2") }

// TestCostsAllMatch runs E1-E4 and requires every measured row to MATCH
// the analytic cost model — the table's values are logical counts, so any
// MISMATCH is a protocol regression, not noise.
func TestCostsAllMatch(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-run", "costs"}, &out); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	s := out.String()
	if strings.Contains(s, "MISMATCH") {
		t.Fatalf("cost model mismatch:\n%s", s)
	}
	if got := strings.Count(s, "MATCH"); got != 26 { // 13 mixes x 2 outcomes
		t.Fatalf("want 26 MATCH rows, got %d:\n%s", got, s)
	}
}

// TestConsensusJSONShape pins the BENCH_consensus.json format: the E19
// section with -json must emit the {experiment, seed, rows} document with
// one row per (clients, acceptors) cell and live numbers in every row. The
// values themselves are timing-dependent; the shape and invariants (the
// replicated rows pay more messages and forces) are not.
func TestConsensusJSONShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4 TCP cluster workloads; skipped with -short")
	}
	var out strings.Builder
	if code := run([]string{"-run", "consensus", "-json"}, &out); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	type row struct {
		Acceptors    int     `json:"acceptors"`
		Clients      int     `json:"clients"`
		Txns         int     `json:"txns"`
		TxnsPerSec   float64 `json:"txns_per_sec"`
		MsgsPerTxn   float64 `json:"msgs_per_txn"`
		ForcesPerTxn float64 `json:"forces_per_txn"`
		P50US        float64 `json:"latency_p50_us"`
	}
	var doc struct {
		Experiment string `json:"experiment"`
		Seed       int64  `json:"seed"`
		Rows       []row  `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("not the BENCH_consensus.json shape: %v\n%s", err, out.String())
	}
	if doc.Experiment != "E19 replicated vs single decision cost" || doc.Seed == 0 {
		t.Fatalf("bad header: %q seed=%d", doc.Experiment, doc.Seed)
	}
	if len(doc.Rows) != 4 {
		t.Fatalf("want 4 rows (2 client levels x {0,3} acceptors), got %d", len(doc.Rows))
	}
	for i := 0; i < len(doc.Rows); i += 2 {
		single, repl := doc.Rows[i], doc.Rows[i+1]
		if single.Acceptors != 0 || repl.Acceptors != 3 || single.Clients != repl.Clients {
			t.Fatalf("row pairing broken: %+v / %+v", single, repl)
		}
		for _, r := range []row{single, repl} {
			if r.Txns <= 0 || r.TxnsPerSec <= 0 || r.P50US <= 0 {
				t.Fatalf("degenerate row: %+v", r)
			}
		}
		if repl.MsgsPerTxn <= single.MsgsPerTxn || repl.ForcesPerTxn <= single.ForcesPerTxn {
			t.Fatalf("replication should cost messages and forces: %+v vs %+v", single, repl)
		}
	}
}

// TestRunUnknownSection exits 2 and names the valid sections.
func TestRunUnknownSection(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-run", "frob"}, &out); code != 2 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `unknown section "frob"`) {
		t.Fatalf("missing error:\n%s", out.String())
	}
}
