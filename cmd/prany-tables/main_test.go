package main

import (
	"os"
	"strings"
	"testing"
)

// TestGolden compares each deterministic section's output byte-for-byte
// against its checked-in table: every figure in these sections is a logical
// count (forced writes, records, messages, violations), so any drift — a
// MISMATCH against the analytic cost model included — is a protocol
// regression, not noise. Regenerate with:
//
//	go run ./cmd/prany-tables -run <section> > cmd/prany-tables/testdata/<section>.golden
func TestGolden(t *testing.T) {
	for _, section := range []string{
		"costs",    // E1-E4: 13 mixes x 2 outcomes, every row MATCH
		"theorem1", // E5: the Theorem 1 violation table
		"theorem2", // E6: retention linear in txns under C2PC, zero under PrAny
		"readonly", // E10
		"iyv",      // E11
		"cl",       // E12
	} {
		t.Run(section, func(t *testing.T) {
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
		})
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
