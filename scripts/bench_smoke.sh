#!/bin/sh
# Short E16 smoke run for the merge gate: 50 transactions over real TCP
# must show the link writer actually coalescing — mean messages per
# physical frame strictly above 1. Catches a silently disabled batch path
# without paying for the full benchmark sweep. Then the E19 leg runs the
# consensus generator through its JSON shape harness in-process; the
# committed BENCH_consensus.json holds host-sensitive numbers and is
# regenerated deliberately with `make bench-consensus`, not on every merge.
set -eu

cd "$(dirname "$0")/.."

out=$(go test -bench 'BenchmarkE16_Pipeline/clients=16$' -benchtime 50x -run '^$' . 2>&1) || {
	echo "$out"
	echo "FAIL bench-smoke: benchmark failed"
	exit 1
}
batch=$(echo "$out" | awk '
	/BenchmarkE16_Pipeline/ {
		for (i = 1; i <= NF; i++)
			if ($i == "msgs/frame") { print $(i-1); exit }
	}')
if [ -z "$batch" ]; then
	echo "FAIL bench-smoke: no msgs/frame figure in output:"
	echo "$out"
	exit 1
fi
ok=$(awk -v b="$batch" 'BEGIN { print (b > 1) ? 1 : 0 }')
if [ "$ok" = 1 ]; then
	echo "ok   bench-smoke: ${batch} msgs/frame (> 1, batching live)"
else
	echo "FAIL bench-smoke: ${batch} msgs/frame — frame batching is not coalescing"
	exit 1
fi

go test -count=1 -run 'TestConsensusJSONShape' ./cmd/prany-bench >/dev/null || {
	echo "FAIL bench-smoke: consensus generator failed the JSON shape harness"
	exit 1
}
echo "ok   bench-smoke: consensus sweep generated and shape-checked"

# E20 leg: regenerate the Byzantine tolerance matrix with the canonical
# flags and re-run the committed-artifact shape test against the fresh
# document, so BENCH_byz.json can never drift from its generator. This is
# the expensive leg (the 16 exhaustive mcheck cells run here), so it comes
# last: the cheap checks above fail fast.
go run ./cmd/prany-chaos -byz -episodes 2 -seed 1 -txns 8 -json > BENCH_byz.json || {
	echo "FAIL bench-smoke: could not regenerate BENCH_byz.json (or its verdict failed)"
	exit 1
}
go test -count=1 -run 'TestByzJSONShape' ./cmd/prany-chaos >/dev/null || {
	echo "FAIL bench-smoke: BENCH_byz.json failed the JSON shape harness"
	exit 1
}
echo "ok   bench-smoke: BENCH_byz.json regenerated and shape-checked"
