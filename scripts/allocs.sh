#!/bin/sh
# Enforce the per-benchmark ceilings in alloc.floors: allocs/op always, ns/op
# where a line gives a fourth column. A sub-benchmark is named Parent/sub.
# Exits nonzero naming every benchmark above a ceiling.
set -eu

cd "$(dirname "$0")/.."
floors=alloc.floors

# figure prints the number preceding unit $1 on $bench's result line in $out.
figure() {
	echo "$out" | awk -v b="$bench" -v u="$1" '
		$1 ~ "^"b {
			for (i = 1; i <= NF; i++)
				if ($i == u) { print $(i-1); exit }
		}'
}

fail=0
while read -r pkg bench max maxns; do
	case "$pkg" in ''|\#*) continue ;; esac
	pattern="^$(echo "$bench" | sed 's,/,$/^,g')\$"
	out=$(go test -bench "$pattern" -benchmem -benchtime 1000x -run '^$' "./${pkg#prany/}/" 2>&1) || {
		echo "$out"
		echo "FAIL $pkg $bench: benchmark failed"
		fail=1
		continue
	}
	allocs=$(figure allocs/op)
	ns=$(figure ns/op)
	if [ -z "$allocs" ]; then
		echo "FAIL $pkg $bench: no allocs/op figure in output:"
		echo "$out"
		fail=1
		continue
	fi
	if [ "$allocs" -le "$max" ]; then
		echo "ok   $pkg $bench ${allocs} allocs/op (ceiling ${max})"
	else
		echo "FAIL $pkg $bench ${allocs} allocs/op above ceiling ${max}"
		fail=1
	fi
	[ -n "$maxns" ] || continue
	if awk -v n="$ns" -v m="$maxns" 'BEGIN { exit !(n != "" && n <= m) }'; then
		echo "ok   $pkg $bench ${ns} ns/op (ceiling ${maxns})"
	else
		echo "FAIL $pkg $bench ${ns:-no} ns/op above ceiling ${maxns}"
		fail=1
	fi
done < "$floors"

exit "$fail"
