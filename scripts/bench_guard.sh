#!/bin/sh
# bench_guard.sh — allocation ceilings on the hot-path benchmarks.
#
# Each row of the table below names a benchmark, a metric of its result
# line (a -benchmem one or an integer the benchmark reports itself) and
# that metric's committed ceiling.
# Every benchmark runs once (-benchtime=1x), so wall-clock noise cannot
# trip the guard, and at GOMAXPROCS 2 (-cpu 2): the pooled machines are
# rebuilt after a GC once per P that lost its pooled copy, so the sweep's
# allocs/op grow with the P count (~16.7k–17.3k at 2, up to ~18.3k at
# 16) and a pinned count keeps the ceilings valid on any host. The script
# fails when a metric cannot be parsed or exceeds its ceiling, after
# checking every row. Run from the repository root (make bench-guard).
# Raise a ceiling only with a justification in the same commit.
set -eu

GO="${GO:-go}"

# benchmark                   metric          ceiling
rows='
BenchmarkCampaignSweep        allocs/op       17780
BenchmarkCampaignSweep        B/op            25000000
BenchmarkCampaign/warm        allocs/op       13275
BenchmarkWriteReport          allocs/op       4
BenchmarkJobResultCodec       allocs/op       538
BenchmarkGenerate510Variants  allocs/op       9516
BenchmarkGenerate510Variants  B/op            3960152
BenchmarkCampaign/cold        allocs/op       24400
BenchmarkRunLockstep/fork4    allocs/op       1
BenchmarkRunLockstep/noisy1   allocs/op       1
BenchmarkRunLockstep/stream4  allocs/op       5
BenchmarkMachineWarm/hit      allocs/op       0
BenchmarkServiceRetention     retained-B/job  150223
'

failed=0
for bench in $(printf '%s\n' "$rows" | awk 'NF && !seen[$1]++ { print $1 }'); do
	case "$bench" in
	*/*) pattern="^${bench%%/*}\$/^${bench#*/}\$" ;;
	*) pattern="^$bench\$" ;;
	esac
	# Echoed after the run rather than through tee /dev/stderr, which
	# truncates a log file that stderr is redirected to.
	out="$("$GO" test -run='^$' -bench "$pattern" -benchtime=1x -cpu 2 -benchmem . 2>&1)" || failed=1
	printf '%s\n' "$out" >&2
	while read -r name metric limit; do
		[ "$name" = "$bench" ] || continue
		# The result line's name carries the -2 GOMAXPROCS suffix.
		value="$(printf '%s\n' "$out" | awk -v b="$bench" -v m="$metric" '
			{ name = $1; sub(/-[0-9]+$/, "", name) }
			name == b { for (i = 2; i <= NF; i++) if ($i == m) print $(i - 1) }')"
		unit="$metric"
		[ "$metric" = "allocs/op" ] && unit="objs/op"
		if [ -z "$value" ]; then
			echo "bench-guard: could not parse $bench $metric"
			failed=1
		elif [ "$value" -gt "$limit" ]; then
			echo "bench-guard: $bench allocated $value $unit, ceiling is $limit"
			failed=1
		else
			echo "bench-guard: $bench $value $metric <= $limit"
		fi
	done <<EOF
$rows
EOF
done
exit "$failed"
