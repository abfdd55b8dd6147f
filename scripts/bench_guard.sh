#!/bin/sh
# bench_guard.sh — allocation ceilings on the hot-path benchmarks.
#
# Each row of the table below names a benchmark, a metric of its result
# line (a -benchmem one or an integer the benchmark reports itself) and
# the file holding that metric's committed ceiling.
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

# benchmark                   metric     ceiling file
rows='
BenchmarkCampaignSweep        allocs/op  bench_guard_allocs.txt
BenchmarkCampaignSweep        B/op       bench_guard_bytes.txt
BenchmarkCampaign/warm        allocs/op  bench_guard_warm_allocs.txt
BenchmarkWriteReport          allocs/op  bench_guard_report_allocs.txt
BenchmarkJobResultCodec       allocs/op  bench_guard_codec_allocs.txt
BenchmarkGenerate510Variants  allocs/op  bench_guard_gen_allocs.txt
BenchmarkGenerate510Variants  B/op       bench_guard_gen_bytes.txt
BenchmarkCampaign/cold        allocs/op  bench_guard_cold_allocs.txt
BenchmarkRunLockstep/fork4    allocs/op  bench_guard_lockstep_fork4_allocs.txt
BenchmarkRunLockstep/noisy1   allocs/op  bench_guard_lockstep_noisy1_allocs.txt
BenchmarkRunLockstep/stream4  allocs/op  bench_guard_lockstep_stream4_allocs.txt
BenchmarkMachineWarm/hit      allocs/op  bench_guard_warm_hit_allocs.txt
BenchmarkServiceRetention     retained-B/job  bench_guard_retained_bytes.txt
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
	while read -r name metric file; do
		[ "$name" = "$bench" ] || continue
		limit="$(cat "$file")"
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
