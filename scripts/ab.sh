#!/bin/sh
# ab.sh — the perfbench speed-claim protocol as one command.
#
#   scripts/ab.sh <parent-rev> <workload> [pairs] [seconds] [seed]
#
# Compares the benchmark of the working tree (the change) with the one of
# <parent-rev>. The parent's files are copied with `git archive` under
# .bench_build/ab/, which is removed on exit. Each side's perfbench is
# built once, in perfbench/run.sh's offline environment, and run <pairs>
# times (default 10) for <seconds> each (default BENCHMARK.json's
# run_seconds), with --seed <seed> when one is given. The side that runs
# first alternates from pair to pair. Each run's last output line is its
# JSON result.
#
# For every end_to_end metric in BENCHMARK.json it prints: the pairs the
# change wins (ties count for neither side), both medians, their
# difference, the parent's interquartile range, whether the difference
# exceeds that range, whether the change is worse than the parent by more
# than the metric's relative bound, and whether a gain is claimable (at
# least 10 pairs, the change wins at least 9 in 10 of them and improves
# the median by more than the parent's IQR). The exit status is non-zero when a run fails or
# reports correct: false. Run from the repository root (make ab).
set -eu

if [ -z "${1:-}" ] || [ -z "${2:-}" ]; then
	echo "usage: scripts/ab.sh <parent-rev> <workload> [pairs] [seconds] [seed]" >&2
	exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' BENCHMARK.json)}
seed=${5:-}

build="$PWD/.bench_build"
ab="$build/ab"
rm -rf "$ab"
mkdir -p "$ab/parent" "$ab/runs" "$build/tmp"
trap 'rm -rf "$ab"' EXIT
trap 'exit 130' INT TERM

git archive "$rev" | tar -x -C "$ab/parent"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$ab/parent/perfbench" && go build -o "$ab/parent.bin" .)
(cd perfbench && go build -o "$ab/change.bin" .)

# run <side> <pair>: one perfbench run from the side's own tree (it reads
# specs/ and writes .bench_build/ there); appends "side pair json" to the
# results.
results="$ab/results"
run() {
	dir=$PWD
	if [ "$1" = parent ]; then dir="$ab/parent"; fi
	out="$ab/runs/$1-$2"
	echo "ab: pair $2/$pairs: $1" >&2
	if ! (cd "$dir" && "$ab/$1.bin" --workload "$workload" --seconds "$seconds" --trace 0 ${seed:+--seed "$seed"}) \
		> "$out.out" 2> "$out.err"; then
		cat "$out.err" >&2
		echo "ab: $1 run $2 failed" >&2
		exit 1
	fi
	line=$(tail -n 1 "$out.out")
	case $line in
	*'"correct":true'*) ;;
	*)
		cat "$out.err" >&2
		echo "ab: $1 run $2 not correct: $line" >&2
		exit 1
		;;
	esac
	printf '%s %s %s\n' "$1" "$2" "$line" >> "$results"
}

: > "$results"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
	i=$((i + 1))
done

echo "ab: $workload, $pairs pairs of $seconds s, parent $rev vs working tree"
# The first input is BENCHMARK.json (metric, better, bound per end_to_end
# entry); the second holds one "side pair json" line per run.
awk '
function sorted(a, n,   i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
function quantile(a, n, q,   h, l) {
	h = (n - 1) * q + 1
	l = int(h)
	return l >= n ? a[n] : a[l] + (h - l) * (a[l+1] - a[l])
}
function value(json, name,   key, s) {
	key = "\"" name "\":{\"value\":"
	s = index(json, key)
	if (s == 0) return ""
	s = substr(json, s + length(key))
	return substr(s, 1, match(s, /[,}]/) - 1) + 0
}
FNR == NR {
	if ($0 ~ /"end_to_end"/) inside = 1
	else if (inside && $0 ~ /^[ \t]*\]/) inside = 0
	else if (inside && match($0, /"(name|better|bound)": *[^,]*/)) {
		split(substr($0, RSTART, RLENGTH), kv, /": */)
		key = substr(kv[1], 2); val = kv[2]; gsub(/"/, "", val)
		if (key == "name") names[++m] = val
		else if (key == "better") better[m] = val
		else bound[m] = val + 0
	}
	next
}
{
	n = $2 > n ? $2 : n
	json = $0
	sub(/^[^ ]+ [^ ]+ /, "", json)
	for (k = 1; k <= m; k++) v[$1, $2, names[k]] = value(json, names[k])
}
END {
	printf "%-22s %6s %12s %12s %12s %12s %6s %6s %6s\n", "metric", "wins", "parent", "change", "diff", "parent_iqr", ">iqr", "worse", "claim"
	for (k = 1; k <= m; k++) {
		name = names[k]; sign = better[k] == "higher" ? -1 : 1
		wins = 0
		for (i = 1; i <= n; i++) {
			p[i] = v["parent", i, name]; c[i] = v["change", i, name]
			if (sign * (c[i] - p[i]) < 0) wins++
		}
		sorted(p, n); sorted(c, n)
		pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
		diff = cm - pm
		iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
		beyond = diff > iqr || -diff > iqr
		worse = sign * diff > bound[k] * (pm < 0 ? -pm : pm)
		claim = n >= 10 && wins >= 0.9 * n && beyond && sign * diff < 0
		printf "%-22s %3d/%-2d %12.6g %12.6g %12.6g %12.6g %6s %6s %6s\n", name, wins, n, pm, cm, diff, iqr,
			beyond ? "yes" : "no", worse ? "yes" : "no", claim ? "yes" : "no"
	}
}' BENCHMARK.json "$results"
