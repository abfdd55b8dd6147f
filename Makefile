GO ?= go

.PHONY: ab ci build test vet lint fmt-check race bench bench-smoke bench-guard examples-smoke fuzz-smoke telemetry-smoke analyze-smoke serve-smoke adaptive-smoke chaos-smoke perfbench-check

# ci is the repository's verify command (see ROADMAP.md): formatting, vet,
# the project-invariant linter, build, the full test suite under the race
# detector, a single-iteration pass of the hot-path benchmarks so they
# cannot rot between perf-focused PRs, the allocation guard on the campaign
# sweep, a static analysis of every shipped spec, a live scrape of the
# telemetry endpoints through the real CLI, an end-to-end exercise of
# the measurement service (submit, shared cache, metrics, drain), a
# fixed-vs-adaptive study comparison guarding the planner's savings and
# ranking-preservation contract, and a fault-injected run that must match
# the fault-free one bit for bit, a run of every example program, and
# vet plus tests of the nested perfbench module.
ci: fmt-check vet lint build race bench-smoke bench-guard analyze-smoke telemetry-smoke serve-smoke adaptive-smoke chaos-smoke examples-smoke perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the repository-invariant analyzer (see cmd/microlint for the
# rule catalog: determinism, no stray printing, balanced trace spans, error
# string conventions).
lint:
	$(GO) run ./cmd/microlint .

# perfbench-check vets and tests the benchmark harness, a nested module
# the root ./... pattern skips: deleting an API it builds against must fail
# here, not only when the benchmark runs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# race also shuffles test order so inter-test state dependencies surface.
race:
	$(GO) test -race -shuffle=on ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

# bench covers the paper-figure benchmarks plus BenchmarkCampaign's
# cold-vs-warm cache comparison (root bench_test.go).
bench:
	$(GO) test -bench . -benchmem .

# HOT_BENCHES are the simulator hot-path benchmarks that bench-smoke keeps
# working (see README "Benchmark guards"): the core's simulation speed, the
# pooled machine's warm-up-and-reset cost without and with the warm-up
# memo (simulated and restored warm-ups), one repetition, the multi-core
# lock-step scheduler (fork, noisy and streamed runs), variant
# materialization, generation of the 510-variant family, the full launcher
# protocol with telemetry off and on (the pair bounds instrumentation
# overhead), the campaign sweep serial, adaptive and across worker counts,
# the cold-vs-warm cache campaign (the warm half is the all-hits path; the
# quick half is perfbench's fig6-quick-cold campaign, for profiles of the
# gated workload), the static analysis, the static screen, the JSON report
# encoding, the served result's wire decode + encode and the live heap a
# daemon keeps per finished job. Timing evidence
# comes from perfbench/, not from these.
HOT_BENCHES = ^(BenchmarkSimulatorThroughput|BenchmarkMachineReset|BenchmarkMachineWarm|BenchmarkRunOne|BenchmarkRunLockstep|BenchmarkVariantMaterialize|BenchmarkGenerate510Variants|BenchmarkLauncherProtocol|BenchmarkLauncherProtocolTelemetry|BenchmarkCampaign|BenchmarkCampaignSweep|BenchmarkCampaignSweepAdaptive|BenchmarkCampaignSweepWorkers|BenchmarkAnalyze|BenchmarkScreenStatic|BenchmarkWriteReport|BenchmarkJobResultCodec|BenchmarkServiceRetention)$$

# bench-smoke compiles and runs each hot-path benchmark exactly once — a CI
# guard that they keep working, not a measurement.
bench-smoke:
	$(GO) test -run='^$$' -bench '$(HOT_BENCHES)' -benchtime=1x -benchmem .

# bench-guard runs each guarded benchmark once at GOMAXPROCS 2 and fails if
# an allocs/op or B/op figure exceeds its committed ceiling
# (scripts/bench_guard.sh holds the table of benchmark, metric and ceiling
# file). Wall-clock noise cannot trip it. The campaign sweep's ceilings (bench_guard_allocs.txt,
# bench_guard_bytes.txt) catch allocation regressions in the variant
# pipeline or a return to building a fresh simulated machine per launch;
# the all-hits warm campaign's (bench_guard_warm_allocs.txt) a return to
# decoding every cache hit from JSON; the 510-variant JSON report's
# (bench_guard_report_allocs.txt; the appending encoder makes one
# allocation, encoding/json reflection ~12k) and the served result's wire
# decode + encode (bench_guard_codec_allocs.txt; one string per variant
# name, encoding/json reflection ~4.6k) a return to reflection; the
# 510-variant generation's (bench_guard_gen_allocs.txt, and the B/op
# ceiling in bench_guard_gen_bytes.txt, stable to ~100 B unlike the
# sweep's bytes, which swing by a rebuilt pooled machine) a second
# dataflow scan per variant, parsing every instruction's mnemonic,
# formatting variant names, or a return of a per-variant copy the
# lower-once cut removed (the decode's offsets table and µop slice
# headers, the label map, a clone's tag map, the body copy of
# insert-inductions; ~20 objects per variant are left); and the file-backed cold campaign's (510
# launches and cache puts, bench_guard_cold_allocs.txt) a return to
# encoding each cache line by reflection round trips; and the multi-core
# scheduler's (BenchmarkRunLockstep fork4, noisy1 and stream4,
# bench_guard_lockstep_*_allocs.txt: the returned results only, 1, 1 and
# 5 objects) per-call scratch or a second scheduling loop; and the
# memo-hit warm-up's (BenchmarkMachineWarm/hit,
# bench_guard_warm_hit_allocs.txt: 0) a restore that allocates; and the
# daemon's retained heap per finished job (BenchmarkServiceRetention
# retained-B/job, bench_guard_retained_bytes.txt: ~136.5 KB measured,
# ~242.5 KB with one full JobStatus copy per event) a return to
# per-event status copies.
# Raise a ceiling only with a justification in the same commit.
bench-guard:
	GO='$(GO)' sh scripts/bench_guard.sh

# ab runs the perfbench speed-claim protocol: PAIRS (default 10)
# alternating runs of the working tree and of PARENT on WORKLOAD, then one
# verdict per end-to-end metric (scripts/ab.sh). SECONDS and SEED are
# optional.
#   make ab PARENT=HEAD WORKLOAD=fig6-quick-cold PAIRS=5 SECONDS=20
ab:
	sh scripts/ab.sh '$(PARENT)' '$(WORKLOAD)' '$(PAIRS)' '$(SECONDS)' '$(SEED)'

# telemetry-smoke starts a real study with -telemetry-addr on an ephemeral
# port, scrapes /metrics and /debug/campaigns mid-run, and asserts the
# expected metric families are exposed (scripts/telemetry_smoke.sh).
telemetry-smoke:
	GO='$(GO)' sh scripts/telemetry_smoke.sh

# serve-smoke builds microserved, submits the same spec as two tenants via
# `microtools submit`, asserts the second run is fully cache-warm with a
# byte-identical campaign payload, scrapes the service metrics, and drains
# the daemon with SIGTERM (scripts/serve_smoke.sh).
serve-smoke:
	GO='$(GO)' sh scripts/serve_smoke.sh

# adaptive-smoke runs the same study twice through the real CLI — once with
# the fixed repetition budget, once with -adaptive — and asserts the
# planner's contract: at least 25% of repetitions saved, no variant missing
# the RCIW target, and a byte-identical ranking (scripts/adaptive_smoke.sh).
adaptive-smoke:
	GO='$(GO)' sh scripts/adaptive_smoke.sh

# chaos-smoke runs `microtools chaos` through the real CLI: a fault-free
# and a fault-injected run of one spec, whose surviving measurements must
# be bit-identical once the retry budget has healed every transient fault.
# It fails on a non-zero exit or a missing bit-identity line.
chaos-smoke:
	@out="$$($(GO) run ./cmd/microtools chaos -retries 4 specs/arith_hiding.xml)" || { \
		echo "$$out"; echo "chaos-smoke: microtools chaos exited non-zero"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q 'bit-identical to the fault-free run' || { \
		echo "chaos-smoke: no bit-identity line in the output"; exit 1; }

# examples-smoke runs every program under examples/ — the root package's
# only outside callers — and fails on the first non-zero exit.
examples-smoke:
	@for d in examples/*/; do \
		echo "examples-smoke: $$d"; \
		out="$$($(GO) run "./$$d" 2>&1)" || { \
			echo "$$out"; echo "examples-smoke: $$d exited non-zero"; exit 1; }; \
	done

# fuzz-smoke gives each fuzz target a short budget — enough to catch a
# regression in the parsers' error paths without stalling CI.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/xmlspec
	$(GO) test -run='^$$' -fuzz=FuzzParseRoundTrip -fuzztime=10s ./internal/asm
	$(GO) test -run='^$$' -fuzz=FuzzValidate -fuzztime=10s ./internal/launcher
	$(GO) test -run='^$$' -fuzz=FuzzReportJSON -fuzztime=10s ./internal/launcher
	$(GO) test -run='^$$' -fuzz=FuzzAnalyze -fuzztime=10s ./internal/dataflow
	$(GO) test -run='^$$' -fuzz=FuzzWireJSON -fuzztime=10s ./api/v1
	$(GO) test -run='^$$' -fuzz=FuzzCacheLine -fuzztime=10s ./internal/campaign
	$(GO) test -run='^$$' -fuzz=FuzzEmit -fuzztime=10s ./internal/passes
	$(GO) test -run='^$$' -fuzz=FuzzOpen -fuzztime=10s ./internal/jsonl

# analyze-smoke runs the static dataflow analysis over every variant of every
# shipped spec on both machine models; `microtools analyze` exits non-zero on
# any defect finding (a dead register write, V009, or a self-move, V010), so
# a spec regression fails CI without launching a single measurement.
analyze-smoke:
	$(GO) run ./cmd/microtools analyze -machine nehalem-dual specs/*.xml > /dev/null
	$(GO) run ./cmd/microtools analyze -machine sandybridge specs/*.xml > /dev/null
