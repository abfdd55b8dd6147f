package main

import "time"

// layerMetric names one per-layer figure, <module>.<metric> after the
// repository's packages; BENCHMARK.json lists the same set.
type layerMetric struct {
	name, unit string
	value      func(w *workload, r *roundStats) float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perCall(d time.Duration, calls int, unit time.Duration) float64 {
	return ratio(float64(d)/float64(unit), float64(calls))
}

// op is the replay of the workload's own operation: the cold replay, or
// for the serve workload the cache-hit replay its jobs perform.
func (r *roundStats) op(w *workload) *layers {
	if w.serve {
		return &r.warm
	}
	return &r.cold
}

// layerSum is the blocking-path layer time of one workers=1 operation.
// For the serve workload that is the cache-hit replay plus the client's
// Submit and Result calls.
func (r *roundStats) layerSum(w *workload) time.Duration {
	if !w.serve {
		return r.cold.sum()
	}
	return r.warm.sum() + (r.jobs.submit+r.jobs.result)/time.Duration(r.nJobs)
}

var layerMetrics = []layerMetric{
	{"xmlspec.parse_us", "us", func(w *workload, r *roundStats) float64 {
		return perCall(r.op(w).parse, 1, time.Microsecond)
	}},
	{"passes.gen_us_per_variant", "us", func(w *workload, r *roundStats) float64 {
		l := r.op(w)
		return perCall(l.gen-l.parse, l.variants, time.Microsecond)
	}},
	{"dataflow.bound_us_per_variant", "us", func(w *workload, r *roundStats) float64 {
		l := r.op(w)
		return perCall(l.bound, l.variants, time.Microsecond)
	}},
	{"campaign.key_us", "us", func(w *workload, r *roundStats) float64 {
		l := r.op(w)
		return perCall(l.key, l.keys, time.Microsecond)
	}},
	{"campaign.cache_get_us", "us", func(w *workload, r *roundStats) float64 {
		l := r.op(w)
		return perCall(l.get, l.gets, time.Microsecond)
	}},
	{"campaign.cache_hit_ratio", "ratio", func(w *workload, r *roundStats) float64 {
		l := r.op(w)
		return ratio(float64(l.hits), float64(l.gets))
	}},
	{"campaign.cache_put_us", "us", func(w *workload, r *roundStats) float64 {
		return perCall(r.cold.put, r.cold.puts, time.Microsecond)
	}},
	{"campaign.cache_bytes_per_put", "bytes", func(w *workload, r *roundStats) float64 {
		return ratio(float64(r.cacheBytes), float64(r.cold.puts))
	}},
	{"sim.new_us", "us", func(w *workload, r *roundStats) float64 {
		return perCall(r.cold.simNew, r.cold.simNews, time.Microsecond)
	}},
	{"sim.new_alloc_kb", "KiB", func(w *workload, r *roundStats) float64 {
		return ratio(float64(r.cold.simNewAlloc)/1024, float64(r.cold.simNews))
	}},
	{"launcher.launch_ms", "ms", func(w *workload, r *roundStats) float64 {
		return perCall(r.cold.launch, r.cold.launches, time.Millisecond)
	}},
	{"launcher.reps_per_launch", "count", func(w *workload, r *roundStats) float64 {
		return ratio(float64(r.cold.reps), float64(r.cold.launches))
	}},
	{"launcher.launches_per_variant", "count", func(w *workload, r *roundStats) float64 {
		return ratio(float64(r.cold.launches), float64(r.cold.variants))
	}},
	{"sim.ns_per_inst", "ns", func(w *workload, r *roundStats) float64 {
		return ratio(float64(r.cold.launch), float64(r.cold.insts))
	}},
	{"sim.insts_per_launch", "count", func(w *workload, r *roundStats) float64 {
		return ratio(float64(r.cold.insts), float64(r.cold.launches))
	}},
	{"memsim.l1_miss_ratio", "ratio", func(w *workload, r *roundStats) float64 {
		m := r.cold.mem
		return ratio(float64(m.L1Misses), float64(m.L1Hits+m.L1Misses))
	}},
	{"memsim.l3_miss_ratio", "ratio", func(w *workload, r *roundStats) float64 {
		m := r.cold.mem
		return ratio(float64(m.L3Misses), float64(m.L3Hits+m.L3Misses))
	}},
	{"memsim.ram_lines", "count", func(w *workload, r *roundStats) float64 {
		return float64(r.cold.mem.MemAccesses)
	}},
	{"analysis.rank_us", "us", func(w *workload, r *roundStats) float64 {
		return perCall(r.op(w).rank, 1, time.Microsecond)
	}},
	{"launcher.report_encode_us", "us", func(w *workload, r *roundStats) float64 {
		return perCall(r.op(w).report, 1, time.Microsecond)
	}},
	{"service.submit_ms", "ms", func(w *workload, r *roundStats) float64 {
		return perCall(r.jobs.submit, r.nJobs, time.Millisecond)
	}},
	{"service.queue_ms", "ms", func(w *workload, r *roundStats) float64 {
		return ratio(float64(r.jobs.queueMS), float64(r.nJobs))
	}},
	{"service.run_ms", "ms", func(w *workload, r *roundStats) float64 {
		return ratio(float64(r.jobs.runMS), float64(r.nJobs))
	}},
	{"service.stream_events", "count", func(w *workload, r *roundStats) float64 {
		return ratio(float64(r.jobs.events), float64(r.nJobs))
	}},
	{"service.result_ms", "ms", func(w *workload, r *roundStats) float64 {
		return perCall(r.jobs.result, r.nJobs, time.Millisecond)
	}},
	{"service.result_kb", "KiB", func(w *workload, r *roundStats) float64 {
		return ratio(float64(r.jobs.resultBytes)/1024, float64(r.nJobs))
	}},
	{"service.retained_kb_per_job", "KiB", func(w *workload, r *roundStats) float64 {
		return r.retained / 1024
	}},
	{"runtime.gc_cpu_frac", "ratio", func(w *workload, r *roundStats) float64 {
		return r.gcFrac
	}},
	{"campaign.e2e_w1_s", "s", func(w *workload, r *roundStats) float64 {
		return r.e2e.Seconds()
	}},
	{"campaign.layer_sum_s", "s", func(w *workload, r *roundStats) float64 {
		return r.layerSum(w).Seconds()
	}},
	{"campaign.engine_residual_s", "s", func(w *workload, r *roundStats) float64 {
		return (r.e2e - r.layerSum(w)).Seconds()
	}},
}

// perLayer reports every layer metric as its mean over the rounds, so the
// layer sum and the residual still add up to the end-to-end time.
func perLayer(w *workload, rounds []*roundStats) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		var sum float64
		for _, r := range rounds {
			sum += lm.value(w, r)
		}
		out[lm.name] = metric{sum / float64(len(rounds)), lm.unit}
	}
	return out
}
