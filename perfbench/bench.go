package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"microtools/internal/campaign"
	"microtools/internal/telemetry"
)

const (
	// loadsPerOp is how many set-ups an in-process run times before each
	// operation; setup_s is the median over the run, so it samples the
	// whole run rather than the first milliseconds of the process.
	loadsPerOp = 25
	// jobsPerDaemon is how many warm jobs each daemon of the serve
	// workload runs. A serve run is a sequence of whole daemon lifetimes:
	// set-up (spec, daemon, fresh cache, cold prefill job), then this many
	// jobs. The daemon keeps every finished job in memory, so the jobs'
	// times and the process's memory carry that cost; the count is fixed
	// so that every run measures the same lifetime whatever the host's
	// speed.
	jobsPerDaemon = 100
	// minOps is the fewest timed operations an in-process run makes,
	// whatever the budget. peak_rss_mb is read once they are done, so a
	// faster build, which completes more operations in the budget, does
	// not get more chances at a high-water mark.
	minOps = 3
	// minLifetimes is the same for the serve workload: peak_rss_mb is read
	// at the end of its second daemon lifetime, the high-water mark over
	// two identical lifetimes, which is steadier than over one.
	minLifetimes = 2
	// jobsPerRound is how many warm service jobs a traced round times.
	jobsPerRound = 10
	// calibsPerLifetime is how many reference workloads pair with each
	// set-up of the serve workload. A run makes only a few such set-ups,
	// so each is scaled by the median of several reference times rather
	// than by one.
	calibsPerLifetime = 9
)

// bench is one benchmark run of one workload under one seed.
type bench struct {
	w      *workload
	seed   int64
	dir    string // scratch directory for caches
	budget time.Duration
	golden golden
}

// serveSetUp is one set-up of the serve workload: load the spec, start a
// daemon over a fresh cache and prefill the cache with one cold job. It
// returns the study, the daemon and the prefill job's campaign payload.
func (b *bench) serveSetUp(ctx context.Context) (*study, *server, []byte, error) {
	st, err := b.w.load(".", b.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := startServer(ctx, st, b.dir, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	out, payload, err := srv.job(ctx, st.request(b.w.workers), &jobTimes{})
	if err == nil && out.launches != out.variants {
		err = fmt.Errorf("prefill job launched %d of %d variants", out.launches, out.variants)
	}
	if err != nil {
		return nil, nil, nil, errors.Join(err, srv.close())
	}
	return st, srv, payload, nil
}

// coldReplay replays one operation over a fresh cache, which it returns
// open together with its path.
func coldReplay(ctx context.Context, st *study, dir string, l *layers) (*outcome, *campaign.Cache, string, error) {
	cache, path, err := freshCache(dir)
	if err != nil {
		return nil, nil, "", err
	}
	out, err := replay(ctx, st, cache, l)
	if err != nil {
		cache.Close()
		os.Remove(path)
		return nil, nil, "", err
	}
	return out, cache, path, nil
}

// runStats accumulates the timed operations and set-ups of one untraced
// run.
type runStats struct {
	tl        tally
	durations []float64 // seconds per operation
	setups    []float64 // seconds per set-up
	// calib is the latest reference workload's time; opCalibs and
	// setupCalibs pair it with each operation and set-up timed after it.
	calib                 float64
	opCalibs, setupCalibs []float64
	calibs                []float64 // seconds per reference workload
	variants              int
	allocated             uint64        // heap bytes the operations allocated
	busy                  time.Duration // time inside operations
	start                 time.Time     // when the run began; the budget is wall time from here
	peakRSS               float64
}

// recalibrate times the reference workload n times; the operations and
// set-ups timed next are converted to reference seconds by the median.
func (s *runStats) recalibrate(n int) {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = calibrate().Seconds()
	}
	s.calib = median(ts)
	s.calibs = append(s.calibs, ts...)
}

// addSetup records one set-up's wall time.
func (s *runStats) addSetup(d time.Duration) {
	s.setups = append(s.setups, d.Seconds())
	s.setupCalibs = append(s.setupCalibs, s.calib)
}

// timeOp runs and times one operation. op checks its own outcome; an error
// counts as a failed check.
func (s *runStats) timeOp(op func() (*outcome, error)) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	out, err := op()
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	s.busy += d
	s.allocated += m1.TotalAlloc - m0.TotalAlloc
	s.durations = append(s.durations, d.Seconds())
	s.opCalibs = append(s.opCalibs, s.calib)
	if err != nil {
		s.tl.check(false, "operation: %v", err)
		return
	}
	s.variants += out.variants
}

// inProcess is the untraced loop of a cold workload: set up, then run one
// operation over a fresh cache, until the budget is spent.
func (b *bench) inProcess(ctx context.Context, s *runStats) error {
	ref := b.golden.Digest
	for {
		var st *study
		s.recalibrate(1)
		for i := 0; i < loadsPerOp; i++ {
			t := time.Now()
			var err error
			if st, err = b.w.load(".", b.seed); err != nil {
				return err
			}
			s.addSetup(time.Since(t))
		}
		s.timeOp(func() (*outcome, error) {
			out, err := runStudy(ctx, st, b.dir, b.w.workers, nil)
			if err == nil {
				s.tl.check(out.digest == ref, "ranking digest %s, want %s", out.digest, ref)
			}
			return out, err
		})
		if len(s.durations) == minOps {
			s.peakRSS = peakRSSMB()
		}
		if len(s.durations) >= minOps && time.Since(s.start) > b.budget {
			return nil
		}
	}
}

// serve is the untraced loop of the serve workload: whole daemon
// lifetimes of jobsPerDaemon warm jobs each, until the budget is spent.
// peak_rss_mb is read at the end of lifetime minLifetimes, when the daemon
// holds all its finished jobs.
func (b *bench) serve(ctx context.Context, s *runStats) error {
	ref := b.golden.Digest
	for lifetimes := 1; lifetimes <= minLifetimes || time.Since(s.start) <= b.budget; lifetimes++ {
		s.recalibrate(calibsPerLifetime)
		t := time.Now()
		st, srv, prefill, err := b.serveSetUp(ctx)
		if err != nil {
			return err
		}
		s.addSetup(time.Since(t))
		for i := 0; i < jobsPerDaemon; i++ {
			s.recalibrate(1)
			s.timeOp(func() (*outcome, error) {
				out, payload, err := srv.job(ctx, st.request(b.w.workers), &jobTimes{})
				if err == nil {
					s.tl.check(out.digest == ref && out.launches == 0 && bytes.Equal(payload, prefill),
						"warm job: digest %s (want %s), %d launches (want 0), payload identical to the prefill job's: %t",
						out.digest, ref, out.launches, bytes.Equal(payload, prefill))
				}
				return out, err
			})
		}
		if lifetimes == minLifetimes {
			s.peakRSS = peakRSSMB()
		}
		if err := srv.close(); err != nil {
			return err
		}
	}
	return nil
}

// timed is the untraced run: operations, each checked against the golden
// digest, with set-ups and reference workloads timed between them, until
// the budget of wall time is spent.
func (b *bench) timed(ctx context.Context) (*result, error) {
	runtime.GC()
	s := &runStats{start: time.Now()}
	loop := b.inProcess
	if b.w.serve {
		loop = b.serve
	}
	if err := loop(ctx, s); err != nil {
		return nil, err
	}
	if s.variants == 0 {
		return nil, fmt.Errorf("no operation completed")
	}

	tl, durations := &s.tl, s.durations
	res := &result{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics: map[string]metric{
			"setup_s":              {refMedian(s.setups, s.setupCalibs), "s"},
			"campaign_p50_s":       {refMedian(durations, s.opCalibs), "s"},
			"alloc_mb_per_variant": {float64(s.allocated) / float64(s.variants) / 1e6, "MB"},
			"peak_rss_mb":          {s.peakRSS, "MB"},
		},
	}
	for _, k := range []string{"setup_s", "campaign_p50_s", "alloc_mb_per_variant", "peak_rss_mb"} {
		fmt.Printf("metric %s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("metric setup_wall_s %.6g s\n", median(s.setups))
	fmt.Printf("metric campaign_p50_wall_s %.6g s\n", median(durations))
	fmt.Printf("metric calibration_s %.6g s (median of %d reference workloads)\n", median(s.calibs), len(s.calibs))
	fmt.Printf("metric variants_per_s %.6g 1/s\n", float64(s.variants)/s.busy.Seconds())
	q1, q2, q3 := quartiles(durations)
	fmt.Printf("samples %d operations of %d variants, %d set-ups; quartiles %.6g %.6g %.6g s\n",
		len(durations), s.variants/len(durations), len(s.setups), q1, q2, q3)
	if pct, v, beyond, ok := tail(durations, 10); ok {
		fmt.Printf("metric campaign_tail_s %.6g s (p%g, %d samples beyond)\n", v, pct, beyond)
	} else {
		fmt.Printf("metric campaign_tail_s unavailable: %d samples leave fewer than 10 beyond the median\n", len(durations))
	}
	if !b.w.serve {
		insts := b.golden.Fingerprint.InstsRetired
		fmt.Printf("metric sim_minst_per_s %.6g Minst/s (%d simulated instructions per operation)\n",
			float64(insts)*float64(len(durations))/s.busy.Seconds()/1e6, insts)
	}
	fmt.Printf("metric error_rate %g (%d of %d checks failed)\n", float64(tl.failed)/float64(tl.attempted), tl.failed, tl.attempted)
	return res, nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds reads the runtime's GC and busy CPU time estimates.
func cpuSeconds() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// roundStats is what one traced round measured.
type roundStats struct {
	cold, warm layers // warm is the serve workload's cache-hit replay
	cacheBytes int64  // JSONL bytes the cold replay appended
	e2e        time.Duration
	jobs       jobTimes
	nJobs      int
	// retained is the live heap the daemon gained per finished job,
	// between the first and the last warm job.
	retained float64
	gcFrac   float64
}

// traced is the per-layer run: rounds of a serial replay, the untraced
// workers=1 operation it is compared with, and warm service jobs, for the
// budget (at least one round).
func (b *bench) traced(ctx context.Context) (*result, error) {
	st, err := b.w.load(".", b.seed)
	if err != nil {
		return nil, err
	}
	var tl tally
	var rounds []*roundStats
	var fp *fingerprint
	start := time.Now()
	for {
		r, err := b.round(ctx, st, &tl)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		f := r.cold.fingerprint()
		if fp == nil {
			fp = &f
		}
		tl.check(f == *fp, "fingerprint changed between rounds: %+v, then %+v", *fp, f)
		if time.Since(start) > b.budget {
			break
		}
	}
	tl.check(*fp == b.golden.Fingerprint, "fingerprint %+v, golden %+v", *fp, b.golden.Fingerprint)
	fj, err := json.Marshal(fp)
	if err != nil {
		return nil, err
	}
	fmt.Printf("fingerprint %s\n", fj)

	m := perLayer(b.w, rounds)
	fmt.Printf("layers sum_s %.6g + residual_s %.6g = e2e_w1_s %.6g (%d rounds)\n",
		m["campaign.layer_sum_s"].Value, m["campaign.engine_residual_s"].Value, m["campaign.e2e_w1_s"].Value, len(rounds))
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}, nil
}

// round is one traced round. The cold replay fills a fresh cache; the
// serve workload then replays again over the warm cache. Cold workloads
// time an untraced workers=1 operation; every workload then runs warm
// service jobs over the replay's cache, which are the serve workload's
// workers=1 operation.
func (b *bench) round(ctx context.Context, st *study, tl *tally) (*roundStats, error) {
	r := &roundStats{}
	gc0, busy0 := cpuSeconds()
	cold, cache, path, err := coldReplay(ctx, st, b.dir, &r.cold)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer cache.Close()
	if fi, err := os.Stat(path); err == nil {
		r.cacheBytes = fi.Size()
	}
	ref := b.golden.Digest
	tl.check(cold.digest == ref, "replay digest %s, golden %s", cold.digest, ref)

	if b.w.serve {
		warm, err := replay(ctx, st, cache, &r.warm)
		if err != nil {
			return nil, err
		}
		tl.check(warm.digest == ref && r.warm.hits == r.warm.gets,
			"warm replay: digest %s (want %s), %d of %d cache hits", warm.digest, ref, r.warm.hits, r.warm.gets)
	} else {
		r.gcFrac = gcFrac(gc0, busy0)
		met := telemetry.NewMetrics(telemetry.NewRegistry())
		t := time.Now()
		out, err := runStudy(ctx, st, b.dir, 1, met)
		r.e2e = time.Since(t)
		if err != nil {
			return nil, err
		}
		insts := met.SimInstsRetired.Value()
		tl.check(out.digest == ref && bytes.Equal(out.report, cold.report) &&
			out.launches == r.cold.launches && out.reps == r.cold.reps && insts == r.cold.insts,
			"campaign.Run vs replay: digest %s/%s, report identical %t, launches %d/%d, reps %d/%d, insts %d/%d",
			out.digest, ref, bytes.Equal(out.report, cold.report), out.launches, r.cold.launches,
			out.reps, r.cold.reps, insts, r.cold.insts)
	}

	srv, err := startServer(ctx, st, b.dir, cache)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	var first []byte
	var opTimes []float64
	var heap0, heap1 int64
	gc0, busy0 = cpuSeconds()
	for i := 0; i < jobsPerRound; i++ {
		t := time.Now()
		out, payload, err := srv.job(ctx, st.request(1), &r.jobs)
		opTimes = append(opTimes, time.Since(t).Seconds())
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = payload
		}
		tl.check(out.digest == ref && out.launches == 0 && bytes.Equal(payload, first),
			"warm job: digest %s (want %s), %d launches (want 0), payload identical across jobs: %t",
			out.digest, ref, out.launches, bytes.Equal(payload, first))
		r.nJobs++
		if i == 0 || i == jobsPerRound-1 {
			heap0 = heap1
			heap1 = liveHeap()
		}
	}
	r.retained = float64(heap1-heap0) / float64(jobsPerRound-1)
	if b.w.serve {
		r.gcFrac = gcFrac(gc0, busy0)
		r.e2e = time.Duration(median(opTimes) * float64(time.Second))
	}
	return r, nil
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// gcFrac is the share of busy CPU time the GC took since the readings.
func gcFrac(gc0, busy0 float64) float64 {
	gc, busy := cpuSeconds()
	if busy <= busy0 {
		return 0
	}
	return (gc - gc0) / (busy - busy0)
}
