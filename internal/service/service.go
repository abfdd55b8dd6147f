// Package service is the measurement-as-a-service daemon behind
// cmd/microserved: clients POST XML kernel specs to /v1/jobs, the daemon
// runs them through the campaign engine on a bounded worker pool with
// per-tenant admission control, and every job shares one content-addressed
// measurement cache — a second tenant submitting an identical spec
// completes with zero relaunches. Job lifecycle is persisted to an
// append-only JSONL ledger so a drained daemon resumes interrupted jobs
// (cache-warm) on restart, and per-job progress streams over SSE with
// strictly increasing, reconnect-safe event ids.
package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	api "microtools/api/v1"
	"microtools/internal/campaign"
	"microtools/internal/core"
	"microtools/internal/launcher"
	"microtools/internal/telemetry"
)

// Options configures the daemon.
type Options struct {
	// MaxConcurrentJobs sizes the server-side campaign worker pool
	// (<= 0 means 2). Each running job additionally fans out over its
	// own campaign launch pool, so keep this small.
	MaxConcurrentJobs int
	// MaxJobsPerTenant bounds one tenant's queued+running jobs; a
	// submission beyond it is rejected with over_quota / HTTP 429
	// (<= 0 means 4).
	MaxJobsPerTenant int
	// Cache is the measurement cache shared by every job (nil runs
	// uncached — every submission relaunches).
	Cache *campaign.Cache
	// StorePath is the append-only JSONL job ledger ("" = memory only:
	// no restart resume).
	StorePath string
	// Launch is the base measurement configuration; per-request fields
	// (machine, array size, repetitions, adaptive plan) override it, and
	// every job records into the daemon's instruments (Registry) in place
	// of Launch.Metrics. The zero value means launcher.DefaultOptions().
	Launch launcher.Options
	// Registry, Tracker back the mounted telemetry endpoints and the
	// service metrics (nil creates private ones).
	Registry *telemetry.Registry
	Tracker  *telemetry.Tracker
	// EnablePprof mounts net/http/pprof on the daemon mux.
	EnablePprof bool
}

// job is one submission's full server-side state.
type job struct {
	req    api.JobRequest
	events *eventLog

	mu     sync.Mutex
	status api.JobStatus
	result *api.JobResult
	cancel context.CancelFunc
}

// setStatus mutates the job status under the lock and returns a copy.
func (j *job) setStatus(mut func(*api.JobStatus)) api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	mut(&j.status)
	return j.status
}

// snapshot returns the current status copy.
func (j *job) snapshot() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Daemon is the measurement service: admission control, the job queue and
// worker pool, the shared cache, the ledger, and the HTTP surface.
type Daemon struct {
	opts    Options
	reg     *telemetry.Registry
	tracker *telemetry.Tracker
	metrics *telemetry.Metrics
	store   *store
	baseCtx context.Context

	// Service instruments (exposed at /metrics as
	// microtools_service_jobs_total and friends).
	jobsTotal     *telemetry.Counter
	jobsCompleted *telemetry.Counter
	jobsFailed    *telemetry.Counter
	jobsRejected  *telemetry.Counter
	jobsRunning   *telemetry.Gauge
	jobsQueued    *telemetry.Gauge
	storeErrors   *telemetry.Counter

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job
	jobs     map[string]*job
	tenants  map[string]int
	nextID   int64
	draining bool
	closed   bool
	wg       sync.WaitGroup

	// HTTP listener state (Start/Addr/CloseHTTP in http.go).
	ln   net.Listener
	http *http.Server

	// runFn substitutes the campaign invocation in tests (must return a
	// non-nil Result, like campaign.Run). nil means the real engine.
	runFn func(context.Context, *job) (*campaign.Result, error)
}

// New builds the daemon, replays the job ledger (finished jobs become
// queryable again, unfinished ones re-enqueue and re-run cache-warm), and
// starts the worker pool. ctx bounds the daemon's lifetime: cancellation
// aborts running campaigns without the drain protocol's bookkeeping —
// prefer Drain for orderly shutdown.
func New(ctx context.Context, opts Options) (*Daemon, error) {
	if opts.MaxConcurrentJobs <= 0 {
		opts.MaxConcurrentJobs = 2
	}
	if opts.MaxJobsPerTenant <= 0 {
		opts.MaxJobsPerTenant = 4
	}
	if opts.Launch.MachineName == "" {
		opts.Launch = launcher.DefaultOptions()
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	tracker := opts.Tracker
	if tracker == nil {
		tracker = telemetry.NewTracker()
	}
	d := &Daemon{
		opts:    opts,
		reg:     reg,
		tracker: tracker,
		metrics: telemetry.NewMetrics(reg),
		baseCtx: ctx,
		jobs:    map[string]*job{},
		tenants: map[string]int{},

		jobsTotal:     reg.Counter("service.jobs.total"),
		jobsCompleted: reg.Counter("service.jobs.completed"),
		jobsFailed:    reg.Counter("service.jobs.failed"),
		jobsRejected:  reg.Counter("service.jobs.rejected"),
		jobsRunning:   reg.Gauge("service.jobs.running"),
		jobsQueued:    reg.Gauge("service.jobs.queued"),
		storeErrors:   reg.Counter("service.store.errors"),
	}
	d.cond = sync.NewCond(&d.mu)

	finished, pending, corrupt, err := replayStore(opts.StorePath)
	if err != nil {
		return nil, err
	}
	d.storeErrors.Add(int64(corrupt))
	for _, rec := range finished {
		j := &job{req: requestOf(rec), status: rec.Job, result: rec.Result, events: &eventLog{}}
		// The stream of a finished job replays its terminal frame only.
		j.events.append(kindEnd, rec.Job)
		j.events.close()
		d.jobs[rec.Job.ID] = j
		d.noteID(rec.Job.ID)
	}
	d.store, err = openStore(opts.StorePath)
	if err != nil {
		return nil, err
	}
	for _, rec := range pending {
		j := &job{req: requestOf(rec), status: rec.Job, events: &eventLog{}}
		j.status.State = api.StateQueued
		j.status.Progress = api.Progress{}
		d.jobs[rec.Job.ID] = j
		d.noteID(rec.Job.ID)
		d.tenants[j.status.Tenant]++
		d.queue = append(d.queue, j)
		j.events.append(kindQueued, j.status)
	}
	d.jobsQueued.Set(int64(len(d.queue)))

	for i := 0; i < opts.MaxConcurrentJobs; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d, nil
}

// requestOf recovers the stored request (older ledgers may lack it).
func requestOf(rec storeRecord) api.JobRequest {
	if rec.Request != nil {
		return *rec.Request
	}
	return api.JobRequest{}
}

// noteID advances the id counter past a replayed job id, so restarted
// daemons never reissue an id the ledger already used.
func (d *Daemon) noteID(id string) {
	if n, err := strconv.ParseInt(strings.TrimPrefix(id, "j-"), 10, 64); err == nil && n > d.nextID {
		d.nextID = n
	}
}

// Submit runs admission control and enqueues the job. The returned
// api.Error is nil on acceptance; otherwise its Code selects the HTTP
// status (bad_request, over_quota, draining).
func (d *Daemon) Submit(req api.JobRequest) (api.JobStatus, *api.Error) {
	if req.SchemaVersion != "" && req.SchemaVersion != api.SchemaVersion {
		return api.JobStatus{}, &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeBadRequest,
			Message: fmt.Sprintf("unsupported schema_version %q (server speaks %s)", req.SchemaVersion, api.SchemaVersion)}
	}
	if strings.TrimSpace(req.Spec) == "" {
		return api.JobStatus{}, &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeBadRequest,
			Message: "empty spec: submit the XML kernel description in the spec field"}
	}
	if field := negativeField(req); field != "" {
		return api.JobStatus{}, &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeBadRequest,
			Message: fmt.Sprintf("negative %s: counts, budgets and targets are >= 0 (0 selects the server default)", field)}
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}

	d.mu.Lock()
	if d.draining || d.closed {
		d.mu.Unlock()
		return api.JobStatus{}, &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeDraining,
			Message: "server is draining; resubmit to a live replica"}
	}
	if d.tenants[tenant] >= d.opts.MaxJobsPerTenant {
		d.mu.Unlock()
		d.jobsRejected.Inc()
		return api.JobStatus{}, &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeOverQuota,
			Message: fmt.Sprintf("tenant %q has %d jobs in flight (limit %d)", tenant, d.opts.MaxJobsPerTenant, d.opts.MaxJobsPerTenant)}
	}
	d.nextID++
	id := fmt.Sprintf("j-%d", d.nextID)
	name := req.Name
	if name == "" {
		name = tenant + "/" + id
	}
	j := &job{
		req:    req,
		events: &eventLog{},
		status: api.JobStatus{
			SchemaVersion:   api.SchemaVersion,
			ID:              id,
			Tenant:          tenant,
			Name:            name,
			State:           api.StateQueued,
			SubmittedUnixMS: telemetry.Now().UnixMilli(),
		},
	}
	d.jobs[id] = j
	d.tenants[tenant]++
	d.queue = append(d.queue, j)
	d.jobsQueued.Set(int64(len(d.queue)))
	status := j.status
	// The queued event and the submit record land before a worker can
	// take the job: after them, a fast job's started event would take seq
	// 1 and its end record could precede its submit record, which a
	// restart would read as a job still to run.
	j.events.append(kindQueued, status)
	serr := d.store.append(storeRecord{Kind: "submit", Job: status, Request: &req})
	d.cond.Signal()
	d.mu.Unlock()

	d.jobsTotal.Inc()
	if serr != nil {
		d.storeErrors.Inc()
	}
	return status, nil
}

// negativeField names the first request number that is negative, or
// returns "". Zero means "server default" for each of them; a negative
// value has no meaning, and campaignOptions would otherwise ignore it or
// hand it on to the engine.
func negativeField(req api.JobRequest) string {
	a := req.Adaptive
	if a == nil {
		a = &api.AdaptivePlan{}
	}
	switch {
	case req.ArrayBytes < 0:
		return "array_bytes"
	case req.OuterReps < 0:
		return "outer_reps"
	case req.InnerReps < 0:
		return "inner_reps"
	case req.Workers < 0:
		return "workers"
	case req.Retries < 0:
		return "retries"
	case req.RetryBackoffMS < 0:
		return "retry_backoff_ms"
	case req.VariantDeadlineMS < 0:
		return "variant_deadline_ms"
	case req.Quarantine < 0:
		return "quarantine"
	case a.MinReps < 0:
		return "adaptive.min_reps"
	case a.MaxReps < 0:
		return "adaptive.max_reps"
	case a.TargetRCIW < 0:
		return "adaptive.target_rciw"
	case a.StableRuns < 0:
		return "adaptive.stable_runs"
	}
	return ""
}

// Job returns a submitted job's current status.
func (d *Daemon) Job(id string) (api.JobStatus, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return api.JobStatus{}, false
	}
	return j.snapshot(), true
}

// Result returns the job's result document: status always, serving stats
// and campaign payload once finished.
func (d *Daemon) Result(id string) (api.JobResult, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return api.JobResult{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result != nil {
		res := *j.result
		res.Job = j.status
		return res, true
	}
	return api.JobResult{SchemaVersion: api.SchemaVersion, Job: j.status}, true
}

// worker is one slot of the campaign pool.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.draining && !d.closed {
			d.cond.Wait()
		}
		if d.closed || d.draining {
			d.mu.Unlock()
			return
		}
		j := d.queue[0]
		d.queue = d.queue[1:]
		d.jobsQueued.Set(int64(len(d.queue)))
		d.jobsRunning.Add(1)
		d.mu.Unlock()

		d.runJob(j)
	}
}

// runJob executes one job's campaign and records its terminal state. It
// settles the job gauges, counters and tenant slot before the terminal
// state becomes visible (status, result, end event), so a client that saw
// the job end never scrapes it as still running or finds its slot taken.
func (d *Daemon) runJob(j *job) {
	ctx, cancel := context.WithCancel(d.baseCtx)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()

	status := j.setStatus(func(s *api.JobStatus) {
		s.State = api.StateRunning
		s.StartedUnixMS = telemetry.Now().UnixMilli()
	})
	j.events.append(kindStarted, status)

	run := d.runFn
	if run == nil {
		run = func(ctx context.Context, j *job) (*campaign.Result, error) {
			return campaign.Run(ctx, strings.NewReader(j.req.Spec),
				core.GenerateOptions{Seed: j.req.Seed}, d.campaignOptions(j))
		}
	}
	res, err := run(ctx, j)

	j.mu.Lock()
	j.cancel = nil
	j.mu.Unlock()

	if err != nil && errors.Is(err, context.Canceled) {
		// Drain (or daemon-context cancellation) interrupted the run.
		// Completed variants are already checkpointed in the shared
		// cache; no terminal ledger record is written, so the next
		// daemon over this store re-enqueues the job and the re-run is
		// cache-warm. Tenant accounting is NOT released: the job is
		// still this tenant's until a terminal state.
		d.jobsRunning.Add(-1)
		status = j.setStatus(func(s *api.JobStatus) { s.State = api.StateInterrupted })
		j.events.append(kindEnd, status)
		j.events.close()
		return
	}

	// The campaign's last observer update already left the settled totals
	// in s.Progress.
	result := buildResult(res, err)
	d.jobsRunning.Add(-1)
	if err != nil {
		d.jobsFailed.Inc()
	} else {
		d.jobsCompleted.Inc()
	}
	d.release(status.Tenant)
	status = j.setStatus(func(s *api.JobStatus) {
		s.FinishedUnixMS = telemetry.Now().UnixMilli()
		if err != nil {
			s.State = api.StateFailed
			s.Error = apiError(err)
		} else {
			s.State = api.StateDone
		}
	})
	result.Job = status
	j.mu.Lock()
	j.result = &result
	j.mu.Unlock()

	if serr := d.store.append(storeRecord{Kind: "end", Job: status, Result: &result}); serr != nil {
		d.storeErrors.Inc()
	}
	j.events.append(kindEnd, status)
	j.events.close()
}

// release returns one tenant admission slot.
func (d *Daemon) release(tenant string) {
	d.mu.Lock()
	if d.tenants[tenant] > 0 {
		d.tenants[tenant]--
	}
	d.mu.Unlock()
}

// campaignOptions maps the wire request onto engine options: the shared
// cache, a live campaign on the daemon's tracker named after the job, and
// an observer that feeds the job's SSE stream.
func (d *Daemon) campaignOptions(j *job) campaign.Options {
	status := j.snapshot()
	req := j.req
	launch := d.opts.Launch
	if req.Machine != "" {
		launch.MachineName = req.Machine
	}
	if req.ArrayBytes > 0 {
		launch.ArrayBytes = int64(req.ArrayBytes)
	}
	if req.OuterReps > 0 {
		launch.OuterReps = req.OuterReps
	}
	if req.InnerReps > 0 {
		launch.InnerReps = req.InnerReps
	}
	launch.Metrics = d.metrics
	if req.Adaptive != nil {
		launch.Adaptive = &launcher.Plan{
			MinReps:    req.Adaptive.MinReps,
			MaxReps:    req.Adaptive.MaxReps,
			TargetRCIW: req.Adaptive.TargetRCIW,
			StableRuns: req.Adaptive.StableRuns,
		}
	}
	opts := campaign.Options{
		Launch:      launch,
		Workers:     req.Workers,
		FailFast:    req.FailFast,
		Cache:       d.opts.Cache,
		Quarantine:  req.Quarantine,
		CheckBounds: req.CheckBounds,
		Observers: []campaign.Observer{d.tracker.Begin(status.Name), campaign.UpdateFunc(func(u telemetry.CampaignUpdate) {
			st := j.setStatus(func(s *api.JobStatus) { s.Progress = apiProgress(u) })
			j.events.append(kindProgress, st)
		})},
	}
	if req.Retries > 0 {
		opts.Retry = campaign.RetryPolicy{
			MaxAttempts: req.Retries + 1,
			Backoff:     time.Duration(req.RetryBackoffMS) * time.Millisecond,
			Seed:        req.Seed,
		}
	}
	if req.VariantDeadlineMS > 0 {
		opts.VariantDeadline = time.Duration(req.VariantDeadlineMS) * time.Millisecond
	}
	return opts
}

// apiProgress maps one engine update onto the wire shape.
func apiProgress(u telemetry.CampaignUpdate) api.Progress {
	return api.Progress{
		Done:       u.Done,
		Emitted:    u.Emitted,
		Generating: u.Generating,
		CacheHits:  u.CacheHits,
		Failed:     u.Failed,
		Launches:   u.Launches,
		Retries:    u.Retries,
	}
}

// apiError maps a campaign error onto the wire taxonomy: setup failures
// and empty sweeps are the client's spec problem, everything else is a
// campaign failure.
func apiError(err error) *api.Error {
	code := api.CodeCampaignFailed
	var se *campaign.SetupError
	if errors.As(err, &se) || errors.Is(err, campaign.ErrNoVariants) {
		code = api.CodeBadRequest
	}
	return &api.Error{SchemaVersion: api.SchemaVersion, Code: code, Message: err.Error()}
}

// buildResult maps the engine result onto the wire document. The Campaign
// section is a pure function of spec and options (serving facts stay in
// Serving), which is what makes identical submissions byte-comparable.
func buildResult(res *campaign.Result, err error) api.JobResult {
	emitted := res.Emitted
	out := api.JobResult{
		SchemaVersion: api.SchemaVersion,
		Serving: &api.ServingStats{
			Launches:     res.Launches,
			CacheHits:    res.CacheHits,
			Failures:     res.Failures,
			Retries:      res.Retries,
			Quarantined:  res.Quarantined,
			KeyErrors:    res.KeyErrors,
			RepsSaved:    res.RepsSaved,
			RepsTopUp:    res.RepsTopUp,
			RepsExecuted: res.RepsExecuted,
		},
		Campaign: &api.CampaignResult{Emitted: emitted, Variants: make([]api.VariantResult, 0, len(res.Results))},
	}
	if emitted > 0 {
		out.Serving.CacheHitRatio = float64(res.CacheHits) / float64(emitted)
	}
	if err != nil && res.Launches == 0 && res.CacheHits == 0 && len(res.Results) == 0 {
		// Setup failures have no campaign payload worth comparing.
		out.Campaign = nil
	}
	if out.Campaign == nil {
		return out
	}
	for _, vr := range res.Results {
		v := api.VariantResult{
			Index:            vr.Index,
			Name:             vr.Name,
			StaticBoundValue: vr.StaticBound,
			Stability: api.Stability{
				N: vr.Stability.N, Mean: vr.Stability.Mean,
				CV: vr.Stability.CV, RCIW: vr.Stability.RCIW,
			},
		}
		if vr.Measurement != nil {
			v.Value = vr.Measurement.Value
			v.Unit = vr.Measurement.Unit.String()
			v.ValuePerElement = vr.Measurement.ValuePerElement
			v.Iterations = int64(vr.Measurement.Iterations)
			if a := vr.Measurement.Adaptive; a != nil {
				v.Stability.TargetRCIW = a.Plan.TargetRCIW
				v.Stability.MissedTarget = a.RCIW > a.Plan.TargetRCIW
				v.Stability.Reps = a.Reps
				v.Stability.StopReason = a.StopReason
			}
		}
		if vr.Err != nil {
			v.Error = vr.Err.Error()
		}
		out.Campaign.Variants = append(out.Campaign.Variants, v)
	}
	return out
}

// Drain performs the SIGTERM protocol: stop admitting, reject every
// queued job (terminal, ledgered), cancel running jobs (interrupted, NOT
// ledgered as terminal — they resume cache-warm on restart), and wait for
// the worker pool to exit. ctx bounds the wait.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	rejected := d.queue
	d.queue = nil
	d.jobsQueued.Set(0)
	var cancels []context.CancelFunc
	for _, j := range d.jobs {
		j.mu.Lock()
		if j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	d.cond.Broadcast()
	d.mu.Unlock()

	for _, j := range rejected {
		status := j.setStatus(func(s *api.JobStatus) {
			s.State = api.StateRejected
			s.FinishedUnixMS = telemetry.Now().UnixMilli()
			s.Error = &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeDraining,
				Message: "server drained before the job started; resubmit"}
		})
		d.jobsRejected.Inc()
		d.release(status.Tenant)
		if err := d.store.append(storeRecord{Kind: "end", Job: status}); err != nil {
			d.storeErrors.Inc()
		}
		j.events.append(kindEnd, status)
		j.events.close()
	}
	for _, cancel := range cancels {
		cancel()
	}

	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-done:
		return nil
	}
}

// Close releases the ledger and stops idle workers. Call Drain first for
// orderly shutdown; Close alone abandons the queue in memory.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
	return d.store.close()
}
