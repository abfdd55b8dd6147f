// Package api defines the v1 wire contract of the microtools measurement
// service: the JSON request, status, event, and result shapes exchanged
// between microserved, the serviceclient package, and any third-party
// client speaking plain HTTP.
//
// The package is deliberately leaf-level: it imports nothing from
// internal/ (enforced by microlint L012), every exported struct field
// carries an explicit json tag, and every payload embeds SchemaVersion.
// Within v1 the contract evolves additively only — new optional fields
// may appear, existing fields never change name, type, or meaning.
// Breaking changes get a new package (api/v2) and a new URL prefix.
package api

// SchemaVersion identifies this revision of the v1 wire contract. Servers
// reject requests carrying a different non-empty version; clients treat a
// different version in responses as "newer fields may be present".
const SchemaVersion = "v1"

// Error codes returned in the Error.Code field. Machine-readable: clients
// branch on the code, humans read the message.
const (
	// CodeBadRequest rejects a malformed or unparseable submission.
	CodeBadRequest = "bad_request"
	// CodeOverQuota rejects a submission exceeding the tenant's
	// concurrent-job quota (HTTP 429; safe to retry after backoff).
	CodeOverQuota = "over_quota"
	// CodeNotFound reports an unknown job id.
	CodeNotFound = "not_found"
	// CodeDraining rejects a submission while the server shuts down
	// (HTTP 503; safe to retry against a replacement server).
	CodeDraining = "draining"
	// CodeInternal reports a server-side failure outside the campaign.
	CodeInternal = "internal"
	// CodeCampaignFailed reports a job whose campaign run failed; the
	// message carries the campaign error text.
	CodeCampaignFailed = "campaign_failed"
)

// Error is the wire shape of every non-2xx response body.
type Error struct {
	SchemaVersion string `json:"schema_version"`
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
}

// Error makes the wire shape usable as a Go error on the client side.
func (e *Error) Error() string { return "service: " + e.Code + ": " + e.Message }

// JobRequest is the POST /v1/jobs submission body. Spec is the XML kernel
// description verbatim; the remaining fields select generation and
// campaign options. Zero values mean "server default". The numeric
// fields (here and in AdaptivePlan) are never negative: a submission
// with a negative one is rejected with CodeBadRequest, and the message
// names the field by its JSON name (e.g. "negative retries: ...";
// AdaptivePlan fields as "adaptive.min_reps").
type JobRequest struct {
	SchemaVersion string `json:"schema_version"`
	// Tenant scopes admission control; empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Name labels the job in telemetry; empty derives one from the id.
	Name string `json:"name,omitempty"`
	// Spec is the XML kernel description to generate and measure.
	Spec string `json:"spec"`
	// Seed selects the deterministic generation seed.
	Seed int64 `json:"seed,omitempty"`
	// Machine names the simulated machine model (e.g. "nehalem-dual/8").
	Machine string `json:"machine,omitempty"`
	// ArrayBytes sizes each backing array (0 = server default).
	ArrayBytes int `json:"array_bytes,omitempty"`
	// OuterReps and InnerReps select the measurement repetition counts.
	OuterReps int `json:"outer_reps,omitempty"`
	InnerReps int `json:"inner_reps,omitempty"`
	// Workers sizes the campaign launch pool (0 = server default).
	Workers int `json:"workers,omitempty"`
	// FailFast cancels the campaign on the first variant failure.
	FailFast bool `json:"fail_fast,omitempty"`
	// Retries is the per-variant attempt budget for transient faults.
	Retries int `json:"retries,omitempty"`
	// RetryBackoffMS is the base backoff between attempts in milliseconds.
	RetryBackoffMS int64 `json:"retry_backoff_ms,omitempty"`
	// VariantDeadlineMS bounds each variant's total measurement time.
	VariantDeadlineMS int64 `json:"variant_deadline_ms,omitempty"`
	// Quarantine stops retrying a variant after n consecutive failures.
	Quarantine int `json:"quarantine,omitempty"`
	// CheckBounds asserts the static-bound oracle on every measurement.
	CheckBounds bool `json:"check_bounds,omitempty"`
	// Adaptive, when non-nil, arms adaptive repetition planning: stable
	// variants stop early and the saved budget tops up noisy ones.
	Adaptive *AdaptivePlan `json:"adaptive,omitempty"`
}

// AdaptivePlan selects adaptive repetition planning for a job. Zero
// fields take server defaults (min 2 reps, max = the fixed outer budget,
// target RCIW 0.05, stable run length 1); negative ones are rejected.
type AdaptivePlan struct {
	// MinReps is the repetition floor before the stop rule may fire
	// (never below 2 — one repetition carries no stability signal).
	MinReps int `json:"min_reps,omitempty"`
	// MaxReps is the per-variant repetition ceiling (0 = the fixed
	// outer-repetition budget).
	MaxReps int `json:"max_reps,omitempty"`
	// TargetRCIW is the relative 95% CI width at which mean/median runs
	// stop (0 = server default 0.05).
	TargetRCIW float64 `json:"target_rciw,omitempty"`
	// StableRuns is the no-improvement run length at which min/max runs
	// stop (0 = server default 1).
	StableRuns int `json:"stable_runs,omitempty"`
}

// Job states reported in JobStatus.State.
const (
	// StateQueued: accepted, waiting for a worker slot.
	StateQueued = "queued"
	// StateRunning: the campaign is executing.
	StateRunning = "running"
	// StateDone: finished successfully; the result is available.
	StateDone = "done"
	// StateFailed: finished with a campaign error; partial results may
	// be available.
	StateFailed = "failed"
	// StateRejected: removed from the queue without running (drain).
	StateRejected = "rejected"
	// StateInterrupted: stopped mid-run by a drain; resumes (cache-warm)
	// when the server restarts over the same job store.
	StateInterrupted = "interrupted"
)

// JobStatus describes one job's position in its lifecycle. It is returned
// on submission (202), embedded in JobResult, and carried by every
// VariantEvent.
type JobStatus struct {
	SchemaVersion string `json:"schema_version"`
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// Tenant is the admission-control scope the job was accepted under.
	Tenant string `json:"tenant"`
	// Name is the telemetry label.
	Name string `json:"name"`
	// State is one of the State* constants.
	State string `json:"state"`
	// SubmittedUnixMS/StartedUnixMS/FinishedUnixMS stamp the lifecycle
	// transitions (0 = not reached).
	SubmittedUnixMS int64 `json:"submitted_unix_ms"`
	StartedUnixMS   int64 `json:"started_unix_ms,omitempty"`
	FinishedUnixMS  int64 `json:"finished_unix_ms,omitempty"`
	// Progress is the latest campaign progress snapshot.
	Progress Progress `json:"progress"`
	// Error carries the failure for StateFailed/StateRejected.
	Error *Error `json:"error,omitempty"`
}

// Progress is the live campaign progress snapshot inside JobStatus and
// VariantEvent.
type Progress struct {
	// Done counts variants with a final result (hits + launches + fails).
	Done int `json:"done"`
	// Emitted counts variants produced by the generator so far.
	Emitted int `json:"emitted"`
	// Generating reports whether the generator is still producing.
	Generating bool `json:"generating"`
	// CacheHits and Failed break down Done.
	CacheHits int `json:"cache_hits"`
	Failed    int `json:"failed"`
	// Launches and Retries are the engine's own counts of real launcher
	// runs and transient-fault re-attempts so far (a retried variant
	// launches more than once, so they do not partition Done). On the
	// job's last progress frame and its terminal status they equal
	// JobResult.Serving's launches and retries.
	Launches int `json:"launches"`
	Retries  int `json:"retries"`
}

// Event types carried in VariantEvent.Type (also the SSE event name).
const (
	// EventQueued opens every job stream.
	EventQueued = "queued"
	// EventStarted marks the campaign launch.
	EventStarted = "started"
	// EventProgress reports a variant completing.
	EventProgress = "progress"
	// EventEnd closes the stream with the terminal JobStatus.
	EventEnd = "end"
)

// VariantEvent is one frame of the GET /v1/jobs/{id}/events SSE stream.
// Seq starts at 1 and increases strictly; a client reconnecting with
// Last-Event-ID (or ?after=) resumes from the first unseen frame.
type VariantEvent struct {
	SchemaVersion string `json:"schema_version"`
	// JobID names the job the event belongs to.
	JobID string `json:"job_id"`
	// Seq is the strictly increasing event id (also the SSE id line).
	Seq int64 `json:"seq"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Status is the job status at the time of the event.
	Status JobStatus `json:"status"`
}

// Stability summarizes a variant's measurement noise (mirrors the
// repository's stability statistics: sample count, mean, coefficient of
// variation, relative 95% CI width with Student-t small-sample critical
// values). A degenerate RCIW — fewer than two repetitions, or a zero
// mean — is +Inf in Go and null on the wire (see MarshalJSON); it was
// reported as 0 by servers predating the small-sample statistics fix.
type Stability struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	CV   float64 `json:"cv"`
	RCIW float64 `json:"rciw"`
	// TargetRCIW echoes the adaptive plan's stop threshold (0 unless the
	// job ran adaptively).
	TargetRCIW float64 `json:"target_rciw,omitempty"`
	// MissedTarget reports that RCIW still exceeded TargetRCIW after the
	// adaptive top-up pass (absent unless the job ran adaptively).
	MissedTarget bool `json:"missed_target,omitempty"`
	// Reps is the realized adaptive repetition count (0 unless the job
	// ran adaptively; equals N for fresh measurements).
	Reps int `json:"reps,omitempty"`
	// StopReason is the adaptive stop rule that ended the run ("target",
	// "stable", "budget"; absent unless the job ran adaptively).
	StopReason string `json:"stop_reason,omitempty"`
}

// VariantResult is one measured variant inside CampaignResult. It is a
// pure function of the spec and the options: serving facts that vary
// between a cold and a cache-warm run (hit/miss, attempt counts) live in
// ServingStats instead, so the variant payload stays bit-identical across
// tenants and re-runs.
type VariantResult struct {
	// Index is the generation-order position.
	Index int `json:"index"`
	// Name is the variant's kernel name.
	Name string `json:"name"`
	// Value and Unit carry the headline measurement (e.g. cycles).
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// ValuePerElement normalizes Value by elements processed.
	ValuePerElement float64 `json:"value_per_element"`
	// Iterations is the measured loop trip count.
	Iterations int64 `json:"iterations"`
	// StaticBoundValue is the dataflow lower bound for the headline
	// value (0 = not computed).
	StaticBoundValue float64 `json:"static_bound_value,omitempty"`
	// Stability summarizes measurement noise.
	Stability Stability `json:"stability"`
	// Error carries the per-variant failure text ("" = success).
	Error string `json:"error,omitempty"`
}

// CampaignResult is the measurement outcome of a finished job — free of
// job identity (id, tenant, timestamps) and of serving accounting
// (cache hits, retries), so two jobs over the same spec and options
// serialize to identical bytes regardless of who submitted them, when,
// or how warm the cache was.
type CampaignResult struct {
	// Emitted counts generated variants.
	Emitted int `json:"emitted"`
	// Variants lists the per-variant results in generation order.
	Variants []VariantResult `json:"variants"`
}

// ServingStats is the per-job serving accounting: how the shared cache,
// retries, and quarantine behaved for this particular run. Unlike
// CampaignResult it is expected to differ between a cold and a warm run
// of the same spec.
type ServingStats struct {
	// Launches counts real measurements (cache misses).
	Launches int `json:"launches"`
	// CacheHits counts variants served from the shared cache.
	CacheHits int `json:"cache_hits"`
	// CacheHitRatio is CacheHits over emitted variants (1.0 = fully
	// cache-warm).
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// Failures, Retries, Quarantined, KeyErrors mirror the campaign
	// resilience counters.
	Failures    int `json:"failures"`
	Retries     int `json:"retries"`
	Quarantined int `json:"quarantined"`
	KeyErrors   int `json:"key_errors"`
	// RepsSaved, RepsTopUp and RepsExecuted mirror the campaign's
	// adaptive-repetition accounting (absent unless the job ran
	// adaptively): budget left unspent by early stops, repetitions
	// granted back to noisy variants, and repetitions this run's real
	// launches executed.
	RepsSaved    int `json:"reps_saved,omitempty"`
	RepsTopUp    int `json:"reps_topup,omitempty"`
	RepsExecuted int `json:"reps_executed,omitempty"`
}

// JobResult is the GET /v1/jobs/{id} response: the job's lifecycle
// status, the run's serving accounting, and — once finished — the
// campaign outcome. Campaign is identity- and accounting-free so clients
// can compare result payloads across jobs byte for byte.
type JobResult struct {
	SchemaVersion string `json:"schema_version"`
	// Job is the lifecycle status (includes identity and timestamps).
	Job JobStatus `json:"job"`
	// Serving is this run's cache/retry accounting (nil until finished).
	Serving *ServingStats `json:"serving,omitempty"`
	// Campaign is the measurement outcome (nil until the job finishes).
	Campaign *CampaignResult `json:"campaign,omitempty"`
}
