package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	api "microtools/api/v1"
	"microtools/internal/campaign"
	"microtools/internal/jsonl"
	"microtools/internal/launcher"
	"microtools/serviceclient"
)

// sweepSpec generates four measurable variants (unroll 1..4), mirroring
// the campaign package's test spec.
const sweepSpec = `
<kernel name="service_k">
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>4</max></register>
  </instruction>
  <unrolling><min>1</min><max>4</max></unrolling>
  <induction><register><name>r1</name></register><increment>4</increment><offset>4</offset></induction>
  <induction>
    <register><name>r0</name></register>
    <increment>-1</increment>
    <linked><register><name>r1</name></register></linked>
    <last_induction/>
  </induction>
  <induction><register><phyName>%eax</phyName></register><increment>1</increment><not_affected_unroll/></induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`

// wideSpec is sweepSpec with a 16-wide unroll range — enough work that a
// drain lands mid-campaign.
var wideSpec = strings.Replace(sweepSpec, "<max>4</max></unrolling>", "<max>16</max></unrolling>", 1)

func quickLaunch() launcher.Options {
	opts := launcher.DefaultOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.ArrayBytes = 1 << 12
	opts.InnerReps = 1
	opts.OuterReps = 1
	opts.MaxInstructions = 5_000
	return opts
}

// startDaemon brings up a daemon on an ephemeral port and returns it with
// a client pointed at it.
func startDaemon(t *testing.T, opts Options) (*Daemon, *serviceclient.Client) {
	t.Helper()
	if opts.Launch.MachineName == "" {
		opts.Launch = quickLaunch()
	}
	d, err := New(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = d.CloseHTTP()
		_ = d.Close()
	})
	return d, &serviceclient.Client{Base: "http://" + addr}
}

func submitWait(t *testing.T, c *serviceclient.Client, req api.JobRequest) api.JobResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	status, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res, err := c.WaitResult(ctx, status.ID)
	if err != nil {
		t.Fatalf("wait %s: %v", status.ID, err)
	}
	return res
}

// TestTwoTenantsBitIdenticalResults is the tentpole acceptance test: the
// same spec from two tenants completes with byte-identical campaign
// payloads, and the second submission performs zero launches.
func TestTwoTenantsBitIdenticalResults(t *testing.T) {
	_, client := startDaemon(t, Options{Cache: campaign.NewMemoryCache()})

	cold := submitWait(t, client, api.JobRequest{Tenant: "team-a", Spec: sweepSpec})
	warm := submitWait(t, client, api.JobRequest{Tenant: "team-b", Spec: sweepSpec})

	if cold.Job.State != api.StateDone || warm.Job.State != api.StateDone {
		t.Fatalf("states %s/%s, want done/done", cold.Job.State, warm.Job.State)
	}
	if cold.Serving.Launches != 4 || cold.Serving.CacheHits != 0 {
		t.Errorf("cold run launches=%d hits=%d, want 4/0", cold.Serving.Launches, cold.Serving.CacheHits)
	}
	if warm.Serving.Launches != 0 || warm.Serving.CacheHits != 4 || warm.Serving.CacheHitRatio != 1 {
		t.Errorf("warm run launches=%d hits=%d ratio=%v, want 0/4/1",
			warm.Serving.Launches, warm.Serving.CacheHits, warm.Serving.CacheHitRatio)
	}
	// The terminal progress block is the engine's settled accounting.
	for _, res := range []api.JobResult{cold, warm} {
		p := res.Job.Progress
		if p.Done != 4 || p.Emitted != 4 || p.Generating || p.CacheHits != res.Serving.CacheHits ||
			p.Launches != res.Serving.Launches || p.Retries != res.Serving.Retries {
			t.Errorf("terminal progress %+v disagrees with serving stats %+v", p, *res.Serving)
		}
	}
	a, err := json.Marshal(cold.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(warm.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("campaign payloads differ across tenants:\ncold: %s\nwarm: %s", a, b)
	}
	if len(cold.Campaign.Variants) != 4 || cold.Campaign.Variants[0].Value <= 0 {
		t.Errorf("campaign payload incomplete: %s", a)
	}
}

// TestSSEIdsStrictlyIncreaseAcrossReconnect drops the event stream
// mid-job and reconnects with Last-Event-ID: the combined sequence must
// be gapless and strictly increasing.
func TestSSEIdsStrictlyIncreaseAcrossReconnect(t *testing.T) {
	_, client := startDaemon(t, Options{Cache: campaign.NewMemoryCache()})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	status, err := client.Submit(ctx, api.JobRequest{Tenant: "team-a", Spec: sweepSpec})
	if err != nil {
		t.Fatal(err)
	}

	// First connection: read until the stream has produced at least two
	// events, then sever it by canceling the request context.
	firstCtx, firstCancel := context.WithCancel(ctx)
	var seqs []int64
	errSevered := errors.New("severed")
	err = client.Stream(firstCtx, status.ID, func(ev api.VariantEvent) error {
		seqs = append(seqs, ev.Seq)
		if len(seqs) >= 2 {
			return errSevered
		}
		return nil
	})
	firstCancel()
	if err != nil && !errors.Is(err, errSevered) {
		t.Fatalf("first stream: %v", err)
	}
	if len(seqs) < 2 {
		t.Fatalf("first stream saw %d events, want >= 2", len(seqs))
	}

	// Reconnect from the last seen id (a fresh client forgets nothing:
	// resume state is carried by the protocol, not the client).
	resume := &serviceclient.Client{Base: client.Base}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		client.Base+"/v1/jobs/"+status.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", seqs[len(seqs)-1]))
	_ = resume // the raw request exercises the wire-level resume path
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Parse SSE frames by hand: every data line must continue the
	// sequence with no repeats and no gaps.
	var events []api.VariantEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var ev api.VariantEvent
			if json.Unmarshal([]byte(data), &ev) == nil {
				events = append(events, ev)
			}
		}
	}
	if len(events) == 0 {
		t.Fatal("reconnect replayed no events")
	}
	all := append(append([]int64{}, seqs...), seqsOf(events)...)
	for i := 1; i < len(all); i++ {
		if all[i] != all[i-1]+1 {
			t.Fatalf("event ids not gapless across reconnect: %v", all)
		}
	}
	last := events[len(events)-1]
	if last.Type != api.EventEnd || last.Status.State != api.StateDone {
		t.Errorf("stream did not close with a done end event: %+v", last)
	}
}

func seqsOf(evs []api.VariantEvent) []int64 {
	out := make([]int64, len(evs))
	for i, ev := range evs {
		out[i] = ev.Seq
	}
	return out
}

// TestTenantQuota pins admission control: the tenant limit rejects with
// over_quota (HTTP 429 via the handler) while other tenants stay
// admissible, and slots free up when jobs finish.
func TestTenantQuota(t *testing.T) {
	d, client := startDaemon(t, Options{Cache: campaign.NewMemoryCache(), MaxJobsPerTenant: 1, MaxConcurrentJobs: 1})
	// Hold every campaign until released, so admission state is
	// deterministic regardless of engine speed.
	release := make(chan struct{})
	d.runFn = func(ctx context.Context, _ *job) (*campaign.Result, error) {
		select {
		case <-release:
			return &campaign.Result{Emitted: 1}, nil
		case <-ctx.Done():
			return &campaign.Result{}, ctx.Err()
		}
	}

	first, aerr := d.Submit(api.JobRequest{Tenant: "team-a", Spec: sweepSpec})
	if aerr != nil {
		t.Fatalf("first submit rejected: %v", aerr)
	}
	if _, aerr = d.Submit(api.JobRequest{Tenant: "team-a", Spec: sweepSpec}); aerr == nil || aerr.Code != api.CodeOverQuota {
		t.Fatalf("second submit error %+v, want over_quota", aerr)
	}
	if _, aerr = d.Submit(api.JobRequest{Tenant: "team-b", Spec: sweepSpec}); aerr != nil {
		t.Fatalf("other tenant rejected: %v", aerr)
	}

	// Over HTTP the same rejection must be a 429 with the wire error.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err := client.Submit(ctx, api.JobRequest{Tenant: "team-b", Spec: sweepSpec})
	var wire *api.Error
	if !errors.As(err, &wire) || wire.Code != api.CodeOverQuota {
		t.Fatalf("HTTP submit error %v, want wire over_quota", err)
	}

	// Draining the quota: once team-a's job finishes, the slot frees.
	close(release)
	if _, err := client.WaitResult(ctx, first.ID); err != nil {
		t.Fatalf("wait first: %v", err)
	}
	if _, aerr = d.Submit(api.JobRequest{Tenant: "team-a", Spec: sweepSpec}); aerr != nil {
		t.Fatalf("slot did not free after completion: %v", aerr)
	}
}

// TestBadRequests pins the bad_request admission failures.
func TestBadRequests(t *testing.T) {
	d, _ := startDaemon(t, Options{Cache: campaign.NewMemoryCache()})
	if _, aerr := d.Submit(api.JobRequest{Tenant: "t", Spec: "  "}); aerr == nil || aerr.Code != api.CodeBadRequest {
		t.Errorf("empty spec: %+v, want bad_request", aerr)
	}
	if _, aerr := d.Submit(api.JobRequest{SchemaVersion: "v9", Tenant: "t", Spec: "<x/>"}); aerr == nil || aerr.Code != api.CodeBadRequest {
		t.Errorf("wrong schema version: %+v, want bad_request", aerr)
	}
	// A spec that fails generation runs and fails with bad_request in the
	// job error (the spec is the client's fault, not the server's).
	status, aerr := d.Submit(api.JobRequest{Tenant: "t", Spec: "<notes/>"})
	if aerr != nil {
		t.Fatalf("submit: %v", aerr)
	}
	client := &serviceclient.Client{Base: "http://" + d.Addr()}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := client.Wait(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateFailed || final.Error == nil || final.Error.Code != api.CodeBadRequest {
		t.Errorf("generation failure surfaced as %+v, want failed/bad_request", final)
	}
}

// TestNegativeRequestNumbersRejected: a negative count, budget or target
// fails admission with a bad_request naming the field, and leaves no job,
// no queue entry and no ledger record behind; zero still selects the
// server default and is admitted.
func TestNegativeRequestNumbersRejected(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "jobs.jsonl")
	d, client := startDaemon(t, Options{Cache: campaign.NewMemoryCache(), StorePath: storePath})
	for _, tc := range []struct {
		field string
		set   func(*api.JobRequest)
	}{
		{"array_bytes", func(r *api.JobRequest) { r.ArrayBytes = -1 }},
		{"outer_reps", func(r *api.JobRequest) { r.OuterReps = -1 }},
		{"inner_reps", func(r *api.JobRequest) { r.InnerReps = -1 }},
		{"workers", func(r *api.JobRequest) { r.Workers = -1 }},
		{"retries", func(r *api.JobRequest) { r.Retries = -1 }},
		{"retry_backoff_ms", func(r *api.JobRequest) { r.RetryBackoffMS = -1 }},
		{"variant_deadline_ms", func(r *api.JobRequest) { r.VariantDeadlineMS = -5 }},
		{"quarantine", func(r *api.JobRequest) { r.Quarantine = -1 }},
		{"adaptive.min_reps", func(r *api.JobRequest) { r.Adaptive = &api.AdaptivePlan{MinReps: -1} }},
		{"adaptive.max_reps", func(r *api.JobRequest) { r.Adaptive = &api.AdaptivePlan{MaxReps: -1} }},
		{"adaptive.target_rciw", func(r *api.JobRequest) { r.Adaptive = &api.AdaptivePlan{TargetRCIW: -0.05} }},
		{"adaptive.stable_runs", func(r *api.JobRequest) { r.Adaptive = &api.AdaptivePlan{StableRuns: -1} }},
	} {
		req := api.JobRequest{Tenant: "t", Spec: sweepSpec}
		tc.set(&req)
		_, aerr := d.Submit(req)
		if aerr == nil || aerr.Code != api.CodeBadRequest {
			t.Errorf("%s: %+v, want bad_request", tc.field, aerr)
			continue
		}
		if !strings.Contains(aerr.Message, "negative "+tc.field+":") {
			t.Errorf("%s: message %q does not name the field", tc.field, aerr.Message)
		}
	}
	d.mu.Lock()
	jobs, queued, tenants := len(d.jobs), len(d.queue), d.tenants["t"]
	d.mu.Unlock()
	if jobs != 0 || queued != 0 || tenants != 0 {
		t.Errorf("rejected requests left %d jobs, %d queued, %d tenant slots", jobs, queued, tenants)
	}
	if data, err := os.ReadFile(storePath); err == nil && len(data) != 0 {
		t.Errorf("rejected requests reached the ledger:\n%s", data)
	}

	// Zero is the server default, not a rejection.
	status, aerr := d.Submit(api.JobRequest{Tenant: "t", Spec: sweepSpec, Adaptive: &api.AdaptivePlan{}})
	if aerr != nil {
		t.Fatalf("all-zero request rejected: %v", aerr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if final, err := client.Wait(ctx, status.ID); err != nil || final.State != api.StateDone {
		t.Fatalf("all-zero request finished as %+v (%v), want done", final, err)
	}
}

// TestDrainRejectsQueuedAndInterruptsRunning exercises the SIGTERM
// protocol live: with one worker, a heavy running job is interrupted
// (checkpointed, no terminal ledger record) and the queued job behind it
// is rejected (terminal, ledgered). A fresh daemon over the same store
// and cache resumes the interrupted job and completes it cache-warm.
func TestDrainRejectsQueuedAndInterruptsRunning(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "jobs.jsonl")
	cachePath := filepath.Join(dir, "cache.jsonl")
	cache, err := campaign.OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy repetitions make each variant take tens of milliseconds, so
	// the drain reliably lands mid-campaign; the restarted daemon must
	// use the same options or the cache keys would not match.
	launch := quickLaunch()
	launch.OuterReps = 600
	d, client := startDaemon(t, Options{Cache: cache, StorePath: storePath, MaxConcurrentJobs: 1, Launch: launch})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	running, err := client.Submit(ctx, api.JobRequest{Tenant: "team-a", Spec: wideSpec, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.Submit(ctx, api.JobRequest{Tenant: "team-b", Spec: sweepSpec})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the first job has completed (and cached) at least one
	// variant: the first progress event marks the checkpoint.
	started := errors.New("started")
	err = client.Stream(ctx, running.ID, func(ev api.VariantEvent) error {
		if ev.Type == api.EventProgress && ev.Status.Progress.Done >= 1 {
			return started
		}
		return nil
	})
	if !errors.Is(err, started) {
		t.Fatalf("stream before drain: %v", err)
	}

	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	runStatus, _ := d.Job(running.ID)
	queuedStatus, _ := d.Job(queued.ID)
	if queuedStatus.State != api.StateRejected {
		t.Errorf("queued job state %s, want rejected", queuedStatus.State)
	}
	if runStatus.State != api.StateInterrupted {
		t.Fatalf("running job state %s, want interrupted (drain landed too late?)", runStatus.State)
	}
	if _, aerr := d.Submit(api.JobRequest{Tenant: "team-c", Spec: sweepSpec}); aerr == nil || aerr.Code != api.CodeDraining {
		t.Errorf("post-drain submit %+v, want draining", aerr)
	}
	_ = d.CloseHTTP()
	_ = d.Close()

	// Restart over the same ledger and cache: the interrupted job is
	// re-enqueued and completes; already-measured variants come from the
	// cache checkpoint.
	d2, client2 := startDaemon(t, Options{Cache: cache, StorePath: storePath, MaxConcurrentJobs: 1, Launch: launch})
	res, err := client2.WaitResult(ctx, running.ID)
	if err != nil {
		t.Fatalf("resumed job: %v", err)
	}
	if res.Job.State != api.StateDone {
		t.Fatalf("resumed job state %s, want done", res.Job.State)
	}
	if res.Serving.CacheHits == 0 {
		t.Errorf("resume used no cache checkpoint: %+v", res.Serving)
	}
	if res.Job.ID != running.ID {
		t.Errorf("resumed job id %s, want %s", res.Job.ID, running.ID)
	}
	// The rejected job stays rejected across the restart.
	rejStatus, ok := d2.Job(queued.ID)
	if !ok || rejStatus.State != api.StateRejected {
		t.Errorf("rejected job after restart: %+v (ok=%v), want rejected", rejStatus, ok)
	}
}

// replayLedger opens the ledger at path, replays it and closes it again.
func replayLedger(t *testing.T, path string) (finished, pending []storeRecord, corrupt int) {
	t.Helper()
	f, r, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return r.finished, r.pending, r.corrupt
}

// TestStoreCorruptLineDegradesToMiss pins the ledger's durability
// contract: a corrupt line is skipped, the records around it survive.
func TestStoreCorruptLineDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	good := storeRecord{Kind: "submit", Job: api.JobStatus{SchemaVersion: api.SchemaVersion, ID: "j-3", Tenant: "t", State: api.StateQueued},
		Request: &api.JobRequest{Spec: "<kernel/>"}}
	line, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	blob := "{\"kind\":\"submit\",\"job\":{\"id\":\n" + string(line) + "\n{not json}\n"
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	finished, pending, corrupt := replayLedger(t, path)
	if corrupt != 2 {
		t.Errorf("corrupt=%d, want 2", corrupt)
	}
	if len(finished) != 0 || len(pending) != 1 || pending[0].Job.ID != "j-3" {
		t.Errorf("replay finished=%v pending=%v, want the one good submit", finished, pending)
	}
}

// TestStoreTornTailIsTerminated: a daemon killed mid-append leaves the
// ledger's last line torn, here j-1's terminal record. The next daemon
// re-runs j-1 and must write its terminal record on a line of its own:
// glued onto the torn line, it would be lost on replay and every later
// restart would run j-1 again.
func TestStoreTornTailIsTerminated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	submit, err := json.Marshal(storeRecord{Kind: "submit",
		Job:     api.JobStatus{SchemaVersion: api.SchemaVersion, ID: "j-1", Tenant: "t", State: api.StateQueued},
		Request: &api.JobRequest{Tenant: "t", Spec: sweepSpec}})
	if err != nil {
		t.Fatal(err)
	}
	torn := `{"kind":"end","job":{"schema_version":"v1","id":"j-1","ten`
	if err := os.WriteFile(path, append(append(submit, '\n'), torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{Cache: campaign.NewMemoryCache(), StorePath: path, MaxConcurrentJobs: 1}
	d, client := startDaemon(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if res, err := client.WaitResult(ctx, "j-1"); err != nil || res.Job.State != api.StateDone {
		t.Fatalf("resumed j-1: %v, %v", res.Job.State, err)
	}
	second := submitWait(t, client, api.JobRequest{Tenant: "t", Spec: sweepSpec})
	_ = d.CloseHTTP()
	_ = d.Close()

	d2, _ := startDaemon(t, opts)
	for _, id := range []string{"j-1", second.Job.ID} {
		if st, ok := d2.Job(id); !ok || st.State != api.StateDone {
			t.Errorf("%s after reopen: %+v (known %v), want done", id, st, ok)
		}
	}
	if got := d2.storeErrors.Value(); got != 1 {
		t.Errorf("%d corrupt ledger lines on reopen, want 1 (the torn one)", got)
	}
}

// TestStoreOverlongLineIsSkipped: a garbage line over jsonl.MaxLine
// between two submit records is skipped and counted like any corrupt
// line, and both jobs still come back pending.
func TestStoreOverlongLineIsSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	var blob bytes.Buffer
	for i, id := range []string{"j-1", "j-2"} {
		if i == 1 {
			blob.Write(bytes.Repeat([]byte("x"), jsonl.MaxLine+1))
			blob.WriteByte('\n')
		}
		line, err := json.Marshal(storeRecord{Kind: "submit",
			Job:     api.JobStatus{SchemaVersion: api.SchemaVersion, ID: id, Tenant: "t", State: api.StateQueued},
			Request: &api.JobRequest{Spec: "<kernel/>"}})
		if err != nil {
			t.Fatal(err)
		}
		blob.Write(append(line, '\n'))
	}
	if err := os.WriteFile(path, blob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	finished, pending, corrupt := replayLedger(t, path)
	if corrupt != 1 || len(finished) != 0 || len(pending) != 2 || pending[0].Job.ID != "j-1" || pending[1].Job.ID != "j-2" {
		t.Errorf("replay corrupt=%d finished=%v pending=%v, want 1 corrupt line and j-1, j-2 pending", corrupt, finished, pending)
	}
}

// TestMetricsExposition asserts the service counters reach /metrics under
// their Prometheus names.
func TestMetricsExposition(t *testing.T) {
	_, client := startDaemon(t, Options{Cache: campaign.NewMemoryCache()})
	submitWait(t, client, api.JobRequest{Tenant: "team-a", Spec: sweepSpec})
	resp, err := http.Get(client.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"microtools_service_jobs_total 1",
		"microtools_service_jobs_completed 1",
		"microtools_service_jobs_running 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestJobGaugesSettledAtWaitResult loops submit → WaitResult → gauge: the
// job's gauge, counters and tenant slot must be settled by the time its
// terminal state is visible. Each round polls the job in process and reads
// the running gauge and the tenant's slot count the moment the state turns
// done, then scrapes /metrics after WaitResult as a client would. With one
// slot per tenant, every next submission must be admitted.
func TestJobGaugesSettledAtWaitResult(t *testing.T) {
	d, client := startDaemon(t, Options{Cache: campaign.NewMemoryCache(), MaxJobsPerTenant: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 1; i <= 20; i++ {
		status, err := client.Submit(ctx, api.JobRequest{Tenant: "team-a", Spec: sweepSpec})
		if err != nil {
			t.Fatal(err)
		}
		for {
			st, _ := d.Job(status.ID)
			if st.State == api.StateDone {
				if n := d.jobsRunning.Value(); n != 0 {
					t.Fatalf("job %d: running gauge %d once its state is done", i, n)
				}
				d.mu.Lock()
				held := d.tenants["team-a"]
				d.mu.Unlock()
				if held != 0 {
					t.Fatalf("job %d: tenant still holds %d slots once its state is done", i, held)
				}
				break
			}
			if ctx.Err() != nil {
				t.Fatal(ctx.Err())
			}
		}
		if _, err := client.WaitResult(ctx, status.ID); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(client.Base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"microtools_service_jobs_running 0\n",
			fmt.Sprintf("microtools_service_jobs_completed %d\n", i),
		} {
			if !strings.Contains(string(body), want) {
				t.Fatalf("job %d: /metrics right after WaitResult lacks %q", i, strings.TrimSpace(want))
			}
		}
	}
}

// TestAdaptiveJobSurfacesConfidence submits an adaptive job over the v1
// contract: the per-variant stability block must carry the planner's
// outcome (reps, stop reason, target) and the serving stats the budget
// accounting — and a warm resubmission must replay it launch-free.
func TestAdaptiveJobSurfacesConfidence(t *testing.T) {
	_, client := startDaemon(t, Options{Cache: campaign.NewMemoryCache()})
	req := api.JobRequest{
		Tenant:    "team-a",
		Spec:      sweepSpec,
		OuterReps: 4,
		Adaptive:  &api.AdaptivePlan{TargetRCIW: 0.05},
	}
	cold := submitWait(t, client, req)
	if cold.Job.State != api.StateDone {
		t.Fatalf("state %s: %v", cold.Job.State, cold.Job.Error)
	}
	// Deterministic sim, min statistic: every variant stops at the floor
	// of 2 of 4 reps — half the budget saved, no misses.
	if cold.Serving.RepsSaved != 8 || cold.Serving.RepsExecuted != 8 || cold.Serving.RepsTopUp != 0 {
		t.Errorf("serving reps saved=%d executed=%d topup=%d, want 8/8/0",
			cold.Serving.RepsSaved, cold.Serving.RepsExecuted, cold.Serving.RepsTopUp)
	}
	for _, v := range cold.Campaign.Variants {
		st := v.Stability
		if st.Reps != 2 || st.StopReason != "stable" {
			t.Errorf("variant %s: reps=%d stop=%q, want 2/stable", v.Name, st.Reps, st.StopReason)
		}
		if st.TargetRCIW != 0.05 || st.MissedTarget {
			t.Errorf("variant %s: target=%v missed=%v, want 0.05/false", v.Name, st.TargetRCIW, st.MissedTarget)
		}
		if st.N != 2 {
			t.Errorf("variant %s: stability n=%d, want the realized 2", v.Name, st.N)
		}
	}

	warm := submitWait(t, client, req)
	if warm.Serving.Launches != 0 || warm.Serving.CacheHits != 4 {
		t.Errorf("warm adaptive run launches=%d hits=%d, want 0/4", warm.Serving.Launches, warm.Serving.CacheHits)
	}
	a, _ := json.Marshal(cold.Campaign)
	b, _ := json.Marshal(warm.Campaign)
	if string(a) != string(b) {
		t.Errorf("adaptive campaign payloads diverged across cache temperature:\ncold: %s\nwarm: %s", a, b)
	}
	// A fixed-budget job on the same spec keeps its own cache lane: the
	// adaptive entries must not have claimed its keys.
	fixed := submitWait(t, client, api.JobRequest{Tenant: "team-a", Spec: sweepSpec, OuterReps: 4})
	if fixed.Serving.Launches != 4 {
		t.Errorf("fixed-budget job launches=%d, want 4 (adaptive cache entries leaked)", fixed.Serving.Launches)
	}
	if fixed.Campaign.Variants[0].Stability.StopReason != "" {
		t.Error("fixed-budget variant carries an adaptive stop reason")
	}
}

// TestSubmitRecordsPrecedeTheRun: a job's queued event and submit record
// land before any worker can run it, so a job that finishes at once still
// streams queued first and its end record follows its submit record (a
// ledger read the other way round re-runs a finished job on restart).
func TestSubmitRecordsPrecedeTheRun(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "jobs.jsonl")
	d, _ := startDaemon(t, Options{StorePath: storePath, MaxConcurrentJobs: 4, MaxJobsPerTenant: 1000})
	d.runFn = func(context.Context, *job) (*campaign.Result, error) { return &campaign.Result{}, nil }
	const jobs = 200
	for i := 0; i < jobs; i++ {
		if _, aerr := d.Submit(api.JobRequest{Tenant: "t", Spec: sweepSpec}); aerr != nil {
			t.Fatal(aerr)
		}
	}
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("j-%d", i)
		for {
			if st, _ := d.Job(id); st.State == api.StateDone {
				break
			}
			time.Sleep(time.Millisecond)
		}
		d.mu.Lock()
		j := d.jobs[id]
		d.mu.Unlock()
		if first, _, _ := j.events.after(0); len(first) == 0 || first[0].Type != api.EventQueued {
			t.Fatalf("%s: stream opens with %+v, want the queued event", id, first[:min(len(first), 1)])
		}
	}
	_ = d.Close()
	_, pending, _ := replayLedger(t, storePath)
	if len(pending) != 0 {
		t.Fatalf("%d finished jobs replay as pending, first %s: an end record precedes its submit", len(pending), pending[0].Job.ID)
	}
}
