package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	api "microtools/api/v1"
)

// refEventLog is the event log as it stood before frames: one full
// api.VariantEvent per append and a fresh wake-up channel per append. It
// is the oracle the compact log must match frame for frame.
type refEventLog struct {
	mu     sync.Mutex
	events []api.VariantEvent
	notify chan struct{}
	done   bool
}

func newRefEventLog() *refEventLog {
	return &refEventLog{notify: make(chan struct{})}
}

func (l *refEventLog) append(kind string, status api.JobStatus) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.events = append(l.events, api.VariantEvent{
		SchemaVersion: api.SchemaVersion,
		JobID:         status.ID,
		Seq:           int64(len(l.events) + 1),
		Type:          kind,
		Status:        status,
	})
	close(l.notify)
	l.notify = make(chan struct{})
}

func (l *refEventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.done = true
	close(l.notify)
	l.notify = make(chan struct{})
}

func (l *refEventLog) after(after int64) ([]api.VariantEvent, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []api.VariantEvent
	if after >= 0 && after < int64(len(l.events)) {
		out = append(out, l.events[after:]...)
	}
	return out, l.notify, l.done
}

// logPair appends every event to both logs.
type logPair struct {
	got  *eventLog
	want *refEventLog
}

func (p logPair) append(kind eventKind, status api.JobStatus) {
	p.got.append(kind, status)
	p.want.append(kindNames[kind], status)
}

func (p logPair) close() {
	p.got.close()
	p.want.close()
}

// check compares after(k) of both logs for every k from -1 to two past
// the end: the same frames and the same done flag. Frames are compared as
// values (the statuses share their Error pointer), and the whole log from
// k = 0 also as MarshalJSON bytes.
func (p logPair) check(t *testing.T, label string) {
	t.Helper()
	n := int64(len(p.want.events))
	for k := int64(-1); k <= n+2; k++ {
		got, _, gotDone := p.got.after(k)
		want, _, wantDone := p.want.after(k)
		if gotDone != wantDone {
			t.Fatalf("%s: after(%d) done %v, want %v", label, k, gotDone, wantDone)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: after(%d) gave %d frames, want %d", label, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: after(%d) frame %d:\n got %+v\nwant %+v", label, k, i, got[i], want[i])
			}
			if k != 0 {
				continue
			}
			g, err := got[i].MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			w, err := want[i].MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s: frame %d:\n got %s\nwant %s", label, i, g, w)
			}
		}
	}
}

// randomJob appends one job's lifecycle, drawn from rng, to both logs and
// checks them after every append: queued, then either rejected by a
// drain, or started, a run of progress updates (repeats included) and an
// end that is done, failed or interrupted. Some runs append after the end
// or close twice; both must be no-ops.
func randomJob(t *testing.T, rng *rand.Rand, seed int64) {
	p := logPair{got: &eventLog{}, want: newRefEventLog()}
	label := fmt.Sprintf("seed %d", seed)
	st := api.JobStatus{
		SchemaVersion:   api.SchemaVersion,
		ID:              fmt.Sprintf("j-%d", rng.Intn(1000)+1),
		Tenant:          []string{"default", "team-a", "t"}[rng.Intn(3)],
		State:           api.StateQueued,
		SubmittedUnixMS: rng.Int63n(1 << 40),
	}
	st.Name = st.Tenant + "/" + st.ID
	emit := func(kind eventKind) {
		p.append(kind, st)
		p.check(t, label)
	}
	emit(kindQueued)

	switch rng.Intn(5) {
	case 0: // rejected while queued
		st.State = api.StateRejected
		st.FinishedUnixMS = st.SubmittedUnixMS + rng.Int63n(100)
		st.Error = &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeDraining,
			Message: "server drained before the job started; resubmit"}
		emit(kindEnd)
	default:
		st.State = api.StateRunning
		st.StartedUnixMS = st.SubmittedUnixMS + rng.Int63n(100)
		emit(kindStarted)
		emitted := 1 + rng.Intn(20)
		for i := rng.Intn(40); i > 0; i-- {
			pr := &st.Progress
			switch rng.Intn(6) {
			case 0: // a repeat of the last frame
			case 1:
				pr.Generating = !pr.Generating
			case 2:
				pr.Failed++
				pr.Done++
			case 3:
				pr.Retries++
				pr.Launches++
			default:
				pr.Done++
				if rng.Intn(2) == 0 {
					pr.CacheHits++
				} else {
					pr.Launches++
				}
			}
			pr.Emitted = max(pr.Emitted, min(emitted, pr.Done+rng.Intn(3)))
			emit(kindProgress)
		}
		switch rng.Intn(3) {
		case 0:
			st.State = api.StateInterrupted
		case 1:
			st.State = api.StateFailed
			st.FinishedUnixMS = st.StartedUnixMS + rng.Int63n(1000)
			st.Error = &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeCampaignFailed,
				Message: fmt.Sprintf("variant %d: \"boom\" <&>", rng.Intn(9))}
		default:
			st.State = api.StateDone
			st.FinishedUnixMS = st.StartedUnixMS + rng.Int63n(1000)
		}
		emit(kindEnd)
	}
	if rng.Intn(2) == 0 {
		p.close()
		p.check(t, label+" closed")
		p.append(kindEnd, st)
	}
	p.close()
	p.check(t, label+" closed")
}

// TestEventLogMatchesReference: for seeded random lifecycles, the compact
// log serves the bytes and done flags of the full-event log it replaced.
func TestEventLogMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		randomJob(t, rand.New(rand.NewSource(seed)), seed)
	}
}

// TestEventLogWakesWaiters: the channel a reader gets closes on the next
// append and on close, and a terminal log hands out a closed channel.
func TestEventLogWakesWaiters(t *testing.T) {
	l := &eventLog{}
	st := api.JobStatus{SchemaVersion: api.SchemaVersion, ID: "j-1"}
	l.append(kindQueued, st)
	_, wait, done := l.after(1)
	if done {
		t.Fatal("open log reported done")
	}
	select {
	case <-wait:
		t.Fatal("wait closed before any append")
	default:
	}
	l.append(kindStarted, st)
	<-wait
	_, wait, _ = l.after(2)
	l.close()
	<-wait
	l.append(kindEnd, st)
	batch, wait, done := l.after(0)
	if !done || len(batch) != 2 {
		t.Fatalf("terminal log after(0): %d frames, done %v", len(batch), done)
	}
	<-wait
}
