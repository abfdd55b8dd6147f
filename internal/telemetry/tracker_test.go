package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestNilTracker(t *testing.T) {
	var tr *Tracker
	c := tr.Begin("x")
	if c != nil {
		t.Fatal("nil tracker Begin returned a campaign")
	}
	c.Update(CampaignUpdate{Done: 1}) // must not panic
	c.End(errors.New("boom"))
	if s := tr.Snapshots(); s != nil {
		t.Errorf("nil tracker Snapshots = %v, want nil", s)
	}
	ch, cancel := tr.Subscribe(4)
	defer cancel()
	if _, ok := <-ch; ok {
		t.Error("nil tracker subscription channel not closed")
	}
}

func TestTrackerEventOrdering(t *testing.T) {
	tr := NewTracker()
	ch, cancel := tr.Subscribe(64)
	defer cancel()

	c := tr.Begin("sweep")
	c.Update(CampaignUpdate{Done: 1, Emitted: 4, Generating: true})
	c.Update(CampaignUpdate{Done: 4, Emitted: 4, CacheHits: 2})
	c.End(nil)
	// Post-End traffic is ignored.
	c.Update(CampaignUpdate{Done: 99})
	c.End(errors.New("late"))
	cancel()

	var types []string
	lastSeq := int64(0)
	for ev := range ch {
		if ev.Seq <= lastSeq {
			t.Errorf("seq not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		types = append(types, ev.Type)
	}
	want := []string{"begin", "progress", "progress", "end"}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Errorf("event types = %v, want %v", types, want)
	}

	snaps := tr.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1 retained finished campaign", len(snaps))
	}
	s := snaps[0]
	if !s.Finished || s.Err != "" || s.Done != 4 || s.CacheHits != 2 {
		t.Errorf("final snapshot %+v: want finished, no error, done=4, cache_hits=2", s)
	}
	if s.CacheHitRatio != 0.5 {
		t.Errorf("cache hit ratio = %g, want 0.5", s.CacheHitRatio)
	}
}

func TestTrackerEndWithError(t *testing.T) {
	tr := NewTracker()
	c := tr.Begin("doomed")
	c.End(errors.New("context canceled"))
	s := tr.Snapshots()
	if len(s) != 1 || s[0].Err != "context canceled" || !s[0].Finished {
		t.Errorf("snapshots = %+v, want one finished campaign with error", s)
	}
}

func TestTrackerDropOnFullBuffer(t *testing.T) {
	tr := NewTracker()
	ch, cancel := tr.Subscribe(1)
	defer cancel()
	c := tr.Begin("noisy") // fills the 1-slot buffer
	for i := 0; i < 10; i++ {
		c.Update(CampaignUpdate{Done: i})
	}
	c.End(nil)
	cancel()
	n := 0
	for range ch {
		n++
	}
	if n != 1 {
		t.Errorf("received %d events on a full buffer, want 1 (rest dropped)", n)
	}
	// Seq advanced past the drops, so a reconnecting subscriber sees the gap.
	ch2, cancel2 := tr.Subscribe(4)
	defer cancel2()
	c2 := tr.Begin("second")
	c2.End(nil)
	ev := <-ch2
	if ev.Seq <= 1 {
		t.Errorf("seq = %d after dropped events, want > 1", ev.Seq)
	}
}

func TestTrackerCancelIdempotent(t *testing.T) {
	tr := NewTracker()
	_, cancel := tr.Subscribe(1)
	cancel()
	cancel() // second close must not panic
}

func TestTrackerRetainsBoundedFinished(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < retainFinished+5; i++ {
		tr.Begin(fmt.Sprintf("c%d", i)).End(nil)
	}
	snaps := tr.Snapshots()
	if len(snaps) != retainFinished {
		t.Fatalf("retained %d finished campaigns, want %d", len(snaps), retainFinished)
	}
	// The oldest were pruned: retained ids start after the overflow.
	if snaps[0].ID != 6 {
		t.Errorf("oldest retained id = %d, want 6", snaps[0].ID)
	}
}

// TestCampaignSnapshotJSON pins the /debug/campaigns document of one
// campaign, live and finished, byte for byte.
func TestCampaignSnapshotJSON(t *testing.T) {
	tr := NewTracker()
	c := tr.Begin("fig6")
	c.Update(CampaignUpdate{Done: 4, Emitted: 10, Generating: true, CacheHits: 1, Failed: 2,
		Launches: 3, Retries: 5, Quarantined: 6, KeyErrors: 7})
	snap := func() string {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		b, err := json.Marshal(c.snapshotLocked(c.started.Add(2 * time.Second)))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, want := range []string{
		`{"id":1,"name":"fig6","done":4,"emitted":10,"generating":true,"cache_hits":1,"failed":2,"launches":3,"retries":5,"quarantined":6,"key_errors":7,"cache_hit_ratio":0.25,"elapsed_seconds":2,"eta_seconds":3,"finished":false}`,
		`{"id":1,"name":"fig6","done":4,"emitted":10,"generating":true,"cache_hits":1,"failed":2,"launches":3,"retries":5,"quarantined":6,"key_errors":7,"cache_hit_ratio":0.25,"elapsed_seconds":2,"eta_seconds":0,"finished":true,"error":"boom"}`,
	} {
		if got := snap(); got != want {
			t.Errorf("snapshot\n%s\nwant\n%s", got, want)
		}
		c.End(errors.New("boom"))
	}
}
