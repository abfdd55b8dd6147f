package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func newTestServer(t *testing.T, opts ServerOptions) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	NewMetrics(r) // registers the standard instrument set
	r.Counter("campaign.launches").Add(7)
	ts := newTestServer(t, ServerOptions{Registry: r})

	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	for _, name := range []string{
		"microtools_campaign_launches 7",
		"microtools_sim_insts_retired 0",
		"microtools_launcher_rep_seconds_count 0",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %q:\n%s", name, body)
		}
	}
}

func TestServerCampaignsEndpoint(t *testing.T) {
	tr := NewTracker()
	c := tr.Begin("live-sweep")
	c.Update(CampaignUpdate{Done: 2, Emitted: 8, Generating: true})
	ts := newTestServer(t, ServerOptions{Tracker: tr})

	code, body, hdr := get(t, ts.URL+"/debug/campaigns")
	if code != http.StatusOK {
		t.Fatalf("/debug/campaigns status = %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
		t.Errorf("content type = %q", hdr.Get("Content-Type"))
	}
	var page struct {
		Campaigns []CampaignSnapshot `json:"campaigns"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if len(page.Campaigns) != 1 || page.Campaigns[0].Name != "live-sweep" || page.Campaigns[0].Done != 2 {
		t.Errorf("campaigns = %+v", page.Campaigns)
	}
}

func TestServerCampaignsEmptyIsNotNull(t *testing.T) {
	ts := newTestServer(t, ServerOptions{}) // nil tracker
	_, body, _ := get(t, ts.URL+"/debug/campaigns")
	if !strings.Contains(body, `"campaigns": []`) {
		t.Errorf("empty campaign list should marshal as [], got:\n%s", body)
	}
}

func TestServerPprofGating(t *testing.T) {
	off := newTestServer(t, ServerOptions{})
	if code, _, _ := get(t, off.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof disabled: status = %d, want 404", code)
	}
	on := newTestServer(t, ServerOptions{EnablePprof: true})
	if code, _, _ := get(t, on.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof enabled: status = %d, want 200", code)
	}
}

func TestServerStartClose(t *testing.T) {
	s := NewServer(ServerOptions{Registry: NewRegistry()})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != addr {
		t.Errorf("Addr() = %q, want %q", s.Addr(), addr)
	}
	if code, _, _ := get(t, "http://"+addr+"/metrics"); code != http.StatusOK {
		t.Errorf("scrape over real listener: status = %d", code)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("scrape succeeded after Close")
	}
}

// TestServerEventsStream exercises the SSE framing end to end: snapshot
// replay for a late subscriber, then live begin/progress/end events with
// increasing ids.
func TestServerEventsStream(t *testing.T) {
	tr := NewTracker()
	pre := tr.Begin("already-running")
	pre.Update(CampaignUpdate{Done: 1, Emitted: 3})
	ts := newTestServer(t, ServerOptions{Tracker: tr})

	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	rd := bufio.NewReader(resp.Body)

	type sse struct {
		id    string
		event string
		data  string
	}
	readEvent := func() sse {
		t.Helper()
		var ev sse
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("stream ended early: %v (got %+v)", err, ev)
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case line == "":
				return ev
			case strings.HasPrefix(line, "id: "):
				ev.id = line[len("id: "):]
			case strings.HasPrefix(line, "event: "):
				ev.event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				ev.data = line[len("data: "):]
			}
		}
	}

	// Replay first: the in-flight campaign arrives as a "snapshot".
	snap := readEvent()
	if snap.event != "snapshot" || snap.id != "" {
		t.Fatalf("first event = %+v, want un-id'd snapshot", snap)
	}
	var cs CampaignSnapshot
	if err := json.Unmarshal([]byte(snap.data), &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Name != "already-running" || cs.Done != 1 {
		t.Errorf("snapshot = %+v", cs)
	}

	// Then live events, ids strictly increasing.
	pre.Update(CampaignUpdate{Done: 3, Emitted: 3})
	pre.End(nil)
	lastID := 0
	for _, wantType := range []string{"progress", "end"} {
		ev := readEvent()
		if ev.event != wantType {
			t.Fatalf("event = %+v, want type %q", ev, wantType)
		}
		id, err := strconv.Atoi(ev.id)
		if err != nil || id <= lastID {
			t.Errorf("event id %q not strictly increasing after %d", ev.id, lastID)
		}
		lastID = id
		if err := json.Unmarshal([]byte(ev.data), &cs); err != nil {
			t.Fatal(err)
		}
	}
	if !cs.Finished {
		t.Error("final end event snapshot not marked finished")
	}
}

// countingWriter records each Write call separately.
type countingWriter struct{ writes []string }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, string(p))
	return len(p), nil
}

// TestWriteSSEFrame pins the SSE framing byte for byte against the
// historical two-Fprintf rendering, and checks a frame is a single Write.
func TestWriteSSEFrame(t *testing.T) {
	payload := map[string]any{"seq": 7, "html": "<a&b>", "name": "k_u1"}
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		seq  int64
	}{{"progress", 1}, {"end", 514}, {"snapshot", 0}, {"x", -3}, {"started", 1 << 62}} {
		var want strings.Builder
		if tc.seq > 0 {
			fmt.Fprintf(&want, "id: %d\n", tc.seq)
		}
		fmt.Fprintf(&want, "event: %s\ndata: %s\n\n", tc.kind, data)
		var w countingWriter
		if err := WriteSSE(&w, tc.kind, tc.seq, payload); err != nil {
			t.Fatal(err)
		}
		if len(w.writes) != 1 || w.writes[0] != want.String() {
			t.Errorf("WriteSSE(%q, %d) wrote %q, want one write of %q", tc.kind, tc.seq, w.writes, want.String())
		}
	}
	if err := WriteSSE(io.Discard, "bad", 1, func() {}); err == nil {
		t.Error("WriteSSE accepted an unencodable payload")
	}
}
