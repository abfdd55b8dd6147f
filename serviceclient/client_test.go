package serviceclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	api "microtools/api/v1"
	"microtools/internal/faults"
)

func TestSSEDecoder(t *testing.T) {
	long := strings.Repeat("x", 10000) // over the bufio buffer
	stream := "" +
		": heartbeat\n" +
		"id: 1\nevent: queued\ndata: {\"seq\":1}\n\n" +
		"event: progress\ndata: part1\ndata: part2\n\n" +
		": comment only\n\n" +
		"id: 3\r\nevent: end\r\n: inside a frame\r\ndata:no-space\r\ndata:\r\ndata: " + long + "\r\nretry: 5\r\n\r\n" +
		"data: a\ndata: b\ndata: c\n\n" +
		"id: 4\ndata: cut mid-frame"
	dec := newSSEDecoder(strings.NewReader(stream))
	for i, want := range []struct {
		id    int64
		event string
		data  string
	}{
		{1, "queued", `{"seq":1}`},
		{0, "progress", "part1\npart2"},
		{3, "end", "no-space\n\n" + long},
		{0, "", "a\nb\nc"},
	} {
		f, err := dec.next()
		if err != nil || f.id != want.id || f.event != want.event || string(f.data) != want.data {
			t.Fatalf("frame %d = {%d %q %.40q}, %v; want {%d %q %.40q}", i+1, f.id, f.event, f.data, err, want.id, want.event, want.data)
		}
	}
	if _, err := dec.next(); err == nil {
		t.Fatal("decoder did not report stream end")
	}
}

// TestSubmitRetriesTransient pins the retry taxonomy: 429 and 503 are
// transient (retried until the budget runs out), 400 is permanent (no
// retry), and the wire error stays reachable via errors.As.
func TestSubmitRetriesTransient(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n < 3 {
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"schema_version":"v1","code":"over_quota","message":"busy"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"schema_version":"v1","id":"j-1","state":"queued"}`))
	}))
	defer srv.Close()

	c := &Client{Base: srv.URL, Retries: 3, Backoff: 1}
	status, err := c.Submit(context.Background(), api.JobRequest{Spec: "<kernel/>"})
	if err != nil {
		t.Fatalf("submit with retries: %v", err)
	}
	if status.ID != "j-1" || calls.Load() != 3 {
		t.Fatalf("status=%+v calls=%d, want j-1 after 3 calls", status, calls.Load())
	}
}

func TestSubmitDoesNotRetryPermanent(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"schema_version":"v1","code":"bad_request","message":"empty spec"}`))
	}))
	defer srv.Close()

	c := &Client{Base: srv.URL, Retries: 5, Backoff: 1}
	_, err := c.Submit(context.Background(), api.JobRequest{Spec: ""})
	if err == nil || calls.Load() != 1 {
		t.Fatalf("err=%v calls=%d, want one non-retried failure", err, calls.Load())
	}
	if faults.IsTransient(err) {
		t.Errorf("bad_request classified transient: %v", err)
	}
	var wire *api.Error
	if !errors.As(err, &wire) || wire.Code != api.CodeBadRequest {
		t.Errorf("wire error not reachable: %v", err)
	}
}

func TestTransientWireErrorsStayTyped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"schema_version":"v1","code":"draining","message":"shutting down"}`))
	}))
	defer srv.Close()

	c := &Client{Base: srv.URL, Backoff: 1}
	_, err := c.Result(context.Background(), "j-9")
	if !faults.IsTransient(err) {
		t.Errorf("draining not transient: %v", err)
	}
	var wire *api.Error
	if !errors.As(err, &wire) || wire.Code != api.CodeDraining {
		t.Errorf("wire error not reachable through the transient wrap: %v", err)
	}
}
