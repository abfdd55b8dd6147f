package service

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	api "microtools/api/v1"
	"microtools/internal/telemetry"
)

// maxRequestBytes bounds a submission body; specs are small XML files.
const maxRequestBytes = 4 << 20

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/jobs             submit a spec, 202 + JobStatus
//	GET  /v1/jobs/{id}        JobResult (status + result once finished)
//	GET  /v1/jobs/{id}/events per-job SSE stream (Last-Event-ID resume)
//	/metrics, /debug/campaigns, /events, [/debug/pprof/]
//	                          the embedded telemetry server
func (d *Daemon) Handler() http.Handler {
	telem := telemetry.NewServer(telemetry.ServerOptions{
		Registry:    d.reg,
		Tracker:     d.tracker,
		EnablePprof: d.opts.EnablePprof,
	}).Handler()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", d.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", d.handleEvents)
	mux.Handle("/metrics", telem)
	mux.Handle("/debug/", telem)
	mux.Handle("/events", telem)
	mux.HandleFunc("/", d.handleIndex)
	return mux
}

func (d *Daemon) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		writeError(w, &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeNotFound,
			Message: "unknown path " + r.URL.Path})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "microserved %s\n\nPOST /v1/jobs\nGET  /v1/jobs/{id}\nGET  /v1/jobs/{id}/events\n\n/metrics\n/debug/campaigns\n/events\n", api.SchemaVersion)
}

// statusFor maps wire error codes onto HTTP statuses.
func statusFor(code string) int {
	switch code {
	case api.CodeBadRequest:
		return http.StatusBadRequest
	case api.CodeOverQuota:
		return http.StatusTooManyRequests
	case api.CodeNotFound:
		return http.StatusNotFound
	case api.CodeDraining:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, e *api.Error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(statusFor(e.Code))
	_ = json.NewEncoder(w).Encode(e)
}

// writeJSON writes doc and a newline, the bytes json.Encoder.Encode
// writes, and leaves the body empty on an encoding error. Compact
// (non-indented) encoding keeps result documents byte-stable for
// cross-job comparison.
func writeJSON(w http.ResponseWriter, status int, doc []byte, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if err == nil {
		_, _ = w.Write(append(doc, '\n'))
	}
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeBadRequest,
			Message: "malformed request body: " + err.Error()})
		return
	}
	status, aerr := d.Submit(req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+status.ID)
	doc, err := json.Marshal(status)
	writeJSON(w, http.StatusAccepted, doc, err)
}

func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok := d.Result(id)
	if !ok {
		writeError(w, &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeNotFound,
			Message: "unknown job " + id})
		return
	}
	doc, err := res.MarshalJSON()
	writeJSON(w, http.StatusOK, doc, err)
}

// handleEvents streams the job's event log as SSE. The client resumes
// after a reconnect via the standard Last-Event-ID header (or an ?after=
// query parameter for curl-level debugging); ids restart from the exact
// next frame and keep strictly increasing.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		writeError(w, &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeNotFound,
			Message: "unknown job " + id})
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, &api.Error{SchemaVersion: api.SchemaVersion, Code: api.CodeInternal,
			Message: "streaming unsupported by this connection"})
		return
	}
	after := int64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.ParseInt(v, 10, 64)
	} else if v := r.URL.Query().Get("after"); v != "" {
		after, _ = strconv.ParseInt(v, 10, 64)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	for {
		batch, wait, done := j.events.after(after)
		for _, ev := range batch {
			data, err := ev.MarshalJSON()
			if err != nil || telemetry.WriteSSE(w, ev.Type, ev.Seq, data) != nil {
				return
			}
			after = ev.Seq
		}
		fl.Flush()
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-d.baseCtx.Done():
			return
		case <-wait:
		}
	}
}

// Start listens on addr (":0" works) and serves the daemon in a
// background goroutine, returning the bound address.
func (d *Daemon) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("service: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 10 * time.Second}
	d.mu.Lock()
	d.ln = ln
	d.http = srv
	d.mu.Unlock()
	go func() {
		// ErrServerClosed is the normal CloseHTTP path.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (d *Daemon) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// CloseHTTP stops the listener and interrupts in-flight handlers (SSE
// streams included). It is a no-op before Start.
func (d *Daemon) CloseHTTP() error {
	d.mu.Lock()
	srv := d.http
	d.http = nil
	d.ln = nil
	d.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}
