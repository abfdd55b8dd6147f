package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// ServerOptions configures the embeddable telemetry server.
type ServerOptions struct {
	// Registry backs /metrics (nil serves an empty exposition).
	Registry *Registry
	// Tracker backs /debug/campaigns and /events (nil serves empty
	// snapshots and a stream that only heartbeats).
	Tracker *Tracker
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles reveal program structure, so the operator opts
	// in per process.
	EnablePprof bool
}

// Server serves the live telemetry endpoints:
//
//	/metrics          Prometheus text exposition of the registry
//	/debug/campaigns  JSON snapshot of in-flight and recent campaigns
//	/events           SSE stream of campaign progress events
//	/debug/pprof/     net/http/pprof (only with EnablePprof)
type Server struct {
	opts ServerOptions

	mu   sync.Mutex
	ln   net.Listener
	http *http.Server
}

// NewServer builds a server over the given sources; Start brings it up.
func NewServer(opts ServerOptions) *Server {
	return &Server{opts: opts}
}

// Handler returns the telemetry routing mux — what Start serves, exposed
// so tests (and embedding daemons) can mount it without a listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.serveIndex)
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/debug/campaigns", s.serveCampaigns)
	mux.HandleFunc("/events", s.serveEvents)
	if s.opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Start listens on addr (host:port; an ephemeral ":0" works) and serves
// in a background goroutine. It returns the bound address, so callers
// that asked for port 0 learn the real one.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.mu.Lock()
	s.ln = ln
	s.http = srv
	s.mu.Unlock()
	go func() {
		// ErrServerClosed is the normal Close path; anything else has
		// nowhere to go but the next scrape noticing the endpoint gone.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and interrupts in-flight handlers (SSE
// streams included). It is a no-op before Start.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.http = nil
	s.ln = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "microtools telemetry\n\n/metrics\n/debug/campaigns\n/events\n")
	if s.opts.EnablePprof {
		fmt.Fprintf(w, "/debug/pprof/\n")
	}
}

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.opts.Registry.WritePrometheus(w); err != nil {
		// The connection died mid-write; there is no response left to
		// fail. Nothing to do.
		return
	}
}

// campaignsPage is the /debug/campaigns JSON envelope.
type campaignsPage struct {
	Campaigns []CampaignSnapshot `json:"campaigns"`
}

func (s *Server) serveCampaigns(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	page := campaignsPage{Campaigns: s.opts.Tracker.Snapshots()}
	if page.Campaigns == nil {
		page.Campaigns = []CampaignSnapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(page)
}

// serveEvents streams campaign events as Server-Sent Events. Each event
// carries its tracker sequence number as the SSE id, the event type
// (begin/progress/end) as the SSE event name, and the campaign snapshot
// as JSON data. On connect the current snapshots are replayed as
// "snapshot" events so a late subscriber starts from a consistent view.
func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "telemetry: streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	// Subscribe before replaying the snapshots: an event racing the
	// replay is then duplicated (same campaign state twice), never lost.
	ch, cancel := s.opts.Tracker.Subscribe(256)
	defer cancel()
	for _, snap := range s.opts.Tracker.Snapshots() {
		if err := WriteSSE(w, "snapshot", 0, snap); err != nil {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := WriteSSE(w, ev.Type, ev.Seq, ev.Campaign); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// WriteSSE frames one event in the text/event-stream format: an optional
// numeric id line (seq > 0), the event name, and the JSON-encoded payload
// as the data line. It is the single SSE framing implementation shared by
// the telemetry /events stream and the service job-event streams, so
// every stream in the system reconnects with the same Last-Event-ID
// semantics.
func WriteSSE(w io.Writer, kind string, seq int64, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	// One buffer, one Write: a served job streams a frame per variant.
	frame := make([]byte, 0, len(data)+len(kind)+40)
	if seq > 0 {
		frame = strconv.AppendInt(append(frame, "id: "...), seq, 10)
		frame = append(frame, '\n')
	}
	frame = append(append(frame, "event: "...), kind...)
	frame = append(append(frame, "\ndata: "...), data...)
	_, err = w.Write(append(frame, "\n\n"...))
	return err
}
