package service

import (
	"sync"

	api "microtools/api/v1"
)

// eventKind is a VariantEvent type, stored in one byte per frame.
type eventKind uint8

const (
	kindQueued eventKind = iota
	kindStarted
	kindProgress
	kindEnd
)

// kindNames maps an eventKind to its wire type (the SSE event name).
var kindNames = [...]string{
	kindQueued:   api.EventQueued,
	kindStarted:  api.EventStarted,
	kindProgress: api.EventProgress,
	kindEnd:      api.EventEnd,
}

// frame is one event of a log: its type, its Progress, and the index of
// the rest of its JobStatus among the log's distinct statuses. A progress
// event differs from the one before it only in Progress, so a job's
// hundreds of frames share a handful of statuses.
type frame struct {
	kind     eventKind
	status   int32
	progress api.Progress
}

// closedWait is the wake-up channel handed out once a log is terminal.
var closedWait = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// eventLog is one job's append-only SSE event history. Every event keeps
// its strictly increasing sequence id (index+1), so a client reconnecting
// with Last-Event-ID replays exactly the frames it missed and then tails
// live appends — the same subscribe-before-replay discipline as the
// telemetry /events stream, with the log itself standing in for the
// subscription buffer (a log replay can never lose a racing append: the
// append lands at a higher seq and the next wait observes it).
//
// The log keeps frames, not events: after rebuilds each api.VariantEvent
// from its frame and status, so the served bytes are those of the full
// events while a finished fig6 job keeps ~33 KB of log instead of ~186 KB.
type eventLog struct {
	mu       sync.Mutex
	frames   []frame
	statuses []api.JobStatus // distinct statuses, Progress zeroed
	notify   chan struct{}   // made by a reader about to wait, closed by the next append
	done     bool
}

// append records one event, stamping its sequence id, and wakes waiters.
func (l *eventLog) append(kind eventKind, status api.JobStatus) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	progress := status.Progress
	status.Progress = api.Progress{}
	if n := len(l.statuses); n == 0 || l.statuses[n-1] != status {
		l.statuses = append(l.statuses, status)
	}
	l.frames = append(l.frames, frame{kind: kind, status: int32(len(l.statuses) - 1), progress: progress})
	l.wake()
}

// wake closes the channel a waiting reader holds, if any.
func (l *eventLog) wake() {
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
}

// close marks the log terminal: no more appends, and waiters drain what
// remains and stop. The frames and statuses are trimmed to their length,
// since a terminal log is kept as long as its job.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.done = true
	l.frames = append(make([]frame, 0, len(l.frames)), l.frames...)
	l.statuses = append(make([]api.JobStatus, 0, len(l.statuses)), l.statuses...)
	l.wake()
}

// after returns the events with Seq > after, a channel that closes on the
// next append, and whether the log is terminal. A streaming handler loops:
// write the batch, and when the log is terminal stop; otherwise wait on
// the channel (or the client's context) and call after again with the
// last written seq.
func (l *eventLog) after(after int64) ([]api.VariantEvent, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []api.VariantEvent
	if after >= 0 && after < int64(len(l.frames)) {
		out = make([]api.VariantEvent, 0, int64(len(l.frames))-after)
		for i := after; i < int64(len(l.frames)); i++ {
			f := &l.frames[i]
			status := l.statuses[f.status]
			status.Progress = f.progress
			out = append(out, api.VariantEvent{
				SchemaVersion: api.SchemaVersion,
				JobID:         status.ID,
				Seq:           i + 1,
				Type:          kindNames[f.kind],
				Status:        status,
			})
		}
	}
	if l.done {
		return out, closedWait, true
	}
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	return out, l.notify, false
}
