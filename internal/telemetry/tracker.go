package telemetry

import (
	"sort"
	"sync"
	"time"
)

// retainFinished bounds how many completed campaigns a tracker keeps for
// /debug/campaigns after they end.
const retainFinished = 16

// CampaignUpdate is one event of a campaign's observer stream: the
// engine's accounting after a variant finished, or the settled totals at
// the end of the run.
type CampaignUpdate struct {
	// Done counts finished variants (measured, cache-hit or failed); it
	// never decreases along one campaign's stream.
	Done int `json:"done"`
	// Emitted counts variants the generator has produced so far; it is
	// the final total once Generating is false.
	Emitted int `json:"emitted"`
	// Generating reports whether the generator is still emitting.
	Generating bool `json:"generating"`
	// CacheHits and Failed break down the finished variants.
	CacheHits int `json:"cache_hits"`
	Failed    int `json:"failed"`
	// Launches, Retries, Quarantined and KeyErrors are the engine's
	// launch and resilience accounting so far. KeyErrors counts variants
	// measured without a derivable cache key (they bypass the cache; a
	// warm re-run repeats their launches).
	Launches    int `json:"launches"`
	Retries     int `json:"retries"`
	Quarantined int `json:"quarantined"`
	KeyErrors   int `json:"key_errors"`
}

// CampaignSnapshot is the JSON face of one tracked campaign, served by
// /debug/campaigns and embedded in /events payloads: its latest update
// plus what the tracker derives from it.
type CampaignSnapshot struct {
	ID   int64  `json:"id"`
	Name string `json:"name"`
	CampaignUpdate
	// CacheHitRatio is CacheHits/Done (0 before the first completion).
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// ElapsedSeconds is wall time since Begin; ETASeconds extrapolates
	// the remaining variants from the completion rate so far (0 until
	// the first variant completes, and a floor while Generating is true
	// because the final total is still unknown).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ETASeconds     float64 `json:"eta_seconds"`
	Finished       bool    `json:"finished"`
	Err            string  `json:"error,omitempty"`
}

// Event is one campaign lifecycle event on the /events stream. Seq is a
// tracker-wide monotonic sequence number: subscribers observe strictly
// increasing values, and a gap means the subscriber's buffer overflowed
// and events were dropped.
type Event struct {
	Seq      int64            `json:"seq"`
	Type     string           `json:"type"` // "begin" | "progress" | "end"
	Campaign CampaignSnapshot `json:"campaign"`
}

// Tracker registers in-flight campaigns and fans their progress out to
// subscribers. A nil *Tracker is the disabled default: Begin returns a
// nil *Campaign whose methods all no-op.
type Tracker struct {
	mu       sync.Mutex
	nextID   int64
	nextSeq  int64
	nextSub  int64
	live     map[int64]*Campaign
	finished []*Campaign
	subs     map[int64]chan Event
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{live: map[int64]*Campaign{}, subs: map[int64]chan Event{}}
}

// Campaign is one tracked campaign run, and an observer of the engine's
// event stream (campaign.Observer): pass it in campaign.Options.Observers.
// All mutable state is guarded by the owning tracker's lock, which also
// orders the emitted events.
type Campaign struct {
	t       *Tracker
	id      int64
	name    string
	started time.Time

	upd      CampaignUpdate
	finished bool
	errMsg   string
}

// Begin registers a new campaign and emits its "begin" event. On a nil
// tracker it returns nil, which Update and End accept.
func (t *Tracker) Begin(name string) *Campaign {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	c := &Campaign{t: t, id: t.nextID, name: name, started: time.Now()}
	t.live[c.id] = c
	t.emitLocked("begin", c)
	return c
}

// Update records a progress delta and emits a "progress" event.
func (c *Campaign) Update(u CampaignUpdate) {
	if c == nil {
		return
	}
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	if c.finished {
		return
	}
	c.upd = u
	c.t.emitLocked("progress", c)
}

// End marks the campaign finished (err may be nil) and emits its "end"
// event. Later Update/End calls are ignored.
func (c *Campaign) End(err error) {
	if c == nil {
		return
	}
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	if c.finished {
		return
	}
	c.finished = true
	if err != nil {
		c.errMsg = err.Error()
	}
	delete(c.t.live, c.id)
	c.t.finished = append(c.t.finished, c)
	if len(c.t.finished) > retainFinished {
		c.t.finished = c.t.finished[len(c.t.finished)-retainFinished:]
	}
	c.t.emitLocked("end", c)
}

// snapshotLocked renders the campaign's current state; the caller holds
// the tracker lock.
func (c *Campaign) snapshotLocked(now time.Time) CampaignSnapshot {
	s := CampaignSnapshot{
		ID:             c.id,
		Name:           c.name,
		CampaignUpdate: c.upd,
		Finished:       c.finished,
		Err:            c.errMsg,
	}
	s.ElapsedSeconds = now.Sub(c.started).Seconds()
	if s.Done > 0 {
		s.CacheHitRatio = float64(s.CacheHits) / float64(s.Done)
		if !s.Finished && s.Emitted > s.Done {
			s.ETASeconds = s.ElapsedSeconds / float64(s.Done) * float64(s.Emitted-s.Done)
		}
	}
	return s
}

// emitLocked fans one event out to every subscriber; the caller holds the
// tracker lock. Sends never block: a subscriber whose buffer is full
// loses the event (visible to it as a Seq gap).
func (t *Tracker) emitLocked(kind string, c *Campaign) {
	if len(t.subs) == 0 {
		return
	}
	t.nextSeq++
	ev := Event{Seq: t.nextSeq, Type: kind, Campaign: c.snapshotLocked(time.Now())}
	for _, ch := range t.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe registers an event channel with the given buffer size (min 1)
// and returns it with a cancel function. Cancel closes the channel after
// unregistering it; pending buffered events remain readable.
func (t *Tracker) Subscribe(buffer int) (<-chan Event, func()) {
	if t == nil {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan Event, buffer)
	t.mu.Lock()
	t.nextSub++
	id := t.nextSub
	t.subs[id] = ch
	t.mu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			t.mu.Lock()
			delete(t.subs, id)
			t.mu.Unlock()
			close(ch)
		})
	}
}

// Snapshots returns every live campaign plus the retained finished ones,
// ordered by campaign id. On a nil tracker it returns nil.
func (t *Tracker) Snapshots() []CampaignSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	out := make([]CampaignSnapshot, 0, len(t.live)+len(t.finished))
	for _, c := range t.live {
		out = append(out, c.snapshotLocked(now))
	}
	for _, c := range t.finished {
		out = append(out, c.snapshotLocked(now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
