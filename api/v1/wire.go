package api

import (
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"strconv"
)

// The wire codec. Every served job moves three documents — its
// JobResult, one VariantEvent per SSE frame, and a Stability per variant
// inside both — and their reflection encode and decode had become the
// largest CPU cost of a warm job. The methods below encode by appending
// into one buffer and decode by walking the bytes once.
//
// Encoding is total: the bytes equal json.Marshal of the same value
// through method-free mirror types (the test oracle), and a non-finite
// float still fails with encoding/json's UnsupportedValueError. The
// service calls the methods directly: json.Marshal re-scans whatever a
// MarshalJSON method returns to compact it, at a cost near reflection's,
// which is why CampaignResult, marshaled alone only by clients, keeps
// encoding/json's reflection.
//
// Decoding takes a fast path only for the canonical subset of JSON the
// encoder emits: known lower-case keys, each at most once; strings of
// printable ASCII without escapes; integers that an int field accepts;
// no null except rciw's; and, for JobResult and VariantEvent, a zero
// target (encoding/json merges into a non-zero one). Any other input is
// decoded by encoding/json into a method-free mirror type, so values and
// errors stay exactly what encoding/json gives by construction — the
// fast path only has to agree with it on canonical input, which
// FuzzWireJSON checks.

// MarshalJSON appends the result document in one pass.
func (r JobResult) MarshalJSON() ([]byte, error) {
	e := encoder{b: make([]byte, 0, r.sizeHint())}
	e.jobResult(&r)
	return e.bytes()
}

// MarshalJSON appends the event frame's payload in one pass.
func (v VariantEvent) MarshalJSON() ([]byte, error) {
	e := encoder{b: make([]byte, 0, 512)}
	e.variantEvent(&v)
	return e.bytes()
}

// MarshalJSON encodes a non-finite RCIW as null; finite values encode
// exactly as the plain struct always did, and a non-finite mean, cv or
// target_rciw fails with encoding/json's UnsupportedValueError.
func (s Stability) MarshalJSON() ([]byte, error) {
	e := encoder{b: make([]byte, 0, 96+len(s.StopReason))}
	e.stability(&s)
	return e.bytes()
}

// plainJobResult and plainVariantEvent are the method-free mirrors the
// decoders fall back to: encoding/json decodes them exactly as it decoded
// the real types before they had methods.
type (
	plainJobResult    JobResult
	plainVariantEvent VariantEvent
)

// UnmarshalJSON decodes a result document, in one pass when it is
// canonical and the target is zero, through encoding/json otherwise.
func (r *JobResult) UnmarshalJSON(b []byte) error {
	if *r == (JobResult{}) {
		var v JobResult
		d := decoder{b: b}
		d.jobResult(&v)
		if d.end() {
			*r = v
			return nil
		}
	}
	return mirrorError(json.Unmarshal(b, (*plainJobResult)(r)), reflect.TypeFor[plainJobResult](), reflect.TypeFor[JobResult]())
}

// UnmarshalJSON decodes an event frame's payload, in one pass when it is
// canonical and the target is zero, through encoding/json otherwise.
func (v *VariantEvent) UnmarshalJSON(b []byte) error {
	if *v == (VariantEvent{}) {
		var ev VariantEvent
		d := decoder{b: b}
		d.variantEvent(&ev)
		if d.end() {
			*v = ev
			return nil
		}
	}
	return mirrorError(json.Unmarshal(b, (*plainVariantEvent)(v)), reflect.TypeFor[plainVariantEvent](), reflect.TypeFor[VariantEvent]())
}

// UnmarshalJSON decodes a null (or absent) rciw back to +Inf. It replaces
// every field, whatever the target held.
func (s *Stability) UnmarshalJSON(b []byte) error {
	var v Stability
	d := decoder{b: b}
	d.stability(&v)
	if d.end() {
		*s = v
		return nil
	}
	var w stabilityWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	s.N, s.Mean, s.CV = w.N, w.Mean, w.CV
	s.TargetRCIW, s.MissedTarget = w.TargetRCIW, w.MissedTarget
	s.Reps, s.StopReason = w.Reps, w.StopReason
	if w.RCIW != nil {
		s.RCIW = *w.RCIW
	} else {
		s.RCIW = math.Inf(1)
	}
	return nil
}

// stabilityWire is Stability's JSON shape for the decoding fallback: rciw
// rides a pointer so the degenerate +Inf (rejected by encoding/json)
// crosses the wire as null.
type stabilityWire struct {
	N            int      `json:"n"`
	Mean         float64  `json:"mean"`
	CV           float64  `json:"cv"`
	RCIW         *float64 `json:"rciw"`
	TargetRCIW   float64  `json:"target_rciw,omitempty"`
	MissedTarget bool     `json:"missed_target,omitempty"`
	Reps         int      `json:"reps,omitempty"`
	StopReason   string   `json:"stop_reason,omitempty"`
}

// mirrorError makes a type error raised while decoding a mirror read as
// encoding/json reported it for the real type: the mirror's name appears
// only at its own top level.
func mirrorError(err error, mirror, real reflect.Type) error {
	if e, ok := err.(*json.UnmarshalTypeError); ok {
		if e.Type == mirror {
			e.Type = real
		}
		if e.Struct == mirror.Name() {
			e.Struct = real.Name()
		}
	}
	return err
}

// variantSizeHint bounds the encoded size of a variant without its
// strings: the keys, a stability object and six floats of up to 24 bytes.
const variantSizeHint = 320

func (r *JobResult) sizeHint() int {
	n := 512
	if r.Campaign != nil {
		for i := range r.Campaign.Variants {
			v := &r.Campaign.Variants[i]
			n += variantSizeHint + len(v.Name) + len(v.Unit) + len(v.Error) + len(v.Stability.StopReason)
		}
	}
	return n
}

// encoder appends one compact wire document. The first non-finite float
// records encoding/json's error and the document is discarded.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) bytes() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }
func (e *encoder) int(n int64)  { e.b = strconv.AppendInt(e.b, n, 10) }
func (e *encoder) str(s string) { e.b = appendString(e.b, s) }
func (e *encoder) bool(v bool)  { e.b = strconv.AppendBool(e.b, v) }

func (e *encoder) float(f float64) {
	var err error
	if e.b, err = appendFloat(e.b, f); err != nil && e.err == nil {
		e.err = err
	}
}

func (e *encoder) jobResult(r *JobResult) {
	e.raw(`{"schema_version":`)
	e.str(r.SchemaVersion)
	e.raw(`,"job":`)
	e.jobStatus(&r.Job)
	if s := r.Serving; s != nil {
		e.raw(`,"serving":{"launches":`)
		e.int(int64(s.Launches))
		e.raw(`,"cache_hits":`)
		e.int(int64(s.CacheHits))
		e.raw(`,"cache_hit_ratio":`)
		e.float(s.CacheHitRatio)
		e.raw(`,"failures":`)
		e.int(int64(s.Failures))
		e.raw(`,"retries":`)
		e.int(int64(s.Retries))
		e.raw(`,"quarantined":`)
		e.int(int64(s.Quarantined))
		e.raw(`,"key_errors":`)
		e.int(int64(s.KeyErrors))
		e.optInt(`,"reps_saved":`, s.RepsSaved)
		e.optInt(`,"reps_topup":`, s.RepsTopUp)
		e.optInt(`,"reps_executed":`, s.RepsExecuted)
		e.raw("}")
	}
	if r.Campaign != nil {
		e.raw(`,"campaign":`)
		e.campaign(r.Campaign)
	}
	e.raw("}")
}

func (e *encoder) optInt(key string, n int) {
	if n != 0 {
		e.raw(key)
		e.int(int64(n))
	}
}

func (e *encoder) jobStatus(s *JobStatus) {
	e.raw(`{"schema_version":`)
	e.str(s.SchemaVersion)
	e.raw(`,"id":`)
	e.str(s.ID)
	e.raw(`,"tenant":`)
	e.str(s.Tenant)
	e.raw(`,"name":`)
	e.str(s.Name)
	e.raw(`,"state":`)
	e.str(s.State)
	e.raw(`,"submitted_unix_ms":`)
	e.int(s.SubmittedUnixMS)
	if s.StartedUnixMS != 0 {
		e.raw(`,"started_unix_ms":`)
		e.int(s.StartedUnixMS)
	}
	if s.FinishedUnixMS != 0 {
		e.raw(`,"finished_unix_ms":`)
		e.int(s.FinishedUnixMS)
	}
	p := &s.Progress
	e.raw(`,"progress":{"done":`)
	e.int(int64(p.Done))
	e.raw(`,"emitted":`)
	e.int(int64(p.Emitted))
	e.raw(`,"generating":`)
	e.bool(p.Generating)
	e.raw(`,"cache_hits":`)
	e.int(int64(p.CacheHits))
	e.raw(`,"failed":`)
	e.int(int64(p.Failed))
	e.raw(`,"launches":`)
	e.int(int64(p.Launches))
	e.raw(`,"retries":`)
	e.int(int64(p.Retries))
	e.raw("}")
	if err := s.Error; err != nil {
		e.raw(`,"error":{"schema_version":`)
		e.str(err.SchemaVersion)
		e.raw(`,"code":`)
		e.str(err.Code)
		e.raw(`,"message":`)
		e.str(err.Message)
		e.raw("}")
	}
	e.raw("}")
}

func (e *encoder) campaign(c *CampaignResult) {
	e.raw(`{"emitted":`)
	e.int(int64(c.Emitted))
	e.raw(`,"variants":`)
	if c.Variants == nil {
		e.raw("null}")
		return
	}
	e.raw("[")
	for i := range c.Variants {
		if i > 0 {
			e.raw(",")
		}
		v := &c.Variants[i]
		e.raw(`{"index":`)
		e.int(int64(v.Index))
		e.raw(`,"name":`)
		e.str(v.Name)
		e.raw(`,"value":`)
		e.float(v.Value)
		e.raw(`,"unit":`)
		e.str(v.Unit)
		e.raw(`,"value_per_element":`)
		e.float(v.ValuePerElement)
		e.raw(`,"iterations":`)
		e.int(v.Iterations)
		if v.StaticBoundValue != 0 {
			e.raw(`,"static_bound_value":`)
			e.float(v.StaticBoundValue)
		}
		e.raw(`,"stability":`)
		e.stability(&v.Stability)
		if v.Error != "" {
			e.raw(`,"error":`)
			e.str(v.Error)
		}
		e.raw("}")
	}
	e.raw("]}")
}

func (e *encoder) variantEvent(v *VariantEvent) {
	e.raw(`{"schema_version":`)
	e.str(v.SchemaVersion)
	e.raw(`,"job_id":`)
	e.str(v.JobID)
	e.raw(`,"seq":`)
	e.int(v.Seq)
	e.raw(`,"type":`)
	e.str(v.Type)
	e.raw(`,"status":`)
	e.jobStatus(&v.Status)
	e.raw("}")
}

func (e *encoder) stability(s *Stability) {
	e.raw(`{"n":`)
	e.int(int64(s.N))
	e.raw(`,"mean":`)
	e.float(s.Mean)
	e.raw(`,"cv":`)
	e.float(s.CV)
	e.raw(`,"rciw":`)
	if math.IsInf(s.RCIW, 0) || math.IsNaN(s.RCIW) {
		e.raw("null")
	} else {
		e.float(s.RCIW)
	}
	if s.TargetRCIW != 0 {
		e.raw(`,"target_rciw":`)
		e.float(s.TargetRCIW)
	}
	if s.MissedTarget {
		e.raw(`,"missed_target":true`)
	}
	e.optInt(`,"reps":`, s.Reps)
	if s.StopReason != "" {
		e.raw(`,"stop_reason":`)
		e.str(s.StopReason)
	}
	e.raw("}")
}

// appendFloat appends f in encoding/json's float64 format: the shortest
// 'f' form, or 'e' outside [1e-6, 1e21) with a one-digit negative
// exponent trimmed to e-7 rather than e-07. A non-finite f fails as it
// does in encoding/json.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string: as-is when encoding/json would
// copy it verbatim, through json.Marshal otherwise (HTML escaping, control
// bytes, invalid UTF-8). The launcher's report applies the same rule; this
// package imports nothing from internal/, so it keeps its own copy.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// decoder walks one wire document in the canonical subset. Any departure
// sets bad, after which the document goes to encoding/json; the values
// decoded so far are dropped.
type decoder struct {
	b   []byte
	i   int
	bad bool
	// unit is the last decoded variant unit: the next equal one shares it
	// instead of allocating.
	unit string
}

// end reports whether the whole document was canonical, with nothing but
// white space after it.
func (d *decoder) end() bool {
	d.space()
	return !d.bad && d.i == len(d.b)
}

func (d *decoder) space() {
	for d.i < len(d.b) && d.b[d.i] <= ' ' {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// token consumes the byte c if it comes next.
func (d *decoder) token(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *decoder) expect(c byte) {
	if !d.token(c) {
		d.bad = true
	}
}

// literal consumes the word lit (true, false, null) if it comes next.
func (d *decoder) literal(lit string) bool {
	d.space()
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// object consumes an object's opening brace and reports whether a member
// follows; next consumes what follows a member and reports whether
// another one does. Together:
//
//	for more := d.object(); more; more = d.next() {
//		switch d.key(&seen, "a", "b") { case 0: …; case 1: … }
//	}
func (d *decoder) object() bool {
	d.expect('{')
	return !d.bad && !d.token('}')
}

func (d *decoder) next() bool {
	if d.token(',') {
		return !d.bad
	}
	d.expect('}')
	return false
}

// key reads a member name and its colon and returns its index in keys. A
// name seen before in this object (each key's index is its bit in seen)
// marks the document bad; so does a name not in keys, or one written with
// an escape. The search starts after the last key seen, where the
// encoder's order puts the next one.
func (d *decoder) key(seen *uint32, keys ...string) int {
	d.space()
	for j, i := 0, bits.Len32(*seen); j < len(keys); j, i = j+1, i+1 {
		if i >= len(keys) {
			i -= len(keys)
		}
		k := keys[i]
		if end := d.i + len(k) + 1; end < len(d.b) && d.b[d.i] == '"' && d.b[end] == '"' && string(d.b[d.i+1:end]) == k {
			d.i = end + 1
			d.expect(':')
			if *seen&(1<<i) != 0 {
				d.bad = true
			}
			*seen |= 1 << i
			return i
		}
	}
	d.bad = true
	return -1
}

// plain marks the bytes a canonical string holds as they are: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// rawString reads a string of plain bytes; the result aliases the
// document.
func (d *decoder) rawString() []byte {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == '"' {
		j := d.i + 1
		for j < len(d.b) && plain[d.b[j]] {
			j++
		}
		if j < len(d.b) && d.b[j] == '"' {
			s := d.b[d.i+1 : j]
			d.i = j + 1
			return s
		}
	}
	d.bad = true
	return nil
}

func (d *decoder) str() string { return string(d.rawString()) }

// words are the protocol's fixed strings: a decoded schema version, job
// state or event type shares one of these instead of allocating.
var words = [...]string{SchemaVersion, StateQueued, StateRunning, StateDone, StateFailed,
	StateRejected, StateInterrupted, EventStarted, EventProgress, EventEnd}

func (d *decoder) word() string {
	raw := d.rawString()
	for _, w := range words {
		if string(raw) == w {
			return w
		}
	}
	return string(raw)
}

// number scans one JSON number; integer reports that it has neither a
// fraction nor an exponent.
func (d *decoder) number() (lit []byte, integer bool) {
	d.space()
	b, j := d.b, d.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		j = digits(b, j)
	default:
		d.bad = true
		return nil, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		integer = false
		if j = digits(b, j+1); b[j-1] == '.' {
			d.bad = true
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		integer = false
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			d.bad = true
		}
		j = k
	}
	lit, d.i = b[d.i:j], j
	return lit, integer
}

// digits returns the index after the run of decimal digits at j.
func digits(b []byte, j int) int {
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	return j
}

// integer reads an integer that encoding/json would store in an int of
// the given bit size; a fraction, an exponent or overflow is left to
// encoding/json's error.
func (d *decoder) integer(bitSize int) int64 {
	lit, integer := d.number()
	if !integer {
		d.bad = true
		return 0
	}
	mag := lit
	if lit[0] == '-' {
		mag = lit[1:]
	}
	if bitSize == 64 && len(mag) <= 18 { // below 2^63: cannot overflow
		var n int64
		for _, c := range mag {
			n = n*10 + int64(c-'0')
		}
		if len(mag) < len(lit) {
			n = -n
		}
		return n
	}
	n, err := strconv.ParseInt(string(lit), 10, bitSize)
	if err != nil {
		d.bad = true
	}
	return n
}

func (d *decoder) int() int { return int(d.integer(strconv.IntSize)) }

func (d *decoder) float() float64 {
	lit, _ := d.number()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.bad = true
	}
	return f
}

func (d *decoder) bool() bool {
	if d.literal("true") {
		return true
	}
	if !d.literal("false") {
		d.bad = true
	}
	return false
}

func (d *decoder) jobResult(r *JobResult) {
	var seen uint32
	for more := d.object(); more; more = d.next() {
		switch d.key(&seen, "schema_version", "job", "serving", "campaign") {
		case 0:
			r.SchemaVersion = d.word()
		case 1:
			d.jobStatus(&r.Job)
		case 2:
			r.Serving = new(ServingStats)
			d.serving(r.Serving)
		case 3:
			r.Campaign = new(CampaignResult)
			d.campaign(r.Campaign)
		}
	}
}

func (d *decoder) serving(s *ServingStats) {
	var seen uint32
	for more := d.object(); more; more = d.next() {
		switch d.key(&seen, "launches", "cache_hits", "cache_hit_ratio", "failures", "retries",
			"quarantined", "key_errors", "reps_saved", "reps_topup", "reps_executed") {
		case 0:
			s.Launches = d.int()
		case 1:
			s.CacheHits = d.int()
		case 2:
			s.CacheHitRatio = d.float()
		case 3:
			s.Failures = d.int()
		case 4:
			s.Retries = d.int()
		case 5:
			s.Quarantined = d.int()
		case 6:
			s.KeyErrors = d.int()
		case 7:
			s.RepsSaved = d.int()
		case 8:
			s.RepsTopUp = d.int()
		case 9:
			s.RepsExecuted = d.int()
		}
	}
}

func (d *decoder) jobStatus(s *JobStatus) {
	var seen uint32
	for more := d.object(); more; more = d.next() {
		switch d.key(&seen, "schema_version", "id", "tenant", "name", "state",
			"submitted_unix_ms", "started_unix_ms", "finished_unix_ms", "progress", "error") {
		case 0:
			s.SchemaVersion = d.word()
		case 1:
			s.ID = d.str()
		case 2:
			s.Tenant = d.str()
		case 3:
			s.Name = d.str()
		case 4:
			s.State = d.word()
		case 5:
			s.SubmittedUnixMS = d.integer(64)
		case 6:
			s.StartedUnixMS = d.integer(64)
		case 7:
			s.FinishedUnixMS = d.integer(64)
		case 8:
			d.progress(&s.Progress)
		case 9:
			s.Error = new(Error)
			d.wireError(s.Error)
		}
	}
}

func (d *decoder) progress(p *Progress) {
	var seen uint32
	for more := d.object(); more; more = d.next() {
		switch d.key(&seen, "done", "emitted", "generating", "cache_hits", "failed", "launches", "retries") {
		case 0:
			p.Done = d.int()
		case 1:
			p.Emitted = d.int()
		case 2:
			p.Generating = d.bool()
		case 3:
			p.CacheHits = d.int()
		case 4:
			p.Failed = d.int()
		case 5:
			p.Launches = d.int()
		case 6:
			p.Retries = d.int()
		}
	}
}

func (d *decoder) wireError(e *Error) {
	var seen uint32
	for more := d.object(); more; more = d.next() {
		switch d.key(&seen, "schema_version", "code", "message") {
		case 0:
			e.SchemaVersion = d.word()
		case 1:
			e.Code = d.str()
		case 2:
			e.Message = d.str()
		}
	}
}

func (d *decoder) campaign(c *CampaignResult) {
	var seen uint32
	for more := d.object(); more; more = d.next() {
		switch d.key(&seen, "emitted", "variants") {
		case 0:
			c.Emitted = d.int()
		case 1:
			d.expect('[')
			// Emitted (encoded first) sizes the slice; each element
			// takes at least three bytes, which bounds a hostile count.
			c.Variants = make([]VariantResult, 0, max(0, min(c.Emitted, (len(d.b)-d.i)/3)))
			if d.bad || d.token(']') {
				break
			}
			for {
				c.Variants = append(c.Variants, VariantResult{})
				d.variant(&c.Variants[len(c.Variants)-1])
				if d.bad || !d.token(',') {
					break
				}
			}
			d.expect(']')
		}
	}
}

func (d *decoder) variant(v *VariantResult) {
	var seen uint32
	for more := d.object(); more; more = d.next() {
		switch d.key(&seen, "index", "name", "value", "unit", "value_per_element",
			"iterations", "static_bound_value", "stability", "error") {
		case 0:
			v.Index = d.int()
		case 1:
			v.Name = d.str()
		case 2:
			v.Value = d.float()
		case 3:
			if unit := d.rawString(); string(unit) != d.unit {
				d.unit = string(unit)
			}
			v.Unit = d.unit
		case 4:
			v.ValuePerElement = d.float()
		case 5:
			v.Iterations = d.integer(64)
		case 6:
			v.StaticBoundValue = d.float()
		case 7:
			d.stability(&v.Stability)
		case 8:
			v.Error = d.str()
		}
	}
}

func (d *decoder) variantEvent(v *VariantEvent) {
	var seen uint32
	for more := d.object(); more; more = d.next() {
		switch d.key(&seen, "schema_version", "job_id", "seq", "type", "status") {
		case 0:
			v.SchemaVersion = d.word()
		case 1:
			v.JobID = d.str()
		case 2:
			v.Seq = d.integer(64)
		case 3:
			v.Type = d.word()
		case 4:
			d.jobStatus(&v.Status)
		}
	}
}

// stability replaces *s, as Stability.UnmarshalJSON does: an absent or
// null rciw is +Inf.
func (d *decoder) stability(s *Stability) {
	*s = Stability{RCIW: math.Inf(1)}
	var seen uint32
	for more := d.object(); more; more = d.next() {
		switch d.key(&seen, "n", "mean", "cv", "rciw", "target_rciw", "missed_target", "reps", "stop_reason") {
		case 0:
			s.N = d.int()
		case 1:
			s.Mean = d.float()
		case 2:
			s.CV = d.float()
		case 3:
			if !d.literal("null") {
				s.RCIW = d.float()
			}
		case 4:
			s.TargetRCIW = d.float()
		case 5:
			s.MissedTarget = d.bool()
		case 6:
			s.Reps = d.int()
		case 7:
			s.StopReason = d.str()
		}
	}
}
