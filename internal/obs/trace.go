package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanRecord is one finished (or, in start callbacks, just-started)
// span: a named, annotated time interval in the pipeline.
type SpanRecord struct {
	// ID is unique within the tracer; Parent is the enclosing span's ID
	// (0 for roots). IDs are allocation-ordered, not deterministic across
	// differently parallel runs — compare spans by Name and Attrs.
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Time
	// Duration is zero in Subscriber.SpanStart records.
	Duration time.Duration
	Attrs    []Attr
}

// Attr returns the value of the named attribute (nil if absent).
func (r SpanRecord) Attr(key string) any {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Tracer collects spans from any number of goroutines. The zero value
// is not usable; call NewTracer. A nil *Tracer is a valid no-op tracer.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID uint64
	spans  []SpanRecord
	subs   []Subscriber // copy-on-write: readers iterate a snapshot
}

// NewTracer returns an empty tracer whose trace clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Subscriber observes a tracer's span stream: SpanStart runs when a
// span starts (its record has zero Duration), SpanEnd when it ends.
// Both run synchronously on the goroutine starting or ending the span,
// so they must be fast and must not start or end spans themselves.
type Subscriber interface {
	SpanStart(SpanRecord)
	SpanEnd(SpanRecord)
}

// Subscribe registers s for every span started or ended after the call
// and returns a function removing it. On a nil tracer it registers
// nothing.
func (t *Tracer) Subscribe(s Subscriber) (remove func()) {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	t.subs = append(t.subs[:len(t.subs):len(t.subs)], s)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		for i, x := range t.subs {
			if x == s {
				t.subs = append(t.subs[:i:i], t.subs[i+1:]...)
				return
			}
		}
	}
}

// Subscribers returns the registered subscribers, in registration order.
func (t *Tracer) Subscribers() []Subscriber {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.subs
}

// Span is an in-flight interval. Nil spans (from a nil tracer) are
// valid: every method no-ops and StartChild returns nil again.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// StartSpan starts a root span.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	return t.startSpan(0, name, attrs)
}

// Start starts a span under parent, or a root span when parent is nil —
// the form instrumented code uses to thread an optional enclosing span.
func (t *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	if parent != nil && parent.t != nil {
		return parent.StartChild(name, attrs...)
	}
	return t.startSpan(0, name, attrs)
}

// StartChild starts a nested span. Safe to call from any goroutine —
// sibling children may run concurrently.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil || s.t == nil {
		return nil
	}
	return s.t.startSpan(s.id, name, attrs)
}

func (t *Tracer) startSpan(parent uint64, name string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	s := &Span{t: t, id: t.nextID, parent: parent, name: name,
		start: time.Now(), attrs: append([]Attr(nil), attrs...)}
	subs := t.subs
	t.mu.Unlock()
	if len(subs) > 0 {
		rec := s.record(0)
		for _, sub := range subs {
			sub.SpanStart(rec)
		}
	}
	return s
}

// SetAttr sets (or replaces) an attribute on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End sets attrs — the counts a stage reports once it is done — then
// finishes the span and records it. Double-End is a no-op.
func (s *Span) End(attrs ...Attr) {
	if s == nil || s.t == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.mu.Unlock()
	for _, a := range attrs {
		s.SetAttr(a.Key, a.Value)
	}

	rec := s.record(time.Since(s.start))
	t := s.t
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	subs := t.subs
	t.mu.Unlock()
	for _, sub := range subs {
		sub.SpanEnd(rec)
	}
}

func (s *Span) record(d time.Duration) SpanRecord {
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	s.mu.Unlock()
	return SpanRecord{ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Duration: d, Attrs: attrs}
}

// Spans returns a snapshot of every finished span, in end order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// SpanNames returns the distinct names of finished spans, sorted.
func (t *Tracer) SpanNames() []string {
	seen := map[string]bool{}
	for _, s := range t.Spans() {
		seen[s.Name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// Chrome trace_event export.

// chromeEvent is one complete ("ph":"X") event of the Chrome trace
// format, the JSON that chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"` // microseconds since trace epoch
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the finished spans as Chrome trace_event
// JSON. Spans are laid out on synthetic threads ("lanes"): a span lands
// on its parent's lane when it nests there in time, so call structure
// reads as slice nesting; concurrent siblings spill onto further lanes.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := w.Write([]byte(`{"traceEvents":[]}` + "\n"))
		return err
	}
	spans := t.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		// Equal starts: longer first so parents precede their children.
		if spans[i].Duration != spans[j].Duration {
			return spans[i].Duration > spans[j].Duration
		}
		return spans[i].ID < spans[j].ID
	})

	t.mu.Lock()
	epoch := t.epoch
	t.mu.Unlock()

	type iv struct{ start, end int64 } // microseconds
	lanes := make([][]iv, 0, 4)        // per-lane stack of open intervals
	laneOf := make(map[uint64]int, len(spans))

	fits := func(lane int, s iv) bool {
		st := lanes[lane]
		// Drop intervals that ended before this span starts (spans are
		// visited in start order, so they can never matter again).
		for len(st) > 0 && st[len(st)-1].end <= s.start {
			st = st[:len(st)-1]
		}
		lanes[lane] = st
		return len(st) == 0 || (s.start >= st[len(st)-1].start && s.end <= st[len(st)-1].end)
	}

	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		start := s.Start.Sub(epoch).Microseconds()
		span := iv{start: start, end: start + s.Duration.Microseconds()}
		lane := -1
		if pl, ok := laneOf[s.Parent]; ok && fits(pl, span) {
			lane = pl
		} else {
			for l := range lanes {
				if fits(l, span) {
					lane = l
					break
				}
			}
		}
		if lane == -1 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], span)
		laneOf[s.ID] = lane

		ev := chromeEvent{
			Name: s.Name, Cat: "dtaint", Ph: "X",
			Ts: span.start, Dur: s.Duration.Microseconds(),
			Pid: 1, Tid: lane + 1,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
