package events

import (
	"log/slog"
	"sync"
	"time"

	"dtaint/internal/obs"
)

// Sinks are the telemetry surfaces derived from one tracer's span
// stream. A zero field turns its surface off.
type Sinks struct {
	// Journal receives stage, binary, component, and progress events,
	// each stamped with Job.
	Journal *Journal
	Job     string
	// Metrics receives the stage counters and per-function histograms.
	Metrics *obs.Registry
	// Log receives a "stage start" (debug) and a "stage done" (info)
	// line per stage span; Job, when set, is attached to every line.
	Log *slog.Logger
}

var observeMu sync.Mutex

// Observe returns the tracer one scan call reports through, with the
// fixed span subscribers for s attached — the one place a span stream
// is wired to the journal, the registry, and the logger. A non-nil t
// is subscribed once (observing it again with the same sinks is a
// no-op) and returned, so a caller-kept tracer never accumulates
// subscribers. With a nil t, Observe returns a fresh tracer that lives
// for the call when s names any surface, and nil when nothing listens.
func Observe(t *obs.Tracer, s Sinks) *obs.Tracer {
	if s.Journal == nil && s.Metrics == nil && s.Log == nil {
		return t
	}
	observeMu.Lock()
	defer observeMu.Unlock()
	if t == nil {
		t = obs.NewTracer()
	} else if SinksOf(t) == s {
		return t
	}
	sub := &subscriber{sinks: s, log: s.Log, open: make(map[uint64]*openSpan)}
	if sub.log != nil && s.Job != "" {
		sub.log = sub.log.With("job", s.Job)
	}
	t.Subscribe(sub)
	return t
}

// SinksOf returns the sinks Observe attached to t (zero when none) —
// how the stall watchdog finds the journal and registry of the run it
// watches.
func SinksOf(t *obs.Tracer) Sinks {
	for _, sub := range t.Subscribers() {
		if s, ok := sub.(*subscriber); ok {
			return s.sinks
		}
	}
	return Sinks{}
}

// leafSpans are per-unit spans too fine-grained to journal or log one
// line each: they count toward progress, feed the per-function
// histograms, and (scc-component) journal one scc.done event.
var leafSpans = map[string]bool{
	"ssa-function":  true,
	"ddg-function":  true,
	"scc-component": true,
}

// progressUnits maps a unit span to the attr in which its parent stage
// declares the unit total. The journal subscriber counts finished units
// against that total: functions and components report at decile
// crossings (about ten events a stage whatever the unit count),
// binaries every one.
var progressUnits = map[string]string{
	"ssa-function":  "functions",
	"scc-component": "components",
	"scan-binary":   "binaries",
}

// logContext maps span attrs that scope every log line below the span
// to their log attr names.
var logContext = map[string]string{"image": "image", "path": "binary", "sha": "sha"}

// subscriber derives the journal events, registry series, and log lines
// of its Sinks from span records.
type subscriber struct {
	sinks Sinks
	log   *slog.Logger

	mu   sync.Mutex
	open map[uint64]*openSpan // open non-leaf spans by ID
}

// openSpan is what children inherit from a started span.
type openSpan struct {
	name  string
	attrs []obs.Attr // start attrs: progress totals, log context
	path  string     // binary path, inherited down the tree
	ctx   []any      // log context inherited from the ancestors
	done  int        // finished progress units under this span
	meter rateMeter
}

// SpanStart implements obs.Subscriber.
func (s *subscriber) SpanStart(rec obs.SpanRecord) {
	if leafSpans[rec.Name] {
		return
	}
	o := &openSpan{name: rec.Name, attrs: rec.Attrs}
	s.mu.Lock()
	if p := s.open[rec.Parent]; p != nil {
		o.path = p.path
		o.ctx = p.ctx
		for _, a := range p.attrs {
			if k := logContext[a.Key]; k != "" {
				o.ctx = append(o.ctx[:len(o.ctx):len(o.ctx)], k, a.Value)
			}
		}
	}
	if p, _ := rec.Attr("path").(string); p != "" {
		o.path = p
	}
	s.open[rec.ID] = o
	s.mu.Unlock()

	if rec.Name == "scan-binary" {
		s.emit(ScanEvent{Type: TypeBinaryStart, Path: o.path, Attrs: attrMap(rec.Attrs, "path", "sha")})
	} else {
		s.emit(ScanEvent{Type: TypeStageStart, Stage: rec.Name, Path: o.path, Attrs: attrMap(rec.Attrs)})
	}
	if s.log != nil {
		s.log.Debug("stage start", append(o.ctx[:len(o.ctx):len(o.ctx)], "stage", rec.Name)...)
	}
}

// SpanEnd implements obs.Subscriber.
func (s *subscriber) SpanEnd(rec obs.SpanRecord) {
	if s.sinks.Metrics != nil {
		recordMetrics(s.sinks.Metrics, rec)
	}
	var progress *ScanEvent
	s.mu.Lock()
	p := s.open[rec.Parent]
	if key, ok := progressUnits[rec.Name]; ok && p != nil {
		progress = p.unitDone(key, rec.Name == "scan-binary")
	}
	o := s.open[rec.ID]
	delete(s.open, rec.ID)
	s.mu.Unlock()

	switch {
	case rec.Name == "scc-component":
		// Components replayed from a summary store count as progress
		// but did no analysis to report.
		if rec.Attr("replayed") == nil && p != nil {
			s.emit(ScanEvent{Type: TypeComponentDone, Stage: p.name, Path: p.path,
				Duration: rec.Duration, Attrs: attrMap(rec.Attrs)})
		}
	case o == nil: // a leaf, or a span started before the subscription
	case rec.Name == "scan-binary":
		s.emit(ScanEvent{Type: TypeBinaryDone, Path: o.path,
			Duration: rec.Duration, Attrs: attrMap(rec.Attrs, "path", "sha")})
	default:
		s.emit(ScanEvent{Type: TypeStageEnd, Stage: rec.Name, Path: o.path,
			Duration: rec.Duration, Attrs: attrMap(rec.Attrs)})
	}
	if o != nil && s.log != nil {
		args := append(o.ctx[:len(o.ctx):len(o.ctx)], "stage", rec.Name, "seconds", rec.Duration.Seconds())
		for _, a := range rec.Attrs {
			args = append(args, a.Key, a.Value)
		}
		s.log.Info("stage done", args...)
	}
	if progress != nil {
		s.emit(*progress)
	}
}

// emit journals ev under the sinks' job.
func (s *subscriber) emit(ev ScanEvent) {
	ev.Job = s.sinks.Job
	s.sinks.Journal.Append(ev)
}

// unitDone counts one finished unit under the stage and returns the
// progress event to journal, if any: every unit when every is set,
// else only decile crossings. Callers hold the subscriber lock, so done
// values are unique and the crossings — a pure function of done and
// total — are identical for any worker interleaving.
func (o *openSpan) unitDone(totalKey string, every bool) *ScanEvent {
	o.done++
	total := 0
	for _, a := range o.attrs {
		if a.Key == totalKey {
			total, _ = attrInt(a.Value)
		}
	}
	if total <= 0 || (!every && o.done*10/total == (o.done-1)*10/total) {
		return nil
	}
	ev := &ScanEvent{Type: TypeProgress, Stage: o.name, Path: o.path, Done: o.done, Total: total}
	ev.Rate, ev.ETA = o.meter.observe(now(), o.done, total)
	return ev
}

// attrMap converts span attrs to an event attr map, dropping the
// listed keys (lifted into dedicated event fields, or log-only).
func attrMap(attrs []obs.Attr, drop ...string) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
outer:
	for _, a := range attrs {
		for _, d := range drop {
			if a.Key == d {
				continue outer
			}
		}
		m[a.Key] = a.Value
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// rateMeter estimates throughput from a short window of (time, done)
// samples: rate is the slope across the window, ETA the remaining work
// divided by it. A window (rather than since-start averaging) tracks
// phase changes — e.g. a run whose large functions cluster at the end.
type rateMeter struct {
	samples []rateSample // oldest first, at most meterWindow
}

type rateSample struct {
	t    time.Time
	done int
}

const meterWindow = 8

// observe records a sample and returns the current rate (units/sec,
// 0 when unknown) and ETA (0 when unknown or finished).
func (m *rateMeter) observe(t time.Time, done, total int) (rate float64, eta time.Duration) {
	m.samples = append(m.samples, rateSample{t: t, done: done})
	if len(m.samples) > meterWindow {
		m.samples = m.samples[len(m.samples)-meterWindow:]
	}
	first, last := m.samples[0], m.samples[len(m.samples)-1]
	dt := last.t.Sub(first.t).Seconds()
	if dt <= 0 || last.done <= first.done {
		return 0, 0
	}
	rate = float64(last.done-first.done) / dt
	if remaining := total - done; remaining > 0 && rate > 0 {
		eta = time.Duration(float64(remaining) / rate * float64(time.Second))
	}
	return rate, eta
}
