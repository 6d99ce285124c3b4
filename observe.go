package dtaint

import (
	"io"
	"log/slog"

	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
)

// Tracer records spans for every pipeline stage an Analyzer (or fleet
// scan) runs: firmware unpacking, image parsing, CFG recovery, the
// per-function symbolic phase, struct-similarity resolution, the
// bottom-up interprocedural pass (with per-SCC-component and
// per-function child spans), and per-binary fleet scans. Attach one
// with WithTracer; a nil *Tracer disables tracing. Safe for concurrent
// use.
type Tracer struct{ t *obs.Tracer }

// NewTracer returns an empty tracer whose trace clock starts now.
func NewTracer() *Tracer { return &Tracer{t: obs.NewTracer()} }

// WriteChromeTrace exports the collected spans as Chrome trace_event
// JSON, loadable in chrome://tracing and Perfetto (ui.perfetto.dev).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return (*obs.Tracer)(nil).WriteChromeTrace(w)
	}
	return t.t.WriteChromeTrace(w)
}

// SpanNames returns the distinct names of finished spans, sorted.
func (t *Tracer) SpanNames() []string {
	if t == nil {
		return nil
	}
	return t.t.SpanNames()
}

// Metrics is a registry of counters, gauges, and histograms the
// pipeline populates: per-function analysis-time and states-explored
// histograms, totals for functions/def-pairs/findings, and fleet cache
// hit ratios. Attach one with WithMetrics; nil disables collection.
type Metrics struct{ r *obs.Registry }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return &Metrics{r: obs.NewRegistry()} }

// WriteJSON writes every metric as a JSON document.
func (m *Metrics) WriteJSON(w io.Writer) error { return m.registry().WriteJSON(w) }

// WritePrometheus writes every metric in the Prometheus text
// exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.registry().WritePrometheus(w) }

func (m *Metrics) registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.r
}

// RuntimeStats is a snapshot of the Go runtime taken when a scan
// finished — the memory and scheduling context embedded in
// ImageReport.Runtime.
type RuntimeStats = obs.RuntimeStats

// EventJournal is a bounded in-memory ring of live telemetry events:
// typed, sequence-numbered records of everything an analysis does —
// stages entered and left, binaries started and finished, per-stage
// progress with moving-rate ETA, stalls. Attach one with
// WithEventJournal; it needs no Tracer: every event is derived from the
// call's span stream, traced by a call-lifetime tracer when none is
// attached. Findings are not journaled — they are in the returned
// report. Event content (wall-clock fields excluded) is deterministic
// for any worker count. Safe for concurrent use.
type EventJournal struct{ j *events.Journal }

// NewEventJournal returns a journal keeping the last size events
// (<= 0 selects the default of 4096).
func NewEventJournal(size int) *EventJournal {
	return &EventJournal{j: events.NewJournal(size)}
}

// AttachProgressPrinter subscribes the standard progress renderer: one
// "dtaint: ..." line per stage transition, decile progress with
// percentages and ETA, per-binary completion lines — the exact output
// of dtaint -progress. It returns a function removing the subscription.
func (j *EventJournal) AttachProgressPrinter(w io.Writer) (remove func()) {
	if j == nil {
		return func() {}
	}
	return events.AttachPrinter(j.j, w)
}

// EventJournalStats snapshots a journal's ring usage: Appended events
// ever published, Dropped ones already overwritten, the ring Capacity,
// and the HighWater occupancy reached.
type EventJournalStats = events.JournalStats

// Stats returns the journal's usage counters.
func (j *EventJournal) Stats() EventJournalStats {
	if j == nil {
		return EventJournalStats{}
	}
	return j.j.Stats()
}

// WithEventJournal attaches a live-telemetry journal: the analysis
// appends stage, binary, and progress events to it as it runs.
func WithEventJournal(j *EventJournal) Option {
	return func(a *Analyzer) {
		if j != nil {
			a.sinks.Journal = j.j
		}
	}
}

// WithTracer attaches a span tracer: every pipeline stage (and, in
// fleet scans, every binary) is recorded as a span, exportable as
// Chrome trace JSON.
func WithTracer(t *Tracer) Option {
	return func(a *Analyzer) {
		if t != nil {
			a.opts.Tracer = t.t
		}
	}
}

// WithMetrics attaches a metrics registry the pipeline populates: the
// stage counters and per-function histograms derived from the call's
// span stream, and the report-cache and summary-store state the
// Analyzer publishes after each call.
func WithMetrics(m *Metrics) Option {
	return func(a *Analyzer) {
		if m != nil {
			a.sinks.Metrics = m.r
		}
	}
}

// WithLogger attaches a structured logger; the pipeline logs one
// "stage done" line per stage (and per fleet binary) carrying the
// stage's span attrs, its duration, and the image/binary/sha it ran
// for. Nil disables logging.
func WithLogger(l *slog.Logger) Option {
	return func(a *Analyzer) { a.sinks.Log = l }
}

// publish sets the state series of a call's report cache and summary
// store in the Analyzer's registry: the Analyzer owns the tiers for the
// call, and the analysis itself only opens spans.
func (a *Analyzer) publish(reports, summaries CacheStats) {
	reports.Publish(a.sinks.Metrics, "cache")
	summaries.Publish(a.sinks.Metrics, "sumstore")
}
