// Package events is the live-telemetry substrate of the pipeline: a
// bounded, lock-free-read ring-buffer journal of typed, sequence-
// numbered ScanEvents, and the fixed span subscribers (Observe) that
// derive every telemetry surface — journal events, stage metrics, and
// stage log lines — from one obs tracer's span stream. Instrumented
// code only opens spans; it never emits events, metrics, or logs.
//
// One journal serves every consumer the same stream: the dtaintd SSE
// endpoints (per-job and firehose, resumable via Last-Event-ID), the
// dtaint -progress printer, and the bench harness. The stall watchdog
// watches the span stream itself.
//
// Like the rest of internal/obs, every handle is nil-safe: a nil
// *Journal, *Sub, or *Watchdog no-ops on every method, so
// instrumented code never branches on whether telemetry is attached.
//
// Determinism contract: the event *multiset* — compared by DetKey,
// which excludes the wall-clock fields (Seq, Time, Duration, ETA,
// Rate) — is bit-identical for any worker count, exactly as span
// multisets are. The journal subscriber therefore counts finished
// units under its lock (unique Done values, order-free decile
// crossings), and spans keep wall-clock readings out of their attrs.
package events

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Event types. Stage, binary, component, and progress events are
// derived from spans by the journal subscriber; job.* events are
// emitted by dtaintd's job lifecycle; stall comes from the watchdog.
const (
	TypeJobQueued  = "job.queued"
	TypeJobStarted = "job.started"
	TypeJobDone    = "job.done"
	TypeJobFailed  = "job.failed"

	TypeStageStart = "stage.start"
	TypeStageEnd   = "stage.end"

	TypeBinaryStart = "binary.start"
	TypeBinaryDone  = "binary.done"

	// TypeComponentDone marks one SCC-DAG component (one wave unit of
	// the bottom-up interprocedural pass) finished.
	TypeComponentDone = "scc.done"

	TypeProgress = "progress"
	TypeStall    = "stall"
)

// ScanEvent is one typed, sequence-numbered telemetry record. The
// zero value plus a Type is a valid event; the journal stamps Seq and
// Time on append.
type ScanEvent struct {
	// Seq is the journal-assigned sequence number, strictly increasing
	// from 1. It doubles as the SSE event id for Last-Event-ID resume.
	Seq uint64 `json:"seq"`
	// Time is the append wall-clock time (journal-stamped when zero).
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	// Job scopes the event to one dtaintd job ("" for CLI runs).
	Job string `json:"job,omitempty"`
	// Path is the rootfs path of the binary the event concerns.
	Path string `json:"path,omitempty"`
	// Stage names the pipeline stage for stage.*/progress events.
	Stage string `json:"stage,omitempty"`
	// Done/Total carry progress numerators and denominators.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`

	// Wall-clock fields — excluded from DetKey, free to vary run to run.
	Duration time.Duration `json:"durationNanos,omitempty"`
	ETA      time.Duration `json:"etaNanos,omitempty"`
	Rate     float64       `json:"rate,omitempty"` // progress units per second

	// Attrs carries deterministic content only (counts, names, hashes,
	// statuses) — never durations or timestamps, which belong in the
	// dedicated wall-clock fields above.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Terminal reports whether the event ends its job's stream — the
// condition the per-job SSE handler closes on.
func (e ScanEvent) Terminal() bool {
	return e.Type == TypeJobDone || e.Type == TypeJobFailed
}

// DetKey is the canonical deterministic identity of the event: every
// field except the wall-clock ones (Seq, Time, Duration, ETA, Rate),
// with Attrs in sorted key order. Two runs of the same analysis at any
// worker counts produce equal DetKey multisets.
func (e ScanEvent) DetKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|job=%s|path=%s|stage=%s|done=%d|total=%d",
		e.Type, e.Job, e.Path, e.Stage, e.Done, e.Total)
	if len(e.Attrs) > 0 {
		keys := make([]string, 0, len(e.Attrs))
		for k := range e.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "|%s=%v", k, e.Attrs[k])
		}
	}
	return b.String()
}

// DetKeys returns the sorted DetKey multiset of evs — the form the
// determinism tests compare across worker counts.
func DetKeys(evs []ScanEvent) []string {
	keys := make([]string, len(evs))
	for i, e := range evs {
		keys[i] = e.DetKey()
	}
	sort.Strings(keys)
	return keys
}
