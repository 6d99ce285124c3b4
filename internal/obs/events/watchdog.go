package events

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dtaint/internal/obs"
)

// WatchdogConfig configures a stall watchdog over one run's span
// stream.
type WatchdogConfig struct {
	// Tracer is the span stream watched: every span start and end —
	// per-function spans included — counts as activity. Its Observe
	// sinks receive the stall event and are snapshotted into the bundle.
	// Required.
	Tracer *obs.Tracer
	// Deadline is the silence duration that counts as a stall. Required.
	Deadline time.Duration
	// DebugDir, when non-empty, receives one diagnostic bundle
	// directory per stall: goroutines.txt, trace.json, metrics.json,
	// options.txt, events.jsonl, and report.json when Partial is set.
	DebugDir string
	// Fingerprint is the analyzer-options fingerprint written to
	// options.txt — which cache/store keyspace the wedged run was in.
	Fingerprint string
	// Partial, when set, writes the partial report (whatever completed
	// before the stall) into the bundle's report.json.
	Partial func(io.Writer) error
	// OnStall, when set, runs after each stall fires, with the bundle
	// directory ("" when no bundle was written).
	OnStall func(bundleDir string)
}

// Watchdog fires when its tracer starts and ends no span for the
// configured deadline: it captures a goroutine dump and a diagnostic
// bundle, emits a stall event, and closes the current Stalled channel
// so in-flight work can be abandoned. Any subsequent span re-arms it,
// so one wedged binary doesn't condemn the binaries after it.
//
// A nil *Watchdog is valid: Stop no-ops and Stalled returns a nil
// channel (which never delivers — exactly the "no watchdog" select
// behavior).
type Watchdog struct {
	cfg   WatchdogConfig
	sinks Sinks

	armed    atomic.Bool
	lastAt   atomic.Int64 // unix nanos of the last span start or end
	lastSpan atomic.Value // string: name of that span
	fired    atomic.Uint64

	mu      sync.Mutex
	stalled chan struct{} // closed on fire, then replaced

	stop        chan struct{}
	done        chan struct{}
	unsubscribe func()
}

// StartWatchdog arms a watchdog per cfg and returns it, or nil when
// cfg has no tracer or no deadline. The watchdog arms on the first
// span. Call Stop when the run finishes.
func StartWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Tracer == nil || cfg.Deadline <= 0 {
		return nil
	}
	w := &Watchdog{
		cfg:     cfg,
		sinks:   SinksOf(cfg.Tracer),
		stalled: make(chan struct{}),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.unsubscribe = cfg.Tracer.Subscribe(w)
	go w.watch()
	return w
}

// Stop disarms the watchdog and releases its subscription and
// goroutine.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.unsubscribe()
	close(w.stop)
	<-w.done
}

// Stalled returns a channel closed when the watchdog fires. Each fire
// closes the channel returned before it; the next call returns a fresh
// one, so work started after a stall gets its own kill signal.
func (w *Watchdog) Stalled() <-chan struct{} {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stalled
}

// Fired returns how many times the watchdog has fired.
func (w *Watchdog) Fired() int {
	if w == nil {
		return 0
	}
	return int(w.fired.Load())
}

// SpanStart implements obs.Subscriber: a started span is activity.
func (w *Watchdog) SpanStart(rec obs.SpanRecord) { w.activity(rec.Name) }

// SpanEnd implements obs.Subscriber: a finished span is activity.
func (w *Watchdog) SpanEnd(rec obs.SpanRecord) { w.activity(rec.Name) }

// activity re-arms the deadline. Atomics only — it runs on every span
// start and end of the watched run.
func (w *Watchdog) activity(span string) {
	w.lastAt.Store(now().UnixNano())
	w.lastSpan.Store(span)
	w.armed.Store(true)
}

func (w *Watchdog) watch() {
	defer close(w.done)
	interval := w.cfg.Deadline / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		}
		w.check()
	}
}

// check fires the watchdog when the armed run has been silent for the
// deadline.
func (w *Watchdog) check() {
	if !w.armed.Load() {
		return
	}
	if silence := now().Sub(time.Unix(0, w.lastAt.Load())); silence >= w.cfg.Deadline {
		w.fire(silence)
	}
}

func (w *Watchdog) fire(silence time.Duration) {
	w.armed.Store(false) // disarm until the next span
	n := w.fired.Add(1)
	dir := w.writeBundle(n)

	attrs := map[string]any{"count": n}
	if dir != "" {
		attrs["bundle"] = dir
	}
	if ls, _ := w.lastSpan.Load().(string); ls != "" {
		attrs["lastSpan"] = ls
	}
	w.sinks.Journal.Append(ScanEvent{Type: TypeStall, Job: w.sinks.Job, Duration: silence, Attrs: attrs})

	w.mu.Lock()
	close(w.stalled)
	w.stalled = make(chan struct{})
	w.mu.Unlock()

	if w.cfg.OnStall != nil {
		w.cfg.OnStall(dir)
	}
}

// writeBundle captures the diagnostic bundle directory for the n-th
// stall and returns its path ("" when DebugDir is unset or the
// directory cannot be created; individual capture errors are recorded
// in the bundle itself rather than aborting it).
func (w *Watchdog) writeBundle(n uint64) string {
	if w.cfg.DebugDir == "" {
		return ""
	}
	name := fmt.Sprintf("stall-%03d", n)
	if job := w.sinks.Job; job != "" {
		name = fmt.Sprintf("stall-%s-%03d", sanitizeName(job), n)
	}
	dir := filepath.Join(w.cfg.DebugDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}

	writeFile(dir, "goroutines.txt", func(f io.Writer) error {
		_, err := f.Write(goroutineDump())
		return err
	})
	writeFile(dir, "trace.json", w.cfg.Tracer.WriteChromeTrace)
	writeFile(dir, "metrics.json", w.sinks.Metrics.WriteJSON)
	writeFile(dir, "options.txt", func(f io.Writer) error {
		_, err := fmt.Fprintf(f, "fingerprint: %s\ndeadline: %v\n", w.cfg.Fingerprint, w.cfg.Deadline)
		return err
	})
	writeFile(dir, "events.jsonl", func(f io.Writer) error {
		enc := json.NewEncoder(f)
		for _, ev := range w.sinks.Journal.Snapshot() {
			if w.sinks.Job != "" && ev.Job != w.sinks.Job {
				continue
			}
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
		return nil
	})
	if w.cfg.Partial != nil {
		writeFile(dir, "report.json", w.cfg.Partial)
	}
	return dir
}

// writeFile writes one bundle member; a capture error is preserved as
// the file's content so a half-broken process still yields evidence.
func writeFile(dir, name string, fill func(io.Writer) error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return
	}
	if err := fill(f); err != nil {
		fmt.Fprintf(f, "\ncapture error: %v\n", err)
	}
	f.Close()
}

// goroutineDump returns the full all-goroutine stack dump.
func goroutineDump() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// sanitizeName keeps bundle directory names shell- and fs-safe.
func sanitizeName(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
