package events

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dtaint/internal/obs"
)

func TestBridgeSpanMapping(t *testing.T) {
	j := NewJournal(64)
	tr := Observe(nil, Sinks{Journal: j, Job: "job-9"})

	img := tr.StartSpan("scan-image")
	bins := img.StartChild("binaries", obs.KV("binaries", 1))
	bin := bins.StartChild("scan-binary", obs.KV("path", "/bin/httpd"), obs.KV("sha", "0123456789ab"))
	stage := bin.StartChild("function-analysis", obs.KV("functions", 2))
	for _, fn := range []string{"main", "parse"} {
		stage.StartChild("ssa-function", obs.KV("fn", fn)).End()
	}
	stage.End()
	inter := bin.StartChild("interproc-dataflow", obs.KV("components", 2))
	comp := inter.StartChild("scc-component", obs.KV("index", 0), obs.KV("functions", 3))
	comp.StartChild("ddg-function", obs.KV("fn", "main")).End()
	comp.End()
	inter.StartChild("scc-component", obs.KV("index", 1), obs.KV("replayed", true)).End()
	inter.End()
	bin.SetAttr("status", "ok")
	bin.End()
	bins.End()
	img.End()

	evs := j.Snapshot()
	var keys []string
	for _, ev := range evs {
		keys = append(keys, fmt.Sprintf("%s %s %s %d/%d", ev.Type, ev.Stage, ev.Path, ev.Done, ev.Total))
		if ev.Job != "job-9" {
			t.Errorf("event %s missing job scope: %q", ev.Type, ev.Job)
		}
	}
	want := []string{
		"stage.start scan-image  0/0",
		"stage.start binaries  0/0",
		"binary.start  /bin/httpd 0/0",
		"stage.start function-analysis /bin/httpd 0/0", // path inherited from scan-binary
		"progress function-analysis /bin/httpd 1/2",    // decile crossings of the declared total
		"progress function-analysis /bin/httpd 2/2",
		"stage.end function-analysis /bin/httpd 0/0",
		"stage.start interproc-dataflow /bin/httpd 0/0",
		"scc.done interproc-dataflow /bin/httpd 0/0",
		"progress interproc-dataflow /bin/httpd 1/2",
		"progress interproc-dataflow /bin/httpd 2/2", // a replayed component counts, journals no scc.done
		"stage.end interproc-dataflow /bin/httpd 0/0",
		"binary.done  /bin/httpd 0/0",
		"progress binaries  1/1",
		"stage.end binaries  0/0",
		"stage.end scan-image  0/0",
	}
	if strings.Join(keys, "\n") != strings.Join(want, "\n") {
		t.Fatalf("derived events:\n%s\nwant:\n%s", strings.Join(keys, "\n"), strings.Join(want, "\n"))
	}

	// The binary events lift "path" into the Path field, leave the
	// log-only sha out, and keep the status attr; stage attrs survive.
	done := evs[12]
	if done.Type != TypeBinaryDone || done.Attrs["status"] != "ok" || done.Attrs["path"] != nil || done.Attrs["sha"] != nil {
		t.Fatalf("binary.done = %+v", done)
	}
	if evs[3].Attrs["functions"] != 2 {
		t.Fatalf("stage attrs dropped: %+v", evs[3])
	}
	if evs[8].Attrs["index"] != 0 || evs[8].Attrs["functions"] != 3 {
		t.Fatalf("scc.done attrs = %+v", evs[8])
	}
	if SinksOf(tr).Journal != j || Observe(tr, Sinks{Journal: j, Job: "job-9"}) != tr || len(tr.Subscribers()) != 1 {
		t.Fatal("observing a tracer twice with the same sinks must not subscribe twice")
	}
	if Observe(nil, Sinks{}) != nil {
		t.Fatal("a tracer with nothing listening")
	}
}

// The metrics and log subscribers derive the stage counters, the
// per-function histograms, and the stage lines from the same spans.
func TestMetricsAndLogSubscribers(t *testing.T) {
	reg := obs.NewRegistry()
	var buf strings.Builder
	tr := Observe(nil, Sinks{Metrics: reg, Log: slog.New(slog.NewTextHandler(&buf, nil)), Job: "job-3"})
	bins := tr.StartSpan("binaries", obs.KV("image", "DIR-645"))
	bin := bins.StartChild("scan-binary", obs.KV("path", "/bin/httpd"), obs.KV("sha", "0123456789ab"))
	inter := bin.StartChild("interproc-dataflow", obs.KV("functions", 2))
	inter.StartChild("ddg-function", obs.KV("states", 3)).End()
	inter.StartChild("ddg-function", obs.KV("states", 300)).End()
	inter.SetAttr("findings", 4)
	inter.End()
	bin.End()
	bins.End()

	vals := map[string]float64{}
	for _, m := range reg.Snapshot() {
		vals[m.Name] = m.Value
		if m.Type == obs.TypeHistogram {
			vals[m.Name] = float64(m.Count)
		}
	}
	for name, want := range map[string]float64{
		"dtaint_functions_analyzed_total": 2, "dtaint_findings_total": 4,
		"dtaint_defpairs_total": 0, "dtaint_fn_ddg_seconds": 2, "dtaint_fn_states_explored": 2,
	} {
		if got, ok := vals[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "msg=\"stage done\" job=job-3 image=DIR-645 binary=/bin/httpd sha=0123456789ab stage=interproc-dataflow") ||
		!strings.Contains(out, "functions=2 findings=4") {
		t.Fatalf("interproc-dataflow line lacks its scope or attrs:\n%s", out)
	}
	if strings.Contains(out, "ddg-function") {
		t.Fatalf("per-function spans logged:\n%s", out)
	}
}

func TestWatchdogStallAndRearm(t *testing.T) {
	dir := t.TempDir()
	j := NewJournal(64)
	reg := obs.NewRegistry()
	reg.Counter("dtaint_test_total", "test", nil).Inc()
	tr := Observe(nil, Sinks{Journal: j, Job: "job-1", Metrics: reg})

	fired := make(chan string, 4)
	w := StartWatchdog(WatchdogConfig{
		Tracer:      tr,
		Deadline:    50 * time.Millisecond,
		DebugDir:    dir,
		Fingerprint: "v3|test",
		Partial: func(f io.Writer) error {
			_, err := f.Write([]byte(`{"partial":true}`))
			return err
		},
		OnStall: func(bundle string) { fired <- bundle },
	})
	defer w.Stop()

	tr.StartSpan("scan-binary", obs.KV("path", "/bin/wedged")) // never ends
	stalled := w.Stalled()

	var bundle string
	select {
	case bundle = <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire")
	}
	select {
	case <-stalled:
	case <-time.After(time.Second):
		t.Fatal("Stalled channel not closed")
	}
	if w.Fired() != 1 {
		t.Fatalf("Fired = %d", w.Fired())
	}

	// The stall event is journaled with the bundle path.
	var stall *ScanEvent
	for _, ev := range j.Snapshot() {
		if ev.Type == TypeStall {
			ev := ev
			stall = &ev
		}
	}
	if stall == nil {
		t.Fatal("no stall event journaled")
	}
	if stall.Job != "job-1" || stall.Attrs["bundle"] != bundle || stall.Attrs["lastSpan"] != "scan-binary" {
		t.Fatalf("stall event = %+v", stall)
	}

	// The bundle holds the full diagnostic set.
	for name, needle := range map[string]string{
		"goroutines.txt": "goroutine",
		"trace.json":     "traceEvents",
		"metrics.json":   "dtaint_test_total",
		"options.txt":    "fingerprint: v3|test",
		"events.jsonl":   `"type":"binary.start"`,
		"report.json":    `"partial":true`,
	} {
		data, err := os.ReadFile(filepath.Join(bundle, name))
		if err != nil {
			t.Errorf("bundle member %s: %v", name, err)
			continue
		}
		if !strings.Contains(string(data), needle) {
			t.Errorf("bundle %s does not contain %q", name, needle)
		}
	}

	// A new span re-arms the watchdog; a fresh Stalled channel closes
	// on the second fire, and the second bundle is a distinct directory.
	tr.StartSpan("scan-binary", obs.KV("path", "/bin/wedged2"))
	stalled2 := w.Stalled()
	var bundle2 string
	select {
	case bundle2 = <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not re-fire after re-arm")
	}
	select {
	case <-stalled2:
	case <-time.After(time.Second):
		t.Fatal("second Stalled channel not closed")
	}
	if bundle2 == bundle {
		t.Fatalf("second stall reused bundle dir %s", bundle)
	}

	// Spans of another run's tracer neither re-arm nor count.
	other := obs.NewTracer()
	other.StartSpan("scan-binary").End()
	time.Sleep(120 * time.Millisecond)
	if w.Fired() != 2 {
		t.Fatalf("foreign span re-armed the watchdog: fired = %d", w.Fired())
	}
}

// Every function's span is activity: a healthy run whose functions each
// finish inside the deadline never stalls, even when its decile
// progress events are further apart than the deadline. The clock is the
// package's pinned now; the test drives check itself, and the real
// ticker (a quarter of an hour-long deadline) never ticks.
func TestWatchdogCountsEveryFunction(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := base
	now = func() time.Time { return clock }
	defer func() { now = time.Now }()

	j := NewJournal(0)
	tr := Observe(nil, Sinks{Journal: j})
	w := StartWatchdog(WatchdogConfig{Tracer: tr, Deadline: time.Hour})
	defer w.Stop()

	stage := tr.StartSpan("function-analysis", obs.KV("functions", 100))
	for i := 0; i < 100; i++ {
		clock = clock.Add(40 * time.Minute) // each function: 40m < 1h deadline
		w.check()
		stage.StartChild("ssa-function").End()
	}
	stage.End()
	if n := w.Fired(); n != 0 {
		t.Fatalf("watchdog fired %d times on a healthy run", n)
	}
	var progress int
	for _, ev := range j.Snapshot() {
		if ev.Type == TypeProgress {
			progress++
		}
	}
	if progress != 10 {
		t.Fatalf("%d progress events, want 10 (deciles 400m apart, past the deadline)", progress)
	}

	clock = clock.Add(2 * time.Hour) // a genuine silence still stalls
	w.check()
	if w.Fired() != 1 {
		t.Fatalf("watchdog fired %d times after a 2h silence, want 1", w.Fired())
	}
}

func TestStartWatchdogDisabled(t *testing.T) {
	if w := StartWatchdog(WatchdogConfig{Tracer: nil, Deadline: time.Second}); w != nil {
		t.Fatal("watchdog without tracer")
	}
	if w := StartWatchdog(WatchdogConfig{Tracer: obs.NewTracer()}); w != nil {
		t.Fatal("watchdog without deadline")
	}
}
