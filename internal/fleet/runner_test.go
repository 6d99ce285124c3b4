package fleet

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dtaint/internal/dataflow"
	"dtaint/internal/firmware"
	"dtaint/internal/obs/events"
)

// stubWaves builds waves of byte-unique placeholder files; sizes[w] is
// the length of wave w. Paths are "/w<wave>/b<index>".
func stubWaves(sizes ...int) [][]firmware.File {
	waves := make([][]firmware.File, len(sizes))
	for w, n := range sizes {
		for i := 0; i < n; i++ {
			path := fmt.Sprintf("/w%d/b%d", w, i)
			waves[w] = append(waves[w], firmware.File{Path: path, Data: []byte(path)})
		}
	}
	return waves
}

// stubAnalysis stands in for the real pipeline in runner tests, which
// exercise scheduling, not analysis.
func stubAnalysis(f firmware.File) *BinaryAnalysis {
	return &BinaryAnalysis{Binary: f.Path}
}

func mustPrepare(t *testing.T, opts Options) Options {
	t.Helper()
	opts, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// Every binary of a wave returns before any binary of the next wave
// starts, and results come back wave by wave in input order.
func TestRunWavesBarrier(t *testing.T) {
	orig := analyze
	defer func() { analyze = orig }()
	waves := stubWaves(4, 3)
	var (
		mu        sync.Mutex
		returned  int // first-wave analyses that have returned
		violation string
	)
	analyze = func(f firmware.File, _ dataflow.Options) (*BinaryAnalysis, error) {
		first := strings.HasPrefix(f.Path, "/w0/")
		mu.Lock()
		if !first && returned < len(waves[0]) && violation == "" {
			violation = fmt.Sprintf("%s started with %d/%d first-wave binaries returned",
				f.Path, returned, len(waves[0]))
		}
		mu.Unlock()
		if first {
			time.Sleep(10 * time.Millisecond) // widen the window a broken barrier would show in
			mu.Lock()
			returned++
			mu.Unlock()
		}
		return stubAnalysis(f), nil
	}

	out := RunWaves(context.Background(), firmware.Header{}, waves, mustPrepare(t, Options{Workers: 4}))
	if violation != "" {
		t.Fatal(violation)
	}
	if len(out) != len(waves) {
		t.Fatalf("got %d result waves, want %d", len(out), len(waves))
	}
	for w := range waves {
		if len(out[w]) != len(waves[w]) {
			t.Fatalf("wave %d: %d results, want %d", w, len(out[w]), len(waves[w]))
		}
		for i, bs := range out[w] {
			if bs.Path != waves[w][i].Path || bs.Status != StatusOK {
				t.Fatalf("wave %d result %d = %s %s, want %s ok", w, i, bs.Path, bs.Status, waves[w][i].Path)
			}
		}
	}
}

// The progress count runs across all waves: done values are unique and
// cover 1..N, every call and every progress event reports total N, and
// the events use the fleet's "binaries" stage.
func TestRunWavesProgressSpansWaves(t *testing.T) {
	orig := analyze
	defer func() { analyze = orig }()
	analyze = func(f firmware.File, _ dataflow.Options) (*BinaryAnalysis, error) {
		return stubAnalysis(f), nil
	}
	waves := stubWaves(3, 2)
	const n = 5
	seen := map[int]bool{}
	j := events.NewJournal(0)
	RunWaves(context.Background(), firmware.Header{}, waves, mustPrepare(t, Options{
		Workers:  3,
		Analysis: dataflow.Options{Tracer: events.Observe(nil, events.Sinks{Journal: j})},
		Progress: func(done, total int) {
			if total != n {
				t.Errorf("progress total = %d, want %d", total, n)
			}
			if seen[done] {
				t.Errorf("progress done = %d reported twice", done)
			}
			seen[done] = true
		},
	}))
	for d := 1; d <= n; d++ {
		if !seen[d] {
			t.Errorf("progress never reported done = %d (saw %v)", d, seen)
		}
	}
	if len(seen) != n {
		t.Errorf("progress reported %d distinct done values, want %d", len(seen), n)
	}
	evs, _ := j.Since(0)
	var progress int
	for _, ev := range evs {
		if ev.Type != events.TypeProgress {
			continue
		}
		progress++
		if ev.Stage != "binaries" || ev.Total != n {
			t.Errorf("progress event stage %q total %d, want binaries/%d", ev.Stage, ev.Total, n)
		}
	}
	if progress != n {
		t.Errorf("%d progress events, want %d", progress, n)
	}
}

// A hung first-wave binary under StallTimeout reports StatusStalled and
// leaves a diagnostic bundle in DebugDir, and the second wave still runs
// — the watchdog is armed once over the whole run.
func TestRunWavesStallThenNextWave(t *testing.T) {
	orig := analyze
	release, abandoned := make(chan struct{}), make(chan struct{})
	defer func() {
		// The abandoned analysis read the analyze hook when it started;
		// restore the hook only after it has returned.
		close(release)
		<-abandoned
		analyze = orig
	}()
	// Wave 0 runs b0 (healthy: its progress event arms the watchdog),
	// then b1, which hangs silently.
	waves := stubWaves(2, 1)
	analyze = func(f firmware.File, _ dataflow.Options) (*BinaryAnalysis, error) {
		if f.Path == "/w0/b1" {
			defer close(abandoned)
			<-release
		}
		return stubAnalysis(f), nil
	}

	j := events.NewJournal(0)
	debugDir := t.TempDir()
	out := RunWaves(context.Background(), firmware.Header{Product: "TC-1"}, waves, mustPrepare(t, Options{
		Workers:      1,
		StallTimeout: 100 * time.Millisecond,
		DebugDir:     debugDir,
		Analysis:     dataflow.Options{Tracer: events.Observe(nil, events.Sinks{Journal: j, Job: "waves"})},
	}))

	if st := out[0][0].Status; st != StatusOK {
		t.Fatalf("healthy first-wave binary status = %s, want ok", st)
	}
	hung := out[0][1]
	if hung.Status != StatusStalled || !strings.Contains(hung.Error, "watchdog") || hung.Analysis != nil {
		t.Fatalf("hung binary = %s %q (analysis %v), want stalled with a watchdog error and no analysis",
			hung.Status, hung.Error, hung.Analysis != nil)
	}
	if st := out[1][0].Status; st != StatusOK {
		t.Fatalf("second-wave binary status = %s, want ok (the stall must not end the run)", st)
	}
	entries, err := os.ReadDir(debugDir)
	if err != nil {
		t.Fatal(err)
	}
	var bundles int
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "stall-") {
			bundles++
		}
	}
	if bundles == 0 {
		t.Fatalf("no stall bundle under %s: %v", debugDir, entries)
	}
}
