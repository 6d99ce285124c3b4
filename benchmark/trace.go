package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spans records the traced run's spans in memory: one span around each
// call the benchmark makes into a layer's public functions. The program
// itself runs untraced; spans inside it are a separate change. Calls are
// made from one goroutine, so a span's children never overlap.
type spans struct {
	t0   time.Time
	list []span
}

type span struct {
	name       string
	parent     int // index into list, -1 for a root
	start, end time.Duration
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its id.
func (s *spans) begin(parent int, name string) int {
	s.list = append(s.list, span{name: name, parent: parent, start: time.Since(s.t0)})
	return len(s.list) - 1
}

// end closes span id and returns its duration.
func (s *spans) end(id int) time.Duration {
	s.list[id].end = time.Since(s.t0)
	return s.list[id].end - s.list[id].start
}

// do runs fn inside a span.
func (s *spans) do(parent int, name string, fn func()) time.Duration {
	id := s.begin(parent, name)
	fn()
	return s.end(id)
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the time their children cover.
func (s *spans) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(s.list))
	for _, sp := range s.list {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	self := map[string]time.Duration{}
	for i, sp := range s.list {
		self[sp.name] += sp.end - sp.start - child[i]
	}
	return self
}

// durations returns the durations of every span with the given name.
func (s *spans) durations(name string) []float64 {
	var out []float64
	for _, sp := range s.list {
		if sp.name == name {
			out = append(out, float64(sp.end-sp.start))
		}
	}
	return out
}

// printSelfTimes prints the self-time table, largest first.
func (s *spans) printSelfTimes() {
	self := s.selfTimes()
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("layer self times (traced run):")
	for _, n := range names {
		fmt.Printf("  %-26s %10.3f ms  (%d spans)\n", n, ms(self[n]), len(s.durations(n)))
	}
}

// write saves the spans as a Chrome trace_event file (load it in
// ui.perfetto.dev) under .bench_build/traces.
func (s *spans) write(root, name string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	evs := make([]event, len(s.list))
	for i, sp := range s.list {
		evs[i] = event{sp.name, "X", float64(sp.start) / 1e3, float64(sp.end-sp.start) / 1e3, 1, 1}
	}
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(s.list), path)
	return nil
}
