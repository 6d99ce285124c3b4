package dataflow

import (
	"fmt"
	"sort"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
)

// spanSet renders the (Name, fn-attr) multiset of a trace — the part of
// the span tree that must be identical across worker counts. Span IDs,
// ordering, and timings legitimately vary with scheduling.
func spanSet(tr *obs.Tracer) []string {
	var out []string
	for _, s := range tr.Spans() {
		key := s.Name
		if fn := s.Attr("fn"); fn != nil {
			key += fmt.Sprintf(" fn=%v", fn)
		}
		if n := s.Attr("functions"); n != nil {
			key += fmt.Sprintf(" functions=%v", n)
		}
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// The span tree is part of the determinism contract: a sequential and a
// heavily parallel run of the same binary must record the same span
// multiset (one ssa-function and one ddg-function span per function,
// the same stage spans, the same component sizes).
func TestSpanSetDeterministicAcrossWorkers(t *testing.T) {
	spec, ok := corpus.SpecByProduct("DIR-645")
	if !ok {
		t.Fatal("DIR-645 spec missing")
	}
	bin, _, err := corpus.BuildBinary(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, workers := range []int{1, 8} {
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		if _, err := Analyze(prog, Options{Parallelism: workers, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		got := spanSet(tr)
		if len(got) == 0 {
			t.Fatalf("workers=%d: no spans recorded", workers)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=8 recorded %d spans, workers=1 recorded %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("span sets diverge at %d:\n got %q\nwant %q", i, got[i], want[i])
			}
		}
	}
}

// Metrics collection must see every function exactly once per phase
// regardless of worker count.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	spec, _ := corpus.SpecByProduct("DIR-645")
	bin, _, err := corpus.BuildBinary(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(workers int) map[string]uint64 {
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		tr := events.Observe(nil, events.Sinks{Metrics: reg})
		res, err := Analyze(prog, Options{Parallelism: workers, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]uint64{}
		for _, s := range reg.Snapshot() {
			switch s.Type {
			case obs.TypeCounter:
				out[s.Name] = uint64(s.Value)
			case obs.TypeHistogram:
				out[s.Name] = s.Count
			}
		}
		if got := out["dtaint_fn_ddg_seconds"]; got != uint64(res.FunctionsAnalyzed) {
			t.Fatalf("workers=%d: ddg histogram has %d observations, %d functions analyzed",
				workers, got, res.FunctionsAnalyzed)
		}
		return out
	}
	seq, par := counts(1), counts(8)
	if len(seq) == 0 {
		t.Fatal("no metrics collected")
	}
	for name, v := range seq {
		if par[name] != v {
			t.Fatalf("metric %s: workers=1 %d, workers=8 %d", name, v, par[name])
		}
	}
}

// Analysis results must be identical with and without observability
// attached — the handles are pure observers.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	spec, _ := corpus.SpecByProduct("DIR-645")
	bin, _, err := corpus.BuildBinary(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts Options) string {
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res)
	}
	plain := run(Options{Parallelism: 2})
	observed := run(Options{Parallelism: 2, Tracer: events.Observe(obs.NewTracer(),
		events.Sinks{Journal: events.NewJournal(0), Metrics: obs.NewRegistry()})})
	if plain != observed {
		t.Fatalf("observability changed results:\n--- plain ---\n%s--- observed ---\n%s", plain, observed)
	}
}
