package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("root", KV("image", "DIR-645"))
	child := root.StartChild("child")
	child.SetAttr("n", 3)
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// End order: child first.
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("span order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent = %d, root id = %d", spans[0].Parent, spans[1].ID)
	}
	if got := spans[0].Attr("n"); got != 3 {
		t.Fatalf("child attr n = %v, want 3", got)
	}
	if got := spans[1].Attr("image"); got != "DIR-645" {
		t.Fatalf("root attr image = %v", got)
	}
	if got := tr.SpanNames(); !reflect.DeepEqual(got, []string{"child", "root"}) {
		t.Fatalf("SpanNames = %v", got)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("x")
	if s != nil {
		t.Fatal("nil tracer should return nil span")
	}
	s.SetAttr("k", 1) // must not panic
	c := s.StartChild("y")
	if c != nil {
		t.Fatal("nil span child should be nil")
	}
	c.End()
	s.End()
	if tr.Spans() != nil {
		t.Fatal("nil tracer should have no spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil-tracer export is not valid JSON: %v", err)
	}
}

func TestTracerStartHelper(t *testing.T) {
	tr := NewTracer()
	// Start with nil parent makes a root span on the tracer.
	a := tr.Start(nil, "a")
	// Start with a parent nests under it.
	b := tr.Start(a, "b")
	b.End()
	a.End()
	spans := tr.Spans()
	if spans[0].Name != "b" || spans[0].Parent != spans[1].ID {
		t.Fatalf("Start(parent) did not nest: %+v", spans)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := root.StartChild("work")
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := len(tr.Spans()); got != 16*50+1 {
		t.Fatalf("got %d spans, want %d", got, 16*50+1)
	}
	// IDs must be unique.
	seen := map[uint64]bool{}
	for _, s := range tr.Spans() {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
}

// recorder is a test Subscriber collecting span names.
type recorder struct {
	mu             sync.Mutex
	started, ended []string
}

func (r *recorder) SpanStart(rec SpanRecord) {
	r.mu.Lock()
	r.started = append(r.started, rec.Name)
	r.mu.Unlock()
}

func (r *recorder) SpanEnd(rec SpanRecord) {
	r.mu.Lock()
	r.ended = append(r.ended, rec.Name)
	r.mu.Unlock()
}

func TestSpanHandlers(t *testing.T) {
	tr := NewTracer()
	rec := &recorder{}
	remove := tr.Subscribe(rec)
	if subs := tr.Subscribers(); len(subs) != 1 || subs[0] != rec {
		t.Fatalf("Subscribers = %v", subs)
	}
	s := tr.StartSpan("stage", KV("total", 10))
	s.End()
	s.End() // double End fires the handler once
	if !reflect.DeepEqual(rec.started, []string{"stage"}) || !reflect.DeepEqual(rec.ended, []string{"stage"}) {
		t.Fatalf("handlers: started=%v ended=%v", rec.started, rec.ended)
	}
	remove()
	tr.StartSpan("after").End()
	if len(rec.started) != 1 || len(tr.Subscribers()) != 0 {
		t.Fatalf("removed subscriber still observes: started=%v", rec.started)
	}
	(*Tracer)(nil).Subscribe(rec)() // nil tracer: no-op registration
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("analyze", KV("binary", "/bin/cgibin"))
	time.Sleep(2 * time.Millisecond)
	c1 := root.StartChild("phase1")
	time.Sleep(2 * time.Millisecond)
	c1.End()
	c2 := root.StartChild("phase2")
	time.Sleep(2 * time.Millisecond)
	c2.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(out.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %s has ph=%q, want X", ev.Name, ev.Ph)
		}
		if ev.Dur <= 0 {
			t.Fatalf("event %s has dur=%d", ev.Name, ev.Dur)
		}
		byName[ev.Name] = i
	}
	// Sequential children of one parent collapse onto the parent's lane.
	rootEv := out.TraceEvents[byName["analyze"]]
	for _, n := range []string{"phase1", "phase2"} {
		ev := out.TraceEvents[byName[n]]
		if ev.Tid != rootEv.Tid {
			t.Fatalf("%s on lane %d, parent on %d — sequential children should share the parent lane", n, ev.Tid, rootEv.Tid)
		}
		if ev.Ts < rootEv.Ts || ev.Ts+ev.Dur > rootEv.Ts+rootEv.Dur {
			t.Fatalf("%s [%d,%d] not contained in parent [%d,%d]", n, ev.Ts, ev.Ts+ev.Dur, rootEv.Ts, rootEv.Ts+rootEv.Dur)
		}
	}
	if got := rootEv.Args["binary"]; got != "/bin/cgibin" {
		t.Fatalf("root args = %v", rootEv.Args)
	}
}

func TestWriteChromeTraceConcurrentSiblings(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("scan")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := root.StartChild("binary")
			time.Sleep(5 * time.Millisecond)
			s.End()
		}()
	}
	wg.Wait()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	// No two events on one lane may overlap in time.
	type iv struct{ s, e int64 }
	byLane := map[int][]iv{}
	for _, ev := range out.TraceEvents {
		byLane[ev.Tid] = append(byLane[ev.Tid], iv{ev.Ts, ev.Ts + ev.Dur})
	}
	for lane, ivs := range byLane {
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				contained := (a.s <= b.s && b.e <= a.e) || (b.s <= a.s && a.e <= b.e)
				disjoint := a.e <= b.s || b.e <= a.s
				if !contained && !disjoint {
					t.Fatalf("lane %d has partially overlapping events %v and %v", lane, a, b)
				}
			}
		}
	}
}
