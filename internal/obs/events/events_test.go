package events

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dtaint/internal/obs"
)

func TestJournalAppendAndSince(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		seq := j.Append(ScanEvent{Type: TypeProgress, Done: i})
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	evs, dropped := j.Since(0)
	if dropped != 0 || len(evs) != 5 {
		t.Fatalf("Since(0) = %d events, %d dropped; want 5, 0", len(evs), dropped)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.Done != i {
			t.Fatalf("event %d = seq %d done %d", i, ev.Seq, ev.Done)
		}
		if ev.Time.IsZero() {
			t.Fatalf("event %d has zero time", i)
		}
	}
	evs, _ = j.Since(3)
	if len(evs) != 2 || evs[0].Seq != 4 {
		t.Fatalf("Since(3) = %+v", evs)
	}
	if evs, _ := j.Since(5); len(evs) != 0 {
		t.Fatalf("Since(head) returned %d events", len(evs))
	}
}

// TestJournalWraparound is the satellite overflow test: a ring of 4
// receiving 10 events keeps the newest 4 and reports the overwritten
// ones as dropped.
func TestJournalWraparound(t *testing.T) {
	j := NewJournal(4)
	for i := 1; i <= 10; i++ {
		j.Append(ScanEvent{Type: TypeProgress, Done: i})
	}
	evs, dropped := j.Since(0)
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("kept %d events, seqs %d..%d; want 4 events 7..10",
			len(evs), evs[0].Seq, evs[len(evs)-1].Seq)
	}
	st := j.Stats()
	want := JournalStats{Appended: 10, Dropped: 6, Capacity: 4, HighWater: 4}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
}

func TestJournalConcurrentAppendAndRead(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.Append(ScanEvent{Type: TypeProgress, Done: i, Attrs: map[string]any{"w": w}})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			evs, _ := j.Since(0)
			for k := 1; k < len(evs); k++ {
				if evs[k].Seq <= evs[k-1].Seq {
					t.Errorf("non-increasing seqs: %d then %d", evs[k-1].Seq, evs[k].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if head := j.Head(); head != 1600 {
		t.Fatalf("head = %d, want 1600", head)
	}
}

func TestSubscribePollAndNext(t *testing.T) {
	j := NewJournal(16)
	j.Append(ScanEvent{Type: TypeStageStart, Stage: "a"})
	j.Append(ScanEvent{Type: TypeStageEnd, Stage: "a"})

	s := j.Subscribe(0)
	defer s.Close()
	evs, dropped := s.Poll()
	if dropped != 0 || len(evs) != 2 {
		t.Fatalf("Poll = %d events, %d dropped", len(evs), dropped)
	}
	if evs, _ := s.Poll(); len(evs) != 0 {
		t.Fatalf("second Poll returned %d events", len(evs))
	}

	go func() {
		time.Sleep(10 * time.Millisecond)
		j.Append(ScanEvent{Type: TypeJobDone})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	evs, _, err := s.Next(ctx)
	if err != nil || len(evs) != 1 || evs[0].Type != TypeJobDone {
		t.Fatalf("Next = %+v, %v", evs, err)
	}

	// Resume semantics: a fresh subscription after seq 2 sees only 3.
	r := j.Subscribe(2)
	defer r.Close()
	evs, _ = r.Poll()
	if len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("resumed Poll = %+v", evs)
	}
}

// A subscriber that fell behind a wrapped ring learns how many events
// it lost — the contract the SSE resume path reports as a comment.
func TestSubscribeBehindWrap(t *testing.T) {
	j := NewJournal(4)
	s := j.Subscribe(0)
	defer s.Close()
	for i := 1; i <= 10; i++ {
		j.Append(ScanEvent{Type: TypeProgress, Done: i})
	}
	evs, dropped := s.Poll()
	if dropped != 6 || len(evs) != 4 {
		t.Fatalf("Poll = %d events, %d dropped; want 4, 6", len(evs), dropped)
	}
	j.Append(ScanEvent{Type: TypeJobDone})
	evs, dropped = s.Poll()
	if dropped != 0 || len(evs) != 1 || evs[0].Seq != 11 {
		t.Fatalf("post-wrap Poll = %+v, %d dropped", evs, dropped)
	}
}

func TestNilJournalHandles(t *testing.T) {
	var j *Journal
	if seq := j.Append(ScanEvent{Type: TypeProgress}); seq != 0 {
		t.Fatalf("nil Append = %d", seq)
	}
	if evs, dropped := j.Since(0); evs != nil || dropped != 0 {
		t.Fatal("nil Since returned data")
	}
	j.OnEvent(func(ScanEvent) {})()
	if j.Stats() != (JournalStats{}) {
		t.Fatal("nil Stats non-zero")
	}
	var w *Watchdog
	w.Stop()
	if w.Stalled() != nil || w.Fired() != 0 {
		t.Fatal("nil watchdog returned state")
	}
	var s *Sub = j.Subscribe(0)
	s.Close()
	if evs, d := s.Poll(); evs != nil || d != 0 {
		t.Fatal("nil sub polled data")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Next(ctx); err == nil {
		t.Fatal("nil sub Next returned without error")
	}
}

// The journal subscriber's progress events carry a moving-rate ETA
// over the stage's finished units.
func TestProgressRateAndETA(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := base
	now = func() time.Time { return clock }
	defer func() { now = time.Now }()

	j := NewJournal(64)
	tr := Observe(nil, Sinks{Journal: j})
	stage := tr.StartSpan("binaries", obs.KV("binaries", 10))
	for i := 1; i <= 5; i++ {
		clock = base.Add(time.Duration(i) * time.Second)
		stage.StartChild("scan-binary").End()
	}
	var evs []ScanEvent
	for _, ev := range j.Snapshot() {
		if ev.Type == TypeProgress {
			evs = append(evs, ev)
		}
	}
	last := evs[len(evs)-1]
	if len(evs) != 5 || last.Done != 5 || last.Total != 10 {
		t.Fatalf("%d progress events, last %d/%d; want 5, 5/10", len(evs), last.Done, last.Total)
	}
	// 1 unit/sec over the window; 5 remaining -> 5s ETA.
	if last.Rate < 0.99 || last.Rate > 1.01 {
		t.Fatalf("rate = %v, want ~1/s", last.Rate)
	}
	if last.ETA < 4900*time.Millisecond || last.ETA > 5100*time.Millisecond {
		t.Fatalf("eta = %v, want ~5s", last.ETA)
	}
	if first := evs[0]; first.Rate != 0 || first.ETA != 0 {
		t.Fatalf("first sample has rate %v eta %v, want unknown", first.Rate, first.ETA)
	}
}

func TestDetKeyExcludesWallClock(t *testing.T) {
	a := ScanEvent{Seq: 1, Time: time.Now(), Type: TypeProgress, Stage: "s",
		Done: 3, Total: 9, Rate: 12.5, ETA: time.Second, Duration: time.Minute,
		Attrs: map[string]any{"b": 2, "a": 1}}
	b := ScanEvent{Seq: 99, Time: time.Now().Add(time.Hour), Type: TypeProgress,
		Stage: "s", Done: 3, Total: 9, Rate: 1e9, ETA: 0, Duration: 0,
		Attrs: map[string]any{"a": 1, "b": 2}}
	if a.DetKey() != b.DetKey() {
		t.Fatalf("DetKey differs on wall-clock-only changes:\n%s\n%s", a.DetKey(), b.DetKey())
	}
	c := b
	c.Done = 4
	if a.DetKey() == c.DetKey() {
		t.Fatal("DetKey ignores Done")
	}
	if !strings.Contains(a.DetKey(), "a=1|b=2") {
		t.Fatalf("attrs not sorted in %q", a.DetKey())
	}
}

func TestDetKeysMultiset(t *testing.T) {
	mk := func(order []int) []ScanEvent {
		evs := make([]ScanEvent, len(order))
		for i, d := range order {
			evs[i] = ScanEvent{Seq: uint64(i), Type: TypeProgress, Done: d, Total: 4}
		}
		return evs
	}
	a := DetKeys(mk([]int{1, 2, 3, 4}))
	b := DetKeys(mk([]int{4, 2, 1, 3}))
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("multisets differ:\n%v\n%v", a, b)
	}
}

func TestPrinterLines(t *testing.T) {
	cases := []struct {
		ev   ScanEvent
		want string
	}{
		{ScanEvent{Type: TypeStageStart, Stage: "parse-image"}, "dtaint: parse-image..."},
		{ScanEvent{Type: TypeStageStart, Stage: "function-analysis",
			Attrs: map[string]any{"functions": 40}}, "dtaint: function-analysis: 40 functions"},
		{ScanEvent{Type: TypeProgress, Stage: "function-analysis", Done: 12, Total: 40},
			"dtaint: function-analysis: 12/40 functions (30%)"},
		{ScanEvent{Type: TypeProgress, Stage: "binaries", Done: 1, Total: 2, ETA: 9 * time.Second},
			"dtaint: binaries: 1/2 binaries (50%) eta 9s"},
		{ScanEvent{Type: TypeStageEnd, Stage: "build-cfg", Duration: 1500 * time.Millisecond},
			"dtaint: build-cfg done in 1.50s"},
		{ScanEvent{Type: TypeBinaryDone, Path: "/bin/sh", Duration: 2 * time.Second,
			Attrs: map[string]any{"status": "ok"}}, "dtaint: scanned /bin/sh (ok) in 2.00s"},
		{ScanEvent{Type: TypeStall, Duration: 30 * time.Second,
			Attrs: map[string]any{"bundle": "/tmp/d/stall-001"}},
			"dtaint: STALL: no span activity for 30s, diagnostic bundle at /tmp/d/stall-001"},
		{ScanEvent{Type: TypeBinaryStart}, ""},
		{ScanEvent{Type: TypeProgress, Stage: "x", Done: 1, Total: 0}, ""},
	}
	for _, c := range cases {
		if got := renderLine(c.ev); got != c.want {
			t.Errorf("renderLine(%s) = %q, want %q", c.ev.Type, got, c.want)
		}
	}

	var sb strings.Builder
	j := NewJournal(8)
	remove := AttachPrinter(j, &sb)
	j.Append(ScanEvent{Type: TypeStageStart, Stage: "parse-image"})
	remove()
	j.Append(ScanEvent{Type: TypeStageStart, Stage: "build-cfg"})
	if got := sb.String(); got != "dtaint: parse-image...\n" {
		t.Fatalf("printed %q", got)
	}
}
