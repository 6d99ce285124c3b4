package sched

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gauge tracks how many units run at once and the peak.
type gauge struct {
	now, peak atomic.Int64
}

func (g *gauge) enter() {
	n := g.now.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (g *gauge) leave() { g.now.Add(-1) }

// Two independent units that each wait for the other to start can only
// finish if they run at once: at budget 2 the caller holds one slot, so
// the second unit must run on a borrowed one.
func TestRunBorrowsIdleSlot(t *testing.T) {
	var started [2]chan struct{}
	for i := range started {
		started[i] = make(chan struct{})
	}
	done := make(chan error, 1)
	go func() {
		done <- NewPool(2).Run(2, 0, nil, nil, func(i int) {
			close(started[i])
			<-started[1-i]
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("units never ran concurrently: no slot was borrowed")
	}
}

// Dependencies hold and every unit runs once: in a diamond 0,1 -> 2 and
// 2 -> 3, no unit starts before its prerequisites finish.
func TestRunRespectsDeps(t *testing.T) {
	deps := []int{0, 0, 2, 1}
	next := [][]int{{2}, {2}, {3}, nil}
	for _, budget := range []int{1, 2, 4} {
		var mu sync.Mutex
		var finished []int
		err := NewPool(budget).Run(4, 0, deps, next, func(i int) {
			mu.Lock()
			defer mu.Unlock()
			for _, d := range map[int][]int{2: {0, 1}, 3: {2}}[i] {
				seen := false
				for _, f := range finished {
					seen = seen || f == d
				}
				if !seen {
					t.Errorf("budget %d: unit %d started before unit %d finished", budget, i, d)
				}
			}
			finished = append(finished, i)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(finished) != 4 {
			t.Fatalf("budget %d: %d units ran, want 4", budget, len(finished))
		}
		if budget == 1 && (finished[0] != 0 || finished[1] != 1) {
			t.Fatalf("budget 1: order %v, want lowest index first", finished)
		}
	}
}

// Peak concurrency never exceeds the pool, even when every unit runs a
// nested Run on the same pool, and a cap of 1 keeps both levels serial.
func TestRunPeakWithinBudget(t *testing.T) {
	for _, tc := range []struct{ budget, limit, want int }{
		{4, 0, 4}, {4, 1, 1}, {3, 2, 3}, {1, 0, 1},
	} {
		p := NewPool(tc.budget)
		var g gauge
		err := p.Run(8, tc.limit, nil, nil, func(int) {
			err := p.Run(6, tc.limit, nil, nil, func(int) {
				g.enter()
				time.Sleep(time.Millisecond)
				g.leave()
			})
			if err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(g.peak.Load()); got > tc.want {
			t.Errorf("budget %d limit %d: peak %d goroutines, want <= %d", tc.budget, tc.limit, got, tc.want)
		}
	}
}

// A unit's panic comes back as a *Panic naming it, no unit starts after
// it, and no goroutine outlives Run — on a clean run or a panicking one.
func TestRunPanicAndGoroutines(t *testing.T) {
	var ran []int
	err := NewPool(1).Run(10, 0, nil, nil, func(i int) {
		ran = append(ran, i)
		if i == 3 {
			panic("boom")
		}
	})
	var pe *Panic
	if !errors.As(err, &pe) || pe.Unit != 3 || pe.Value != "boom" {
		t.Fatalf("err = %v, want unit 3's panic", err)
	}
	if len(ran) != 4 {
		t.Fatalf("units %v ran, want none after the panicking unit 3", ran)
	}

	before := runtime.NumGoroutine()
	p := NewPool(4)
	if err := p.Run(64, 0, nil, nil, func(int) { time.Sleep(100 * time.Microsecond) }); err != nil {
		t.Fatal(err)
	}
	err = p.Run(64, 0, nil, nil, func(i int) {
		if i == 5 {
			panic("boom")
		}
		time.Sleep(100 * time.Microsecond)
	})
	if !errors.As(err, &pe) || pe.Unit != 5 {
		t.Fatalf("err = %v, want unit 5's panic", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(p.idle); got != p.Size()-1 {
		t.Fatalf("%d idle slots after Run, want %d: a borrowed slot was not given back", got, p.Size()-1)
	}
}
