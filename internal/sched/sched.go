// Package sched runs the analysis's parallel work — a fleet wave's
// binaries, phase 1's functions, and the bottom-up pass's SCC
// components — over one budget of worker slots.
//
// A Pool holds N slots. The goroutine that creates a pool holds one of
// them, and every Run is called by a goroutine that holds one: it works
// units under that slot and, while more units are ready than goroutines
// to take them, borrows idle slots — without blocking — for helper
// goroutines. A helper gives its slot back and exits as soon as nothing
// is ready. Runs nest: a binary analyzed inside a fleet wave runs its
// phases on the wave's pool, so they borrow only the slots the wave
// leaves idle, and no more than N goroutines work at once.
package sched

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Pool is a budget of worker slots shared by every Run on it. It is
// safe for concurrent use.
type Pool struct {
	idle chan struct{} // one token per idle slot
}

// NewPool returns a pool of n slots (n <= 0 means GOMAXPROCS), one of
// which the calling goroutine holds.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{idle: make(chan struct{}, n)}
	for range n - 1 {
		p.idle <- struct{}{}
	}
	return p
}

// Size returns the pool's slot count.
func (p *Pool) Size() int { return cap(p.idle) }

// Panic is the error Run returns when a unit panics.
type Panic struct {
	Unit  int // index of the panicking unit
	Value any // the value passed to panic
}

func (e *Panic) Error() string { return fmt.Sprintf("unit %d panicked: %v", e.Unit, e.Value) }

// Run executes units 0..n-1 of a DAG and returns when all have finished.
// deps[i] counts the units that must finish before unit i starts, and
// next[i] lists the units waiting on unit i; nil deps and next make the
// units independent. Ready units start lowest index first, so with one
// goroutine the order is the index order of a topological schedule.
// limit caps the goroutines working on this Run, the caller included
// (0 = no cap beyond the pool's idle slots).
//
// The calling goroutine must hold a slot of p. A unit's panic is
// recovered and returned as a *Panic; no unit starts after it, and Run
// returns once the units already running have finished. No helper
// goroutine outlives Run.
func (p *Pool) Run(n, limit int, deps []int, next [][]int, unit func(i int)) error {
	r := &run{pool: p, limit: limit, unit: unit, next: next, left: n, alive: 1}
	r.wake = sync.NewCond(&r.mu)
	if deps != nil {
		r.deps = append([]int(nil), deps...)
	}
	for i := range n {
		if deps == nil || deps[i] == 0 {
			r.ready = append(r.ready, i)
		}
	}
	r.work(true)
	r.helpers.Wait()
	if r.err == nil && r.left > 0 {
		return fmt.Errorf("sched: %d of %d units never became ready", r.left, n)
	}
	return r.err
}

// run is the state of one Run, guarded by mu.
type run struct {
	pool  *Pool
	limit int
	unit  func(int)
	next  [][]int

	mu    sync.Mutex
	wake  *sync.Cond // the caller waits here for ready units or idleness
	deps  []int
	ready []int // ascending
	alive int   // goroutines in the run: the caller and its helpers
	busy  int   // goroutines running a unit
	left  int   // units not yet finished
	err   error // the first unit panic

	helpers sync.WaitGroup
}

// work runs ready units. A helper returns when nothing is ready; the
// caller waits for more work until no unit runs.
func (r *run) work(caller bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.err == nil && len(r.ready) > 0 {
			i := r.ready[0]
			r.ready = r.ready[1:]
			r.busy++
			r.spawn()
			r.mu.Unlock()
			err := r.call(i)
			r.mu.Lock()
			r.busy--
			r.finish(i, err)
			continue
		}
		if !caller {
			r.alive--
			return
		}
		if r.busy == 0 {
			return
		}
		r.wake.Wait()
	}
}

// spawn borrows idle slots for helpers while more units are ready than
// idle goroutines in the run to take them, within the run's limit.
func (r *run) spawn() {
	for len(r.ready) > r.alive-r.busy && (r.limit <= 0 || r.alive < r.limit) {
		select {
		case <-r.pool.idle:
		default:
			return // no idle slot
		}
		r.alive++
		r.helpers.Add(1)
		go func() {
			defer r.helpers.Done()
			r.work(false)
			r.pool.idle <- struct{}{} // give the slot back
		}()
	}
}

// finish records unit i's outcome and readies the units waiting on it
// (which start only if no unit failed).
func (r *run) finish(i int, err error) {
	r.left--
	if r.err == nil {
		r.err = err
	}
	if r.next != nil {
		for _, c := range r.next[i] {
			if r.deps[c]--; r.deps[c] == 0 {
				at, _ := slices.BinarySearch(r.ready, c)
				r.ready = slices.Insert(r.ready, at, c)
			}
		}
	}
	r.wake.Signal()
}

// call runs unit i, turning a panic into a *Panic.
func (r *run) call(i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &Panic{Unit: i, Value: v}
		}
	}()
	r.unit(i)
	return nil
}
