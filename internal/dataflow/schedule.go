package dataflow

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"

	"dtaint/internal/alias"
	"dtaint/internal/cfg"
	"dtaint/internal/obs"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// runBottomUp executes the bottom-up interprocedural phase (3+4) with a
// dependency-counting scheduler over the call graph's SCC condensation.
// Workers pull ready components — those whose callee components are all
// summarized — from a priority queue ordered by component index and
// decrement caller in-degrees on completion. Each component is analyzed
// by its own tracker shard; its findings, pendings, and counters are
// stashed per component and merged in condensation order afterwards, so
// the result is bit-identical for every worker count.
//
// With a summary store, each component's Merkle key (its function
// digests chained with every callee component's key) is consulted
// before analysis: a stored entry replays the component's complete
// contribution — exported summaries, climbing pending sinks, findings,
// and counters — so the published state and the merged result are
// byte-for-byte what a fresh execution would produce.
//
// stageSpan (nil when tracing is off) parents one "scc-component" span
// per component, replayed ones included — the units progress counts
// against the stage's "components" total.
func runBottomUp(prog *cfg.Program, cond *cfg.Condensation, opts Options, fp *sumstore.Fingerprinter, res *Result, stageSpan *obs.Span) {
	store := opts.SummaryStore
	var keys []string
	if store != nil {
		// Computed after structsim, so resolved indirect callsites and
		// the call edges they added are part of every key.
		keys = fp.CompKeys(cond)
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cond.Comps) {
		workers = len(cond.Comps)
	}
	if workers < 1 {
		workers = 1
	}
	res.Parallel = ParallelStats{
		Workers:      workers,
		Components:   len(cond.Comps),
		CriticalPath: cond.CriticalPath(),
	}

	base := newTracker(opts, prog.Binary)
	shared := &bottomUpState{
		summaries: res.Summaries,
		pendings:  make(map[string][]taint.PendingSink),
	}
	done := make([]compResult, len(cond.Comps))

	var (
		mu        sync.Mutex
		cv        = sync.NewCond(&mu)
		ready     intHeap
		deps      = append([]int(nil), cond.NumDeps...)
		remaining = len(cond.Comps)
	)
	for i, d := range deps {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	heap.Init(&ready)

	var storeHits, storeMisses atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && remaining > 0 {
					cv.Wait()
				}
				if remaining == 0 && len(ready) == 0 {
					mu.Unlock()
					return
				}
				i := heap.Pop(&ready).(int)
				mu.Unlock()

				var r compResult
				replayed := false
				compSpan := stageSpan.StartChild("scc-component",
					obs.KV("index", i), obs.KV("functions", len(cond.Comps[i])))
				if store != nil {
					if ent, ok := store.GetEntry(keys[i]); ok {
						r = entryToComp(ent)
						replayed = true
						storeHits.Add(1)
						compSpan.SetAttr("replayed", true)
					}
				}
				if !replayed {
					r = analyzeComponent(prog, opts, base, shared, cond.Comps[i], compSpan)
				}
				compSpan.End()
				if !replayed && store != nil {
					storeMisses.Add(1)
					store.PutEntry(keys[i], compToEntry(cond.Comps[i], r))
				}
				shared.publish(r)
				done[i] = r

				mu.Lock()
				remaining--
				for _, caller := range cond.Callers[i] {
					deps[caller]--
					if deps[caller] == 0 {
						heap.Push(&ready, caller)
					}
				}
				cv.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.SumStore.Hits += int(storeHits.Load())
	res.SumStore.Misses += int(storeMisses.Load())
	if store != nil {
		stageSpan.SetAttr("store_hits", int(storeHits.Load()))
		stageSpan.SetAttr("store_misses", int(storeMisses.Load()))
	}

	// Deterministic merge: concatenate per-component results in the
	// condensation's (reverse topological) order — exactly the order the
	// sequential schedule produces them in.
	for i := range done {
		res.Findings = append(res.Findings, done[i].findings...)
		res.FunctionsAnalyzed += len(cond.Comps[i])
		res.DefPairCount += done[i].defPairs
		res.Truncated += done[i].truncated
		res.Alias.Merge(done[i].alias)
	}
}

// bottomUpState is the published cross-component state: summaries and
// pending sinks of every completed component. The scheduler's dependency
// counting guarantees a caller component only starts after its callee
// components have published, so readers always find what they need.
type bottomUpState struct {
	mu        sync.RWMutex
	summaries map[string]*symexec.Summary
	pendings  map[string][]taint.PendingSink
}

func (s *bottomUpState) summary(name string) (*symexec.Summary, bool) {
	s.mu.RLock()
	sum, ok := s.summaries[name]
	s.mu.RUnlock()
	return sum, ok
}

func (s *bottomUpState) pending(name string) []taint.PendingSink {
	s.mu.RLock()
	ps := s.pendings[name]
	s.mu.RUnlock()
	return ps
}

func (s *bottomUpState) publish(r compResult) {
	s.mu.Lock()
	for name, sum := range r.summaries {
		s.summaries[name] = sum
	}
	for name, ps := range r.pendings {
		s.pendings[name] = ps
	}
	s.mu.Unlock()
}

// compResult is one component's contribution, stashed until the merge.
// alias is live-run telemetry only: it is NOT round-tripped through the
// summary store (compToEntry/entryToComp drop it), so replayed
// components contribute zero and the deterministic result fields stay
// byte-identical with and without a store.
type compResult struct {
	summaries map[string]*symexec.Summary
	pendings  map[string][]taint.PendingSink
	findings  []taint.Finding
	defPairs  int
	truncated int
	alias     AliasStats
}

// compToEntry packages a component's contribution for the summary
// store. Summaries are listed in the component's fixed function order
// so encoding is deterministic.
func compToEntry(comp []string, r compResult) *sumstore.Entry {
	ent := &sumstore.Entry{
		Pendings:  r.pendings,
		Findings:  r.findings,
		DefPairs:  r.defPairs,
		Truncated: r.truncated,
	}
	for _, name := range comp {
		if sum, ok := r.summaries[name]; ok {
			ent.Summaries = append(ent.Summaries, sum)
		}
	}
	return ent
}

// entryToComp replays a stored component contribution.
func entryToComp(ent *sumstore.Entry) compResult {
	r := compResult{
		summaries: make(map[string]*symexec.Summary, len(ent.Summaries)),
		pendings:  ent.Pendings,
		findings:  ent.Findings,
		defPairs:  ent.DefPairs,
		truncated: ent.Truncated,
	}
	if r.pendings == nil {
		r.pendings = make(map[string][]taint.PendingSink)
	}
	for _, sum := range ent.Summaries {
		r.summaries[sum.Func] = sum
	}
	return r
}

// analyzeComponent runs Algorithm 2 over one SCC component with a private
// tracker shard. Functions inside the component are processed in sorted
// order (the component's fixed order), mirroring the sequential pass;
// lookups prefer the in-flight component, then the published state.
func analyzeComponent(prog *cfg.Program, opts Options, base *taint.Tracker, shared *bottomUpState, comp []string, compSpan *obs.Span) compResult {
	shard := base.Shard()
	local := make(map[string]*symexec.Summary, len(comp))
	oracle := &interOracle{
		tracker: shard,
		lookup: func(name string) (*symexec.Summary, bool) {
			if sum, ok := local[name]; ok {
				return sum, true
			}
			return shared.summary(name)
		},
		pendings: func(name string) []taint.PendingSink {
			if _, ok := local[name]; ok {
				return shard.Pendings(name)
			}
			return shared.pending(name)
		},
		noVRange: opts.DisableVRange,
	}
	out := compResult{
		summaries: local,
		pendings:  make(map[string][]taint.PendingSink, len(comp)),
	}
	for _, name := range comp {
		fnSpan := compSpan.StartChild("ddg-function", obs.KV("fn", name))
		shard.BeginFunction(name)
		sum := symexec.Analyze(prog.ByName[name], prog.Binary, oracle, opts.Symexec)
		if !opts.DisableAlias {
			var ast alias.Stats
			if opts.DisableSSE {
				sum.DefPairs, ast = alias.Rewrite(sum.DefPairs, sum.Types)
			} else {
				sum.DefPairs, ast = alias.RewriteSSE(sum.DefPairs, sum.Types)
			}
			fnSpan.SetAttr("alias_added", ast.Added)
			fnSpan.SetAttr("alias_dropped", ast.Dropped)
			out.alias.Merge(AliasStats{
				Added: ast.Added, Dropped: ast.Dropped,
				Classes: ast.Classes, Intern: ast.Intern,
			})
		}
		shard.EndFunction(sum)
		fnSpan.End(obs.KV("states", sum.StatesExplored))
		local[name] = sum
		out.defPairs += len(sum.DefPairs)
		if sum.Truncated {
			out.truncated++
		}
	}
	for _, name := range comp {
		if ps := shard.Pendings(name); len(ps) > 0 {
			out.pendings[name] = ps
		}
	}
	out.findings = shard.Findings()
	return out
}

// intHeap is a min-heap of component indices: with one worker the pop
// order reproduces the sequential condensation order exactly, and with
// many it keeps scheduling deterministic enough to debug.
type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
