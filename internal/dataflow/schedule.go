package dataflow

import (
	"maps"
	"sync/atomic"

	"dtaint/internal/alias"
	"dtaint/internal/cfg"
	"dtaint/internal/obs"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// runBottomUp executes the bottom-up interprocedural phase (3+4) over
// the call graph's SCC condensation on opts.Pool: a component is ready
// once its callee components are all summarized, ready components run
// lowest index first, and each completion readies its callers. Each
// component is analyzed by its own tracker shard; its findings,
// pendings, and counters are stashed per component and merged in
// condensation order afterwards, so the result is bit-identical for
// every worker count.
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
// against the stage's "components" total. A panic in any component
// comes back as an error naming the function being analyzed.
func runBottomUp(prog *cfg.Program, cond *cfg.Condensation, opts Options, fp *sumstore.Fingerprinter, res *Result, stageSpan *obs.Span) error {
	store := opts.SummaryStore
	var keys []string
	if store != nil {
		// Computed after structsim, so resolved indirect callsites and
		// the call edges they added are part of every key.
		keys = fp.CompKeys(cond)
	}
	workers := opts.Pool.Size()
	if opts.Parallelism > 0 {
		workers = min(workers, opts.Parallelism)
	}
	res.Parallel = ParallelStats{
		Workers:      max(1, min(workers, len(cond.Comps))),
		Components:   len(cond.Comps),
		CriticalPath: cond.CriticalPath(),
	}

	base := newTracker(opts, prog.Binary)
	// done[i] is component i's contribution. A component runs only after
	// its callee components finished, so reading their slots needs no
	// lock.
	done := make([]compResult, len(cond.Comps))
	var outside compResult // functions outside the condensation
	published := func(name string) *compResult {
		if j, ok := cond.CompOf[name]; ok {
			return &done[j]
		}
		return &outside
	}
	// at[i] is the function component i is analyzing, to name a panic.
	at := make([]string, len(cond.Comps))

	var storeHits, storeMisses atomic.Int64
	err := opts.Pool.Run(len(cond.Comps), opts.Parallelism, cond.NumDeps, cond.Callers, func(i int) {
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
			r = analyzeComponent(prog, opts, base, published, cond.Comps[i], compSpan, &at[i])
		}
		compSpan.End()
		if !replayed && store != nil {
			storeMisses.Add(1)
			store.PutEntry(keys[i], compToEntry(cond.Comps[i], r))
		}
		done[i] = r
	})
	res.SumStore.Hits += int(storeHits.Load())
	res.SumStore.Misses += int(storeMisses.Load())
	if store != nil {
		stageSpan.SetAttr("store_hits", int(storeHits.Load()))
		stageSpan.SetAttr("store_misses", int(storeMisses.Load()))
	}
	if err != nil {
		return panicked(err, func(i int) string { return at[i] })
	}

	// Deterministic merge: concatenate per-component results in the
	// condensation's (reverse topological) order — exactly the order the
	// sequential schedule produces them in.
	for i := range done {
		maps.Copy(res.Summaries, done[i].summaries)
		res.Findings = append(res.Findings, done[i].findings...)
		res.FunctionsAnalyzed += len(cond.Comps[i])
		res.DefPairCount += done[i].defPairs
		res.Truncated += done[i].truncated
		res.Alias.Merge(done[i].alias)
	}
	return nil
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
// lookups prefer the in-flight component, then the published callee
// components.
// *at names the function under analysis.
func analyzeComponent(prog *cfg.Program, opts Options, base *taint.Tracker, published func(name string) *compResult, comp []string, compSpan *obs.Span, at *string) compResult {
	shard := base.Shard()
	local := make(map[string]*symexec.Summary, len(comp))
	oracle := &interOracle{
		tracker: shard,
		lookup: func(name string) (*symexec.Summary, bool) {
			if sum, ok := local[name]; ok {
				return sum, true
			}
			sum, ok := published(name).summaries[name]
			return sum, ok
		},
		pendings: func(name string) []taint.PendingSink {
			if _, ok := local[name]; ok {
				return shard.Pendings(name)
			}
			return published(name).pendings[name]
		},
		noVRange: opts.DisableVRange,
	}
	out := compResult{
		summaries: local,
		pendings:  make(map[string][]taint.PendingSink, len(comp)),
	}
	for _, name := range comp {
		*at = name
		fnSpan := compSpan.StartChild("ddg-function", obs.KV("fn", name))
		shard.BeginFunction(name)
		sum := execute(prog.ByName[name], prog.Binary, oracle, opts.Symexec)
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
