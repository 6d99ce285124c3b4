// Package dataflow implements DTaint's interprocedural data-flow
// generation (Section III-E, Algorithm 2) and orchestrates the whole
// analysis pipeline:
//
//  1. Function analysis — every function is symbolically analyzed once
//     (package symexec), yielding definition pairs, types, and
//     data-structure field observations.
//  2. Indirect-call resolution (sseresolve.go): callsites are matched to
//     function-pointer registrations through SSE equivalence classes
//     (package sse) with data-structure layout similarity (package
//     structsim) as tie-breaker and fallback, augmenting the call graph.
//  3. Bottom-up interprocedural pass — the call graph is condensed into
//     its SCC DAG (cfg.Condense) and traversed callees-before-callers,
//     each function again analyzed exactly once; at every callsite the
//     callee's exported definitions, return values, and pending sinks are
//     instantiated by replacing formal arguments arg0..arg9 and
//     ret_callsite symbols with the caller's actual expressions
//     (Algorithm 2's ReplaceFormalArgs / ReplaceRetVariable), with heap
//     identities re-hashed per callsite chain.
//  4. Pointer-alias rewriting (package alias) extends each function's
//     definition pairs before they are exported — by default from SSE
//     equivalence classes (alias.RewriteSSE), under -ablate sse via the
//     paper's pairwise Algorithm 1.
//
// Both analysis phases run on one scheduler (package sched) over one
// budget of worker slots (Options.Pool). Phase 1's units are independent
// functions; phases 3+4 run the condensation's SCC components as a DAG,
// a component ready once its callee components are summarized. Every
// component is analyzed by its own taint-tracker shard and the
// per-component findings are concatenated in the condensation's
// topological order, so the output — findings, their order, and every
// counter — is bit-identical for any worker count. A panic in any unit
// fails the analysis with an error naming the function.
//
// The result carries every (source, path, sink) finding plus the
// measurements the evaluation tables report.
package dataflow

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dtaint/internal/cfg"
	"dtaint/internal/expr"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/sched"
	"dtaint/internal/sse"
	"dtaint/internal/structsim"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
	"dtaint/internal/vrange"
)

// Options configures the pipeline.
type Options struct {
	// Symexec tunes the per-function engine.
	Symexec symexec.Options
	// DisableAlias skips Algorithm 1 (ablation).
	DisableAlias bool
	// DisableStructSim skips indirect-call resolution (ablation).
	DisableStructSim bool
	// DisableSSE turns off structured symbolic expressions (ablation):
	// pointer-alias rewriting falls back to Algorithm 1's pairwise pass
	// and indirect calls are resolved by layout similarity alone instead
	// of from SSE equivalence classes. The feature bit is folded into
	// OptionsFingerprint, so cached summaries from either configuration
	// never cross.
	DisableSSE bool
	// DisableVRange turns off the interval value-range domain (ablation):
	// sink verdicts fall back to the purely structural/constraint checks,
	// and callee range facts are not imported at callsites. Path discovery
	// is unaffected — only Sanitized and the finding class can change.
	DisableVRange bool
	// Filter restricts analysis to functions for which it returns true
	// (the paper manually restricts Uniview/Hikvision to their network
	// modules). Nil analyzes everything.
	Filter func(name string) bool
	// Vocab replaces the embedded default source/sink/sanitizer
	// vocabulary with a compiled custom spec (see internal/vocab). Nil
	// uses the default. The vocabulary drives library-call models, the
	// sink census, type prototypes, and sanitization verdicts, and its
	// fingerprint is folded into OptionsFingerprint so vocabulary changes
	// invalidate cached summaries and reports.
	Vocab *taint.Vocabulary
	// ExtraSources adds custom attacker-controlled input functions to the
	// Table I vocabulary (e.g. vendor NVRAM getters).
	ExtraSources []taint.SourceSpec
	// ExtraSinks adds custom security-sensitive sinks.
	ExtraSinks []taint.SinkSpec
	// SummaryStore, when non-nil, caches analysis results content-
	// addressed by function bytes + ISA + options fingerprint
	// (internal/sumstore): phase-1 summaries per function and bottom-up
	// results per SCC component. The scheduler consults it before
	// symbolically executing a unit and writes back after, so a corpus
	// re-scan — or a scan of binaries sharing code — skips every
	// already-summarized function. Results are bit-identical with and
	// without a store, so the store is excluded from cache fingerprints.
	SummaryStore *sumstore.Store
	// Parallelism caps the goroutines that work on this analysis, in
	// both phases: 1 is the sequential schedule and 0 means no cap
	// beyond the pool. The per-function phase fans out over independent
	// functions; the bottom-up phase runs SCC components of the
	// condensed call graph whose callees are all summarized, so sibling
	// components run concurrently. Results are identical for any value.
	Parallelism int
	// Pool is the worker-slot budget the analysis borrows goroutines
	// from: a fleet scan's, shared by every binary in flight, or (nil) a
	// private pool of Parallelism slots (0 = GOMAXPROCS). Like Tracer it
	// never influences results and is excluded from fingerprints.
	Pool *sched.Pool

	// Tracer records pipeline-stage spans (nil = telemetry off). It is
	// the analysis's only telemetry handle: every count a stage reports
	// is an attr on its span, and the journal events, stage metrics, and
	// stage log lines are derived from the span stream by the
	// subscribers events.Observe attaches. Observability never
	// influences analysis results and is excluded from cache
	// fingerprints.
	Tracer *obs.Tracer
	// ParentSpan nests this analysis's stage spans under an enclosing span
	// (e.g. a fleet scan's per-binary span). Nil makes stages root spans.
	ParentSpan *obs.Span
}

// DefaultOptions returns the paper's default configuration: every
// analysis on and the loop-once heuristic. The library, dtaint, and
// dtaintd all start from it, so their results (and cache keys) agree.
func DefaultOptions() Options {
	return Options{Symexec: symexec.Options{LoopOnce: true}}
}

// Ablate disables the analyses named in list, a comma-separated subset
// of alias, sse, structsim, and vrange — the -ablate syntax of both
// CLIs. An unknown name is an error; empty entries are ignored.
func (o *Options) Ablate(list string) error {
	for _, name := range strings.Split(list, ",") {
		switch strings.TrimSpace(name) {
		case "alias":
			o.DisableAlias = true
		case "sse":
			o.DisableSSE = true
		case "structsim":
			o.DisableStructSim = true
		case "vrange":
			o.DisableVRange = true
		case "":
		default:
			return fmt.Errorf("unknown -ablate feature %q (want alias, sse, structsim, or vrange)", name)
		}
	}
	return nil
}

// newTracker builds a tracker with the configured vocabulary and access
// to the program image (for rodata-aware models).
func newTracker(opts Options, bin *image.Binary) *taint.Tracker {
	t := taint.NewTracker()
	t.SetVocabulary(opts.Vocab)
	t.SetBinary(bin)
	if opts.DisableVRange {
		t.DisableValueRange()
	}
	for _, s := range opts.ExtraSources {
		t.AddSource(s)
	}
	for _, s := range opts.ExtraSinks {
		t.AddSink(s)
	}
	return t
}

// Result is the output of a whole-binary analysis.
type Result struct {
	// Summaries holds the final per-function summaries (post alias
	// rewriting), keyed by function name.
	Summaries map[string]*symexec.Summary
	// Findings are all (source, path, sink) tuples, sanitized or not.
	Findings []taint.Finding
	// Resolutions are the indirect calls bound by layout similarity.
	Resolutions []structsim.Resolution

	FunctionsAnalyzed int
	SinkCount         int
	DefPairCount      int
	SSATime           time.Duration
	DDGTime           time.Duration
	Truncated         int // functions that hit the state cap

	// Parallel reports how the bottom-up scheduler executed (phase 3+4).
	Parallel ParallelStats

	// Resolve reports how phase 2 bound indirect callsites (zero when
	// structsim is disabled or the run ablated SSE).
	Resolve ResolveStats
	// Alias aggregates the alias-rewrite statistics over live-analyzed
	// functions: pairs synthesized, pairs dropped past the budget, class
	// counts, and intern-table shape. Components replayed from a summary
	// store contribute zero — the field is run telemetry, deliberately
	// kept out of stored entries so the deterministic result (findings,
	// summaries, counters) stays byte-identical with and without a store.
	Alias AliasStats

	// SumStore counts this run's summary-store lookups across both
	// phases (zero when Options.SummaryStore is nil).
	SumStore StoreStats
}

// StoreStats counts one analysis run's summary-store lookups.
type StoreStats struct {
	// Hits is the number of analysis units (phase-1 functions and
	// bottom-up components) replayed from the store.
	Hits int
	// Misses is the number of units that had to be symbolically
	// executed (and were then written back).
	Misses int
}

// AliasStats aggregates the alias-rewrite pass's statistics across the
// functions analyzed live in one run.
type AliasStats struct {
	// Added counts synthesized alias pairs appended to definition pairs.
	Added int
	// Dropped counts synthesized pairs discarded past the engine budget
	// (MaxNewPairs / MaxNewPairsSSE) — previously lost silently.
	Dropped int
	// Classes counts alias classes with two or more members (SSE only).
	Classes int
	// Intern sums the per-function intern-table statistics (SSE only).
	Intern sse.Stats
}

// Merge adds b's counts into a.
func (a *AliasStats) Merge(b AliasStats) {
	a.Added += b.Added
	a.Dropped += b.Dropped
	a.Classes += b.Classes
	a.Intern.Nodes += b.Intern.Nodes
	a.Intern.Hits += b.Intern.Hits
	a.Intern.Misses += b.Intern.Misses
	a.Intern.Unions += b.Intern.Unions
	a.Intern.Conflicts += b.Intern.Conflicts
}

// ParallelStats describes one parallel bottom-up interprocedural pass.
type ParallelStats struct {
	// Workers is the most goroutines the SCC-DAG pass could run on: the
	// pool's size, capped by Parallelism and the component count.
	Workers int
	// Components is the number of call-graph SCC components scheduled.
	Components int
	// CriticalPath is the longest chain of dependent components — the
	// minimum number of sequential scheduling steps, so
	// Components/CriticalPath approximates the achievable DDG speedup.
	CriticalPath int
}

// VulnerablePaths returns the unsanitized findings (Table III's
// "Vulnerable paths" column).
func (r *Result) VulnerablePaths() []taint.Finding {
	var out []taint.Finding
	for _, f := range r.Findings {
		if !f.Sanitized {
			out = append(out, f)
		}
	}
	return out
}

// Vulnerabilities deduplicates unsanitized findings by sink location and
// class (Table III's "Vulnerability" column: several paths may reach the
// same weak sink).
func (r *Result) Vulnerabilities() []taint.Finding {
	seen := make(map[string]bool)
	var out []taint.Finding
	for _, f := range r.Findings {
		if f.Sanitized {
			continue
		}
		key := taint.VulnKey(f.SinkFunc, f.Sink, f.SinkAddr, f.Class.String())
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, f)
	}
	return out
}

// ErrNoProgram is returned when prog is nil or empty.
var ErrNoProgram = errors.New("dataflow: empty program")

// Analyze runs the full DTaint pipeline over a program.
func Analyze(prog *cfg.Program, opts Options) (*Result, error) {
	if prog == nil || len(prog.Funcs) == 0 {
		return nil, ErrNoProgram
	}
	names := filteredNames(prog, opts.Filter)
	if len(names) == 0 {
		return nil, ErrNoProgram
	}
	if opts.Symexec.Prototypes == nil {
		opts.Symexec.Prototypes = taint.PrototypesFor(opts.Vocab)
	}

	if opts.Pool == nil {
		opts.Pool = sched.NewPool(opts.Parallelism)
	}

	res := &Result{Summaries: make(map[string]*symexec.Summary, len(names))}

	// The summary-store fingerprinter keys both cached granularities.
	// The filter tag is deliberately empty: a function filter only
	// selects which functions and call-graph components exist, and both
	// are captured structurally by the per-function and per-component
	// digests (see sumstore.Fingerprinter).
	var fp *sumstore.Fingerprinter
	if opts.SummaryStore != nil {
		fp = sumstore.NewFingerprinter(prog, OptionsFingerprint(opts, ""))
	}

	// Phase 1: per-function static symbolic analysis (the paper's SSA
	// module). Scratch trackers supply library models; their findings are
	// discarded — this phase only exists to collect layouts, types, and
	// indirect callsites. Functions are independent, so the phase fans
	// out across workers (each unit with its own tracker).
	t0 := time.Now()
	st := opts.Tracer.Start(opts.ParentSpan, "function-analysis", obs.KV("functions", len(names)))
	phase1, err := runPhase1(prog, names, opts, fp, res, st)
	res.SSATime = time.Since(t0)
	st.End()
	if err != nil {
		return nil, err
	}

	// Phase 2: indirect-call resolution. By default each callsite is
	// resolved from SSE equivalence classes (registration and dispatch
	// paths expanded through per-function alias classes, matched by
	// interned-path identity) with layout similarity demoted to a
	// tie-breaker; ablating SSE falls back to pure layout-similarity
	// resolution, and ablating structsim skips the phase entirely.
	if !opts.DisableStructSim {
		st = opts.Tracer.Start(opts.ParentSpan, "structsim")
		if opts.DisableSSE {
			res.Resolutions = structsim.ResolveIndirect(phase1)
		} else {
			res.Resolutions, res.Resolve = resolveIndirectSSE(phase1)
			st.SetAttr("by_sse", res.Resolve.BySSE)
			st.SetAttr("by_structsim", res.Resolve.ByStructSim)
		}
		for _, r := range res.Resolutions {
			prog.AddCallEdge(r.Caller, r.Site, r.Callee)
		}
		st.End(obs.KV("resolved", len(res.Resolutions)))
	}

	// Phase 3+4: bottom-up interprocedural data flow with alias rewriting,
	// scheduled over the condensed call graph's SCC DAG. The stage
	// declares its component total up front: finished scc-component
	// spans count against it as progress.
	t1 := time.Now()
	cond := prog.Condense(names)
	st = opts.Tracer.Start(opts.ParentSpan, "interproc-dataflow",
		obs.KV("functions", len(names)), obs.KV("components", len(cond.Comps)))
	err = runBottomUp(prog, cond, opts, fp, res, st)
	res.DDGTime = time.Since(t1)
	st.End(obs.KV("findings", len(res.Findings)),
		obs.KV("defpairs", res.DefPairCount), obs.KV("truncated", res.Truncated),
		obs.KV("alias_added", res.Alias.Added), obs.KV("alias_dropped", res.Alias.Dropped))
	if err != nil {
		return nil, err
	}

	st = opts.Tracer.Start(opts.ParentSpan, "count-sinks")
	res.SinkCount = countSinks(prog, names, res.Summaries, opts)
	st.End(obs.KV("sinks", res.SinkCount))
	return res, nil
}

// runPhase1 analyzes every function independently, in parallel. stageSpan
// (nil when tracing is off) parents one "ssa-function" span per unit,
// replayed units included — the units progress counts against the
// stage's "functions" total.
// With a summary store, each function's phase-1 key is consulted first:
// phase 1 applies no callee summaries and its scratch tracker's
// side-effects are discarded, so a stored summary replays the unit
// exactly, and skipping the execution cannot affect any other unit.
func runPhase1(prog *cfg.Program, names []string, opts Options, fp *sumstore.Fingerprinter, res *Result, stageSpan *obs.Span) (map[string]*symexec.Summary, error) {
	store := opts.SummaryStore
	var keys []string
	if store != nil {
		// Keys are derived serially up front: digests walk decoded
		// instructions, a negligible pass next to symbolic execution.
		keys = make([]string, len(names))
		for i, name := range names {
			keys[i] = fp.FuncKey(name)
		}
	}
	base := newTracker(opts, prog.Binary)
	var hits, misses atomic.Int64
	sums := make([]*symexec.Summary, len(names))
	err := opts.Pool.Run(len(names), opts.Parallelism, nil, nil, func(i int) {
		sp := stageSpan.StartChild("ssa-function", obs.KV("fn", names[i]))
		if store != nil {
			if sum, ok := store.GetSummary(keys[i]); ok {
				hits.Add(1)
				sp.End(obs.KV("replayed", true))
				sums[i] = sum
				return
			}
		}
		scratch := base.Shard()
		scratch.BeginFunction(names[i])
		sums[i] = execute(prog.ByName[names[i]], prog.Binary, scratch, opts.Symexec)
		sp.End(obs.KV("states", sums[i].StatesExplored))
		if store != nil {
			misses.Add(1)
			store.PutSummary(keys[i], sums[i])
		}
	})
	res.SumStore.Hits += int(hits.Load())
	res.SumStore.Misses += int(misses.Load())
	if store != nil {
		stageSpan.SetAttr("store_hits", int(hits.Load()))
		stageSpan.SetAttr("store_misses", int(misses.Load()))
	}
	if err != nil {
		return nil, panicked(err, func(i int) string { return names[i] })
	}
	out := make(map[string]*symexec.Summary, len(names))
	for i, name := range names {
		out[name] = sums[i]
	}
	return out, nil
}

// execute is the per-function symbolic engine of both phases; a
// variable so tests can substitute a panicking engine.
var execute = symexec.Analyze

// panicked turns a scheduler error into the analysis error, naming the
// function (fn of the unit index) whose analysis panicked.
func panicked(err error, fn func(unit int) string) error {
	var p *sched.Panic
	if errors.As(err, &p) {
		return fmt.Errorf("dataflow: panicked in %s: %v", fn(p.Unit), p.Value)
	}
	return err
}

func filteredNames(prog *cfg.Program, filter func(string) bool) []string {
	names := make([]string, 0, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		if filter == nil || filter(fn.Name) {
			names = append(names, fn.Name)
		}
	}
	sort.Strings(names)
	return names
}

// countSinks counts static sink sites: import callsites whose callee is in
// the vocabulary's sink census plus loop-copy stores (deduplicated by
// address).
func countSinks(prog *cfg.Program, names []string, sums map[string]*symexec.Summary, opts Options) int {
	census := taint.Sinks
	if opts.Vocab != nil {
		census = opts.Vocab.SinkNames()
	}
	sinkNames := make(map[string]bool, len(census)+len(opts.ExtraSinks))
	for _, s := range census {
		sinkNames[s] = true
	}
	for _, s := range opts.ExtraSinks {
		sinkNames[s.Name] = true
	}
	n := 0
	for _, name := range names {
		fn := prog.ByName[name]
		for _, cs := range fn.Calls {
			if cs.Kind == cfg.CallImport && sinkNames[cs.Callee] {
				n++
			}
		}
		if sum := sums[name]; sum != nil {
			seen := map[uint32]bool{}
			for _, ls := range sum.LoopStores {
				if !seen[ls.Addr] {
					seen[ls.Addr] = true
					n++
				}
			}
		}
	}
	return n
}

// interOracle composes the taint tracker's library models with callee
// summary application for local calls (Algorithm 2). The summary and
// pending lookups are injected by the scheduler so a component worker
// sees its own in-flight component first and the published global state
// behind it.
type interOracle struct {
	tracker  *taint.Tracker
	lookup   func(name string) (*symexec.Summary, bool)
	pendings func(name string) []taint.PendingSink
	noVRange bool
}

var _ symexec.Oracle = (*interOracle)(nil)

// Call implements symexec.Oracle.
func (o *interOracle) Call(ctx *symexec.CallContext) symexec.CallEffect {
	if ctx.Kind == cfg.CallImport || ctx.Kind == cfg.CallUnknown {
		return o.tracker.Call(ctx)
	}
	sum, ok := o.lookup(ctx.Callee)
	if !ok {
		// Within an SCC (recursion) the callee may not be summarized yet;
		// the engine falls back to a fresh return symbol.
		return symexec.CallEffect{}
	}
	sub := substitutor(ctx)

	eff := symexec.CallEffect{Handled: true}
	eff.Ret = calleeRet(sum, sub, ctx.Callee, ctx.Site)
	// PushToCallSite: exported definitions (root pointer is a formal
	// argument, a heap identity, or tainted data) are instantiated in the
	// caller's state.
	for _, dp := range sum.DefPairs {
		if !exportable(dp.D) {
			continue
		}
		// Definitions mentioning callee frame-locals cannot be expressed
		// in the caller: the callee's "sp" symbol would collide with the
		// caller's own stack pointer.
		if containsFrameLocal(dp.D) || containsFrameLocal(dp.U) {
			continue
		}
		addr, okD := dp.D.DerefAddr()
		if !okD {
			continue
		}
		eff.MemDefs = append(eff.MemDefs, symexec.MemDef{
			Addr: sub(addr),
			Val:  sub(dp.U),
		})
	}
	// Interval facts proven in the callee climb to the caller: length and
	// parsed-value symbols are hash-stable across the substitution
	// (ReplaceFormalArgs cannot rewrite hashed names), so they import
	// verbatim; the return value's interval attaches to the instantiated
	// return expression's key. Formal-argument keys (argN) are skipped — a
	// bound observed on one path through the callee does not hold for the
	// actual on every path.
	if !o.noVRange && len(sum.Ranges) > 0 {
		addRange := func(k string, iv vrange.Interval) {
			if eff.Ranges == nil {
				eff.Ranges = make(map[string]vrange.Interval)
			}
			eff.Ranges[k] = iv
		}
		for k, iv := range sum.Ranges {
			if strings.HasPrefix(k, "len_") || strings.HasPrefix(k, "atoi_") {
				addRange(k, iv)
			}
		}
		if eff.Ret != nil && len(sum.Rets) > 0 {
			riv := vrange.Bottom()
			for _, r := range sum.Rets {
				riv = riv.Join(vrange.OfExpr(r, vrange.Env(sum.Ranges)))
			}
			if riv.Bounded() {
				addRange(eff.Ret.Key(), riv)
			}
		}
	}
	// Pending sinks climb from the callee into this function.
	o.tracker.ImportPending(o.pendings(ctx.Callee), sub, ctx.Site)
	return eff
}

// calleeRet instantiates a summarized callee's return value at the
// callsite (Algorithm 2's ReplaceRetVariable). A single return
// substitutes directly; a small set of alternative returns is
// OR-combined so taint in any branch's return value survives (sound for
// detection). When the set is too large to combine, or every substituted
// return resolves to nil, the callee's return must not silently vanish:
// the opaque per-callsite ret symbol (the same name the engine would
// assign) is kept instead.
func calleeRet(sum *symexec.Summary, sub func(*expr.Expr) *expr.Expr, callee string, site uint32) *expr.Expr {
	var ret *expr.Expr
	switch {
	case len(sum.Rets) == 1:
		ret = sub(sum.Rets[0])
	case len(sum.Rets) >= 2 && len(sum.Rets) <= 4:
		for _, r := range sum.Rets {
			rs := sub(r)
			if rs == nil {
				continue
			}
			if ret == nil {
				ret = rs
			} else if !ret.Equal(rs) {
				ret = expr.Bin(expr.OpOr, ret, rs)
			}
		}
	}
	if ret == nil && len(sum.Rets) > 0 {
		ret = expr.Sym(expr.RetName(callee, uint64(site)))
	}
	return ret
}

// substitutor builds Algorithm 2's replacement: formal arguments become
// the callsite's actual expressions, heap identities are re-hashed with
// the callsite (unique per callsite chain), and the result is resolved
// against the live caller state.
func substitutor(ctx *symexec.CallContext) func(*expr.Expr) *expr.Expr {
	m := make(map[string]*expr.Expr, len(ctx.Args))
	for i, a := range ctx.Args {
		if a != nil {
			m[expr.ArgName(i)] = a
		}
	}
	site := uint64(ctx.Site)
	return func(e *expr.Expr) *expr.Expr {
		if e == nil {
			return nil
		}
		// Re-hash heap identities BEFORE substituting actuals: only heap
		// symbols originating in the callee (its allocation sites) extend
		// their callsite chain; heap pointers the caller passes in as
		// arguments keep their identity.
		e = e.MapSyms(func(name string) *expr.Expr {
			if expr.IsHeapName(name) {
				return expr.Sym(expr.RehashHeap(name, site))
			}
			return nil
		})
		e = e.SubstMap(m)
		return ctx.ResolveDeep(e)
	}
}

// exportable reports whether a definition's destination survives the
// callee's frame: rooted at a formal argument, a heap object, tainted
// data, or an absolute memory address (a global — Section III-B: "in the
// absolute memory address, DTaint directly uses the memory to present
// variables, such as 0x670B0"). Stack-rooted and register-init-rooted
// definitions are locals.
func exportable(d *expr.Expr) bool {
	if isGlobalDeref(d) {
		return true
	}
	root := d.RootPointer()
	if root == nil {
		return false
	}
	name, ok := root.SymName()
	if !ok {
		return false
	}
	if _, isArg := expr.ArgIndex(name); isArg {
		return true
	}
	return expr.IsHeapName(name) || expr.IsTaintName(name)
}

// isGlobalDeref reports whether d is a memory access at an absolute
// (constant) address, possibly nested (deref(deref(0x670B0)+4)).
func isGlobalDeref(d *expr.Expr) bool {
	addr, ok := d.DerefAddr()
	if !ok {
		return false
	}
	if _, isConst := addr.ConstVal(); isConst {
		return true
	}
	base, _, ok := addr.BasePlusOffset()
	if !ok {
		return false
	}
	if _, isConst := base.ConstVal(); isConst {
		return true
	}
	if base.IsDeref() {
		return isGlobalDeref(base)
	}
	return false
}

// containsFrameLocal reports whether e mentions a symbol private to the
// callee's frame (its stack pointer, uninitialized registers, or opaque
// truncation symbols).
func containsFrameLocal(e *expr.Expr) bool {
	if e == nil {
		return false
	}
	return e.AnySym(isFrameLocalName)
}

func isFrameLocalName(s string) bool {
	return s == expr.StackSym || strings.HasPrefix(s, "init_") || strings.HasPrefix(s, "opaque_")
}
