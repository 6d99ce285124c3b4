package main

import (
	"context"
	"fmt"
	"maps"
	"time"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/diff"
	"dtaint/internal/firmware"
	"dtaint/internal/fleet"
	"dtaint/internal/image"
	"dtaint/internal/sumstore"
)

// release-diff: a vendor re-release shaped like corpus.VersionPairAt(8)
// (96 binaries, 24 mutated, one added, one removed) with the stable
// filler raised so that one diff takes about a second. Set-up
// prior-scans the old image with the default report cache and summary
// store; the operation is diff.Diff from old to new. The pair's summary
// working set deliberately exceeds the default 4096-entry store, so the
// store's evictions and hit rate are part of what is measured.

// diffStableFuncs is the raised stable-filler size per binary.
const diffStableFuncs = 256

func diffSpec(seed uint64) corpus.VersionPairSpec {
	s := corpus.VersionPairAt(8)
	s.SharedFuncs = diffStableFuncs
	s.Seed = seed
	return s
}

// diffState is one prior-scanned report cache and summary store.
type diffState struct {
	cache *fleet.Cache
	store *sumstore.Store
}

// priorScan scans the old image into a fresh default cache and store:
// the nightly scan that precedes the release.
func priorScan(vp *corpus.VersionPair) (*diffState, []string, error) {
	settle()
	cache, err := fleet.NewCache(0, "")
	if err != nil {
		return nil, nil, err
	}
	store, err := sumstore.NewStore(0, "")
	if err != nil {
		return nil, nil, err
	}
	rep, err := fleet.ScanImage(context.Background(), vp.Old, fleet.Options{
		Workers:      workers,
		Analysis:     cliAnalysis(),
		Cache:        cache,
		SummaryStore: store,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("prior scan: %w", err)
	}
	var problems []string
	if rep.Failed+rep.Stalled+rep.Skipped > 0 {
		problems = append(problems, fmt.Sprintf("prior scan of %s %s: %d binaries failed", rep.Product, rep.Version, rep.Failed+rep.Stalled+rep.Skipped))
	}
	// The old image holds every persisting and every fixed finding.
	if want := vp.PersistingVulns + vp.FixedVulns; rep.Vulnerabilities != want {
		problems = append(problems, fmt.Sprintf("prior scan of %s %s: %d vulnerabilities, ground truth %d",
			rep.Product, rep.Version, rep.Vulnerabilities, want))
	}
	return &diffState{cache, store}, problems, nil
}

func (st *diffState) diff(vp *corpus.VersionPair) (*diff.Report, error) {
	rep, err := diff.Diff(context.Background(), vp.Old, vp.New, diff.Options{
		Workers:      workers,
		Analysis:     cliAnalysis(),
		Cache:        st.cache,
		SummaryStore: st.store,
	})
	if err != nil {
		return nil, fmt.Errorf("diff: %w", err)
	}
	return rep, nil
}

// checkDiff compares a diff with the pair's ground truth and returns
// its exact counts.
func checkDiff(vp *corpus.VersionPair, rep *diff.Report, before, after sumstore.Stats) ([]string, map[string]int64) {
	var problems []string
	name := fmt.Sprintf("%s %s->%s", rep.New.Product, rep.Old.Version, rep.New.Version)
	if rep.Failed != 0 {
		problems = append(problems, fmt.Sprintf("%s: %d binary pairs failed", name, rep.Failed))
	}
	if want := vp.Spec.Mutated + 1; rep.Reanalyzed != want {
		problems = append(problems, fmt.Sprintf("%s: re-analyzed %d binaries, ground truth %d (mutated + added)", name, rep.Reanalyzed, want))
	}
	if rep.NewFindings != vp.NewVulns || rep.FixedFindings != vp.FixedVulns || rep.PersistingFindings != vp.PersistingVulns {
		problems = append(problems, fmt.Sprintf("%s: new/fixed/persisting %d/%d/%d, ground truth %d/%d/%d", name,
			rep.NewFindings, rep.FixedFindings, rep.PersistingFindings, vp.NewVulns, vp.FixedVulns, vp.PersistingVulns))
	}
	counts := map[string]int64{
		"diff.units_replayed":   int64(rep.Replayed),
		"diff.units_reanalyzed": int64(rep.Reanalyzed),
		"diff.new":              int64(rep.NewFindings),
		"diff.fixed":            int64(rep.FixedFindings),
		"diff.persisting":       int64(rep.PersistingFindings),
		"sumstore.hits":         int64(after.Hits - before.Hits),
		"sumstore.misses":       int64(after.Misses - before.Misses),
		"sumstore.evictions":    int64(after.Evictions - before.Evictions),
	}
	return problems, counts
}

func runDiff(env *runEnv) (*outcome, error) {
	t0 := time.Now()
	vp, err := corpus.BuildVersionPair(diffSpec(env.seed))
	if err != nil {
		return nil, err
	}
	gen := time.Since(t0)
	out := newOutcome()
	var setups, walls, cpus, allocs []float64
	start := time.Now()
	for op := 0; op < 3 || time.Since(start) < env.seconds; op++ {
		t1 := time.Now()
		st, problems, err := priorScan(vp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t1).Seconds())

		before := st.store.Stats()
		settle()
		c0, r0, t2 := cpuSeconds(), readRuntime(), time.Now()
		rep, err := st.diff(vp)
		if err != nil {
			return nil, err
		}
		walls = append(walls, ms(time.Since(t2)))
		cpus = append(cpus, cpuSeconds()-c0)
		allocs = append(allocs, float64(readRuntime().allocBytes-r0.allocBytes)/(1<<20))
		more, counts := checkDiff(vp, rep, before, st.store.Stats())
		problems = append(problems, more...)
		if op == 0 {
			out.exact = counts
		} else {
			problems = append(problems, sameCounts(out.exact, counts)...)
		}
		out.check(fmt.Sprintf("diff %d", op), problems)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Printf("release-diff: %d diffs; diff_s (median) %.3f; diffs (ms) %.0f; set-up = generation %.3f s + median prior scan %.3f s\n",
		len(walls), median(walls)/1e3, walls, gen.Seconds(), median(setups))
	out.values = map[string]float64{
		"setup_s":     gen.Seconds() + median(setups),
		"op_ms":       median(walls),
		"cpu_s":       median(cpus),
		"alloc_mb":    median(allocs),
		"peak_rss_mb": rss,
	}
	return out, nil
}

// traceDiff times one untraced diff as the reference, then repeats the
// set-up and runs a traced operation: the diff itself, function pairing
// of every changed binary, the layer walk over every binary the diff
// re-analyzed, and the diff report's encoding. Last, it serves the pair
// through dtaintd to measure the serving layers.
func traceDiff(env *runEnv) (*outcome, error) {
	vp, err := corpus.BuildVersionPair(diffSpec(env.seed))
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	st, problems, err := priorScan(vp)
	if err != nil {
		return nil, err
	}
	before := st.store.Stats()
	settle()
	t0 := time.Now()
	rep, err := st.diff(vp)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	more, _ := checkDiff(vp, rep, before, st.store.Stats())
	out.check("untraced diff", append(problems, more...))

	st, problems, err = priorScan(vp)
	if err != nil {
		return nil, err
	}
	settle()
	sp := newSpans()
	w := newLayerWalk(sp, cliAnalysis())
	root := sp.begin(-1, "diff-op")
	storeBefore, cacheBefore := st.store.Stats(), st.cache.Stats()
	sp.do(root, "diff.Diff", func() { rep, err = st.diff(vp) })
	if err != nil {
		return nil, err
	}
	storeAfter, cacheAfter := st.store.Stats(), st.cache.Stats()
	more, counts := checkDiff(vp, rep, storeBefore, storeAfter)
	out.check("traced diff", append(problems, more...))

	oldFiles, err := w.unpack(root, vp.Old)
	if err != nil {
		return nil, err
	}
	newFiles, err := w.unpack(root, vp.New)
	if err != nil {
		return nil, err
	}
	oldByPath := map[string]firmware.File{}
	for _, f := range oldFiles {
		oldByPath[f.Path] = f
	}
	reanalyzed := map[string]bool{}
	for _, b := range rep.Binaries {
		if b.Status == diff.PairChanged || b.Status == diff.PairAdded {
			reanalyzed[b.Path] = true
		}
	}
	vulns := 0
	for _, nf := range newFiles {
		if !reanalyzed[nf.Path] {
			continue
		}
		if of, ok := oldByPath[nf.Path]; ok {
			if err := pairFunctions(sp, root, of, nf); err != nil {
				return nil, err
			}
		}
		res, err := w.binary(root, nf)
		if err != nil {
			return nil, err
		}
		vulns += len(res.Vulnerabilities())
	}
	// Each re-analyzed mutated binary keeps its stable and renamed plants
	// and gains a new tail plant; the added binary brings its own.
	var walkProblems []string
	if want := 2*vp.Spec.Mutated + vp.NewVulns; vulns != want {
		walkProblems = append(walkProblems, fmt.Sprintf("re-analyzed binaries hold %d vulnerabilities, ground truth %d", vulns, want))
	}
	out.check("traced layer walk", walkProblems)
	if err := w.encodeReport(root, rep); err != nil {
		return nil, err
	}
	traced := sp.end(root)
	w.layerMetrics(out)
	maps.Copy(out.exact, counts)

	var bins []float64
	for _, b := range rep.Binaries {
		if b.Duration > 0 {
			bins = append(bins, float64(b.Duration))
		}
	}
	v := out.values
	v["diff.pair_ms"] = median(sp.durations("diff.PairFunctions")) / 1e6
	v["diff.units_replayed"] = float64(rep.Replayed)
	v["diff.units_reanalyzed"] = float64(rep.Reanalyzed)
	v["diff.skip_ratio"] = ratio(rep.Replayed, rep.Replayed+rep.Reanalyzed)
	v["diff.summary_hit_ratio"] = rep.SummaryHitRate
	hits, misses := storeAfter.Hits-storeBefore.Hits, storeAfter.Misses-storeBefore.Misses
	v["sumstore.hits"] = float64(hits)
	v["sumstore.misses"] = float64(misses)
	v["sumstore.hit_ratio"] = ratio(int(hits), int(hits+misses))
	v["sumstore.evictions"] = float64(storeAfter.Evictions - storeBefore.Evictions)
	ch, cm := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	v["fleet.cache_hit_ratio"] = ratio(int(ch), int(ch+cm))
	v["fleet.cache_misses"] = float64(cm)
	v["fleet.binary_p50_ms"] = median(bins) / 1e6
	v["fleet.binary_max_s"] = maxOf(bins) / 1e9
	v["fleet.binaries_failed"] = float64(rep.Failed)
	v["trace.overhead_ms"] = ms(traced - untraced)
	zero(out, "trace.unattributed_ms")
	if err := serveDiff(env, vp, out); err != nil {
		return nil, err
	}
	sp.printSelfTimes()
	fmt.Printf("tracing overhead: traced diff operation %.1f ms vs untraced diff %.1f ms\n", ms(traced), ms(untraced))
	fmt.Printf("summary store: %d hits, %d misses, %d evictions during the diff (capacity 4096 entries)\n",
		hits, misses, storeAfter.Evictions-storeBefore.Evictions)
	return out, sp.write(env.root, fmt.Sprintf("release-diff-seed-%d", env.seed))
}

// pairFunctions builds both versions' CFGs and pairs their functions.
func pairFunctions(sp *spans, parent int, oldF, newF firmware.File) error {
	var progs [2]*cfg.Program
	for i, f := range []firmware.File{oldF, newF} {
		var bin *image.Binary
		var err error
		sp.do(parent, "image.Parse", func() { bin, err = image.Parse(f.Data) })
		if err != nil {
			return fmt.Errorf("parse %s: %w", f.Path, err)
		}
		sp.do(parent, "cfg.Build.pairing", func() { progs[i], err = cfg.Build(bin) })
		if err != nil {
			return fmt.Errorf("cfg %s: %w", f.Path, err)
		}
	}
	sp.do(parent, "diff.PairFunctions", func() { diff.PairFunctions(progs[0], progs[1]) })
	return nil
}

// zeroDiff marks the diff layer bypassed.
func zeroDiff(out *outcome) {
	zero(out, "diff.pair_ms", "diff.units_replayed", "diff.units_reanalyzed",
		"diff.skip_ratio", "diff.summary_hit_ratio")
}
