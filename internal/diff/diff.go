// Package diff implements differential firmware scanning: given two
// versions of a firmware image, it pairs binaries by rootfs path and
// SHA-256, replays unchanged binaries from the fleet report cache,
// re-analyzes only changed ones — inside which unchanged functions
// replay from the function-summary store — and matches findings across
// versions via taint.VulnKey plus a function pairing, so every finding
// classifies as new, fixed, or persisting.
//
// This is the "CI for firmware" workload (ROADMAP item 5): a vendor
// re-release scan whose cost is proportional to the delta, not the image
// size. The determinism contract matches the rest of the pipeline: for a
// fixed image pair and analysis options, the report's semantic content
// (Report.Signature) is identical for any worker count and with the
// summary store on or off.
package diff

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dtaint/internal/cfg"
	"dtaint/internal/dataflow"
	"dtaint/internal/firmware"
	"dtaint/internal/fleet"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
	"dtaint/internal/sumstore"
	"dtaint/internal/taint"
)

// Options configures a differential scan. The analysis knobs mirror
// fleet.Options so a diff shares caches — and cache keys — with ordinary
// fleet scans of the same images.
type Options struct {
	// Workers bounds how many binaries are analyzed concurrently
	// (0 = GOMAXPROCS, negative rejected).
	Workers int
	// PerBinaryTimeout caps one binary's analysis wall clock (0 = none).
	PerBinaryTimeout time.Duration
	// Analysis configures the per-binary analyzer. Parallelism 0 is set
	// to 1, as in fleet scans.
	Analysis dataflow.Options
	// FilterTag names Analysis.Filter for cache keys; caching is bypassed
	// when Analysis.Filter is non-nil and FilterTag is empty.
	FilterTag string
	// Cache, when non-nil, replays unchanged binaries' reports instead of
	// re-analyzing them — the diff's headline saving. The keys are the
	// same as fleet scans', so a prior nightly scan warms the diff.
	Cache *fleet.Cache
	// SummaryStore, when non-nil, replays unchanged *functions* inside
	// changed binaries. The diff analyzes all old-version binaries before
	// new-version-only ones, so the new side hits summaries the old side
	// just wrote even on a cold store.
	SummaryStore *sumstore.Store
	// PathFilter restricts candidates to rootfs paths for which it
	// returns true (applied to both images).
	PathFilter func(path string) bool
	// Progress, when non-nil, is called after each analysis unit
	// completes with done and total counts. Calls are serialized.
	Progress func(done, total int)
}

// binPair is one rootfs binary tracked across the two versions.
type binPair struct {
	path    string // new-image path (old-image path for removed)
	oldPath string // set when it differs from path (moved)
	status  PairStatus
	oldFile *firmware.File
	newFile *firmware.File
	oldSHA  string
	newSHA  string
}

// unit is one distinct binary content that needs an analysis. Pairs
// sharing bytes share a unit.
type unit struct {
	sha     string
	file    firmware.File
	oldSide bool // needed by the old image (analyzed in the first wave)
}

// unitResult is a unit's outcome.
type unitResult struct {
	an  *fleet.BinaryAnalysis
	src Source
	err error
	dur time.Duration
}

// Diff scans the delta between two firmware images. It returns an error
// only when an image fails to unpack or the options are invalid;
// per-binary analysis failures are embedded in the report.
func Diff(ctx context.Context, oldData, newData []byte, opts Options) (*Report, error) {
	if opts.Workers < 0 {
		return nil, fleet.ErrBadWorkers
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Analysis.Parallelism == 0 {
		opts.Analysis.Parallelism = 1
	}
	if opts.SummaryStore != nil {
		opts.Analysis.SummaryStore = opts.SummaryStore
	}
	start := time.Now()

	diffSpan := opts.Analysis.Tracer.Start(opts.Analysis.ParentSpan, "diff-images")
	opts.Analysis.ParentSpan = diffSpan
	defer diffSpan.End()

	st := opts.Analysis.StartStage("unpack-images",
		obs.KV("oldBytes", len(oldData)), obs.KV("newBytes", len(newData)))
	oldImg, oldBins, err := unpackCandidates(oldData, opts)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("diff: old image: %w", err)
	}
	newImg, newBins, err := unpackCandidates(newData, opts)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("diff: new image: %w", err)
	}
	st.End("oldCandidates", len(oldBins), "newCandidates", len(newBins))
	diffSpan.SetAttr("product", newImg.Header.Product)

	st = opts.Analysis.StartStage("pair-binaries")
	pairs := pairBinaries(oldBins, newBins)
	units, order := planUnits(pairs)
	st.End("pairs", len(pairs), "units", len(units))

	st = opts.Analysis.StartStage("analyze-units", obs.KV("units", len(units)))
	results := executeUnits(ctx, units, order, opts)
	st.End()

	rep := &Report{
		Old: identityOf(oldImg.Header.Vendor, oldImg.Header.Product,
			oldImg.Header.Version, oldImg.Header.Year, oldData, len(oldBins)),
		New: identityOf(newImg.Header.Vendor, newImg.Header.Product,
			newImg.Header.Version, newImg.Header.Year, newData, len(newBins)),
		Workers: opts.Workers,
	}
	for _, res := range results {
		switch res.src {
		case SourceCache:
			rep.Replayed++
		case SourceFresh:
			rep.Reanalyzed++
		}
	}
	for _, p := range pairs {
		rep.Binaries = append(rep.Binaries, assemblePair(p, results, opts))
	}
	rep.aggregate()
	rep.Wall = time.Since(start)
	if opts.Cache != nil {
		rep.Cache = opts.Cache.Stats()
	}
	recordDiffMetrics(opts.Analysis.Metrics, rep)
	if opts.Analysis.Log != nil {
		opts.Analysis.Log.Info("diff-images done",
			"unchanged", rep.Unchanged, "changed", rep.Changed,
			"added", rep.Added, "removed", rep.Removed,
			"replayed", rep.Replayed, "reanalyzed", rep.Reanalyzed,
			"new", rep.NewFindings, "fixed", rep.FixedFindings,
			"persisting", rep.PersistingFindings,
			"seconds", rep.Wall.Seconds())
	}
	return rep, nil
}

// unpackCandidates unpacks one image and collects its FWELF candidates
// in rootfs path order.
func unpackCandidates(data []byte, opts Options) (*firmware.Image, []firmware.File, error) {
	img, fs, err := firmware.Unpack(data)
	if err != nil {
		return nil, nil, err
	}
	var out []firmware.File
	for _, f := range fs.Files {
		if !bytes.HasPrefix(f.Data, image.Magic[:]) {
			continue
		}
		if opts.PathFilter != nil && !opts.PathFilter(f.Path) {
			continue
		}
		out = append(out, f)
	}
	return img, out, nil
}

// pairBinaries matches the two candidate lists: by path first, then
// leftover added/removed entries with identical bytes become moved
// pairs. The result is sorted by path.
func pairBinaries(oldBins, newBins []firmware.File) []*binPair {
	oldByPath := make(map[string]*firmware.File, len(oldBins))
	for i := range oldBins {
		oldByPath[oldBins[i].Path] = &oldBins[i]
	}
	newByPath := make(map[string]*firmware.File, len(newBins))
	for i := range newBins {
		newByPath[newBins[i].Path] = &newBins[i]
	}
	paths := make([]string, 0, len(oldByPath)+len(newByPath))
	for _, f := range oldBins {
		paths = append(paths, f.Path)
	}
	for _, f := range newBins {
		if _, ok := oldByPath[f.Path]; !ok {
			paths = append(paths, f.Path)
		}
	}
	sort.Strings(paths)

	shaOf := func(f *firmware.File) string {
		sum := sha256.Sum256(f.Data)
		return hex.EncodeToString(sum[:])
	}
	var pairs []*binPair
	for _, path := range paths {
		o, n := oldByPath[path], newByPath[path]
		p := &binPair{path: path, oldFile: o, newFile: n}
		switch {
		case o != nil && n != nil:
			p.oldSHA, p.newSHA = shaOf(o), shaOf(n)
			if p.oldSHA == p.newSHA {
				p.status = PairUnchanged
			} else {
				p.status = PairChanged
			}
		case o != nil:
			p.oldSHA = shaOf(o)
			p.status = PairRemoved
		default:
			p.newSHA = shaOf(n)
			p.status = PairAdded
		}
		pairs = append(pairs, p)
	}

	// Moved detection: an added binary with the exact bytes of a removed
	// one is the same binary at a new path. Matching is by path order on
	// both sides.
	removedBySHA := make(map[string][]*binPair)
	for _, p := range pairs {
		if p.status == PairRemoved {
			removedBySHA[p.oldSHA] = append(removedBySHA[p.oldSHA], p)
		}
	}
	var out []*binPair
	claimed := make(map[*binPair]bool)
	for _, p := range pairs {
		if p.status == PairAdded {
			if cands := removedBySHA[p.newSHA]; len(cands) > 0 {
				rm := cands[0]
				removedBySHA[p.newSHA] = cands[1:]
				claimed[rm] = true
				p.status = PairMoved
				p.oldPath = rm.path
				p.oldFile = rm.oldFile
				p.oldSHA = rm.oldSHA
			}
		}
	}
	for _, p := range pairs {
		if !claimed[p] {
			out = append(out, p)
		}
	}
	return out
}

// planUnits deduplicates the pairs' analysis needs by content hash.
// order lists the unit keys in first-need (path) order; units needed by
// the old image run in the first wave so a changed binary's new version
// finds the old version's function summaries already in the store.
func planUnits(pairs []*binPair) (map[string]*unit, []string) {
	units := make(map[string]*unit)
	var order []string
	add := func(sha string, f *firmware.File, oldSide bool) {
		if sha == "" || f == nil {
			return
		}
		if u, ok := units[sha]; ok {
			u.oldSide = u.oldSide || oldSide
			return
		}
		units[sha] = &unit{sha: sha, file: *f, oldSide: oldSide}
		order = append(order, sha)
	}
	for _, p := range pairs {
		switch p.status {
		case PairUnchanged, PairMoved:
			add(p.oldSHA, p.oldFile, true)
		case PairChanged:
			add(p.oldSHA, p.oldFile, true)
			add(p.newSHA, p.newFile, false)
		case PairRemoved:
			add(p.oldSHA, p.oldFile, true)
		case PairAdded:
			add(p.newSHA, p.newFile, false)
		}
	}
	return units, order
}

// executeUnits runs the analysis plan: the old-image wave, then the
// new-only wave, each over a bounded worker pool.
func executeUnits(ctx context.Context, units map[string]*unit, order []string, opts Options) map[string]unitResult {
	var waves [2][]*unit
	for _, sha := range order {
		u := units[sha]
		if u.oldSide {
			waves[0] = append(waves[0], u)
		} else {
			waves[1] = append(waves[1], u)
		}
	}
	results := make(map[string]unitResult, len(units))
	var mu sync.Mutex
	done, total := 0, len(units)
	for _, wave := range waves {
		if len(wave) == 0 {
			continue
		}
		workers := opts.Workers
		if workers > len(wave) {
			workers = len(wave)
		}
		jobs := make(chan *unit)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for u := range jobs {
					res := analyzeUnit(ctx, u.file, opts)
					mu.Lock()
					results[u.sha] = res
					done++
					n := done
					if opts.Progress != nil {
						opts.Progress(n, total)
					}
					mu.Unlock()
					// n is mutex-ordered (unique per unit), keeping the
					// progress event multiset worker-count independent.
					opts.Analysis.Events.Progress("units", n, total)
				}
			}()
		}
		for _, u := range wave {
			jobs <- u
		}
		close(jobs)
		wg.Wait()
	}
	return results
}

// analyzeUnit produces one distinct binary's analysis: report-cache
// lookup first, then a fresh analysis under panic isolation and the
// per-binary deadline — the same discipline as fleet.ScanImage.
func analyzeUnit(ctx context.Context, f firmware.File, opts Options) (ur unitResult) {
	if err := ctx.Err(); err != nil {
		return unitResult{src: SourceNone, err: errors.New("diff cancelled before analysis")}
	}
	// A scan-binary span per unit gives diff jobs the same binary.start/
	// binary.done event stream as fleet scans; the per-unit emitter scope
	// stamps the path on every event the analysis emits.
	span := opts.Analysis.Tracer.Start(opts.Analysis.ParentSpan, "scan-binary",
		obs.KV("path", f.Path))
	opts.Analysis.ParentSpan = span
	opts.Analysis.Events = opts.Analysis.Events.WithPath(f.Path)
	defer func() {
		span.SetAttr("status", string(ur.src))
		span.End()
	}()
	cacheable := opts.Cache != nil && (opts.Analysis.Filter == nil || opts.FilterTag != "")
	var key string
	if cacheable {
		key = fleet.Key(f.Data, fleet.Fingerprint(opts.Analysis, opts.FilterTag))
		if an, ok := opts.Cache.Get(key); ok {
			opts.Analysis.Events.Emit(events.ScanEvent{
				Type:  events.TypeCacheHit,
				Attrs: map[string]any{"sha256": fmt.Sprintf("%x", sha256.Sum256(f.Data))},
			})
			return unitResult{an: an, src: SourceCache}
		}
	}
	start := time.Now()
	type outcome struct {
		an  *fleet.BinaryAnalysis
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("analysis panicked: %v", r)}
			}
		}()
		an, err := fleet.AnalyzeBinary(f, opts.Analysis)
		ch <- outcome{an: an, err: err}
	}()
	var timeout <-chan time.Time
	if opts.PerBinaryTimeout > 0 {
		t := time.NewTimer(opts.PerBinaryTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case o := <-ch:
		if o.err != nil {
			return unitResult{src: SourceNone, err: o.err, dur: time.Since(start)}
		}
		if key != "" {
			opts.Cache.Put(key, o.an)
		}
		return unitResult{an: o.an, src: SourceFresh, dur: time.Since(start)}
	case <-timeout:
		return unitResult{src: SourceNone,
			err: fmt.Errorf("analysis timed out after %s", opts.PerBinaryTimeout), dur: time.Since(start)}
	case <-ctx.Done():
		return unitResult{src: SourceNone, err: errors.New("diff cancelled"), dur: time.Since(start)}
	}
}

// assemblePair builds one pair's report entry, classifying its findings
// across versions.
func assemblePair(p *binPair, results map[string]unitResult, opts Options) BinaryDiff {
	bd := BinaryDiff{
		Path: p.path, OldPath: p.oldPath, Status: p.status,
		OldSHA256: p.oldSHA, NewSHA256: p.newSHA,
	}
	oldRes, newRes := results[p.oldSHA], results[p.newSHA]
	attribute := func(res unitResult) {
		bd.Duration += res.dur
		if res.src == SourceFresh && res.an != nil {
			bd.SummaryHits += res.an.SummaryHits
			bd.SummaryMisses += res.an.SummaryMisses
		}
	}

	switch p.status {
	case PairUnchanged, PairMoved:
		// One shared analysis serves both sides.
		res := results[p.oldSHA]
		bd.OldSource, bd.NewSource = res.src, res.src
		attribute(res)
		if res.err != nil {
			bd.Error = res.err.Error()
			return bd
		}
		bd.Findings = wholesale(res.an, FindingPersisting)
	case PairRemoved:
		bd.OldSource = oldRes.src
		attribute(oldRes)
		if oldRes.err != nil {
			bd.Error = oldRes.err.Error()
			return bd
		}
		bd.Findings = wholesale(oldRes.an, FindingFixed)
	case PairAdded:
		bd.NewSource = newRes.src
		attribute(newRes)
		if newRes.err != nil {
			bd.Error = newRes.err.Error()
			return bd
		}
		bd.Findings = wholesale(newRes.an, FindingNew)
	case PairChanged:
		bd.OldSource, bd.NewSource = oldRes.src, newRes.src
		attribute(oldRes)
		attribute(newRes)
		if oldRes.err != nil || newRes.err != nil {
			bd.Error = joinErrs(oldRes.err, newRes.err)
			return bd
		}
		classifyChanged(&bd, p, oldRes.an, newRes.an)
	}
	sortFindingDiffs(bd.Findings)
	for _, fd := range bd.Findings {
		switch fd.Status {
		case FindingNew:
			bd.New++
		case FindingFixed:
			bd.Fixed++
		case FindingPersisting:
			bd.Persisting++
		}
	}
	return bd
}

// classifyChanged matches a changed pair's findings across versions: the
// function pairing maps old function names onto new ones, and findings
// compare on a relocation-tolerant key (mapped function, sink, sink
// offset within the function, class).
func classifyChanged(bd *BinaryDiff, p *binPair, oldAn, newAn *fleet.BinaryAnalysis) {
	oldProg := buildProgram(p.oldFile)
	newProg := buildProgram(p.newFile)
	pairing := newPairing()
	if oldProg != nil && newProg != nil {
		pairing = PairFunctions(oldProg, newProg)
		bd.FuncsTotal = len(newProg.Funcs)
		bd.FuncsExact = pairing.Exact
		bd.FuncsRenamed = pairing.Renamed
		bd.FuncsSimilar = pairing.Similar
	}

	oldGroups := vulnGroups(oldAn)
	newGroups := vulnGroups(newAn)
	oldByCross := make(map[string]vulnGroup, len(oldGroups))
	for _, g := range oldGroups {
		oldByCross[crossKey(g.rep, oldProg, pairing.OldToNew)] = g
	}
	for _, g := range newGroups {
		ck := crossKey(g.rep, newProg, nil)
		if og, ok := oldByCross[ck]; ok {
			fd := FindingDiff{Status: FindingPersisting, Finding: g.rep, Paths: g.paths}
			if og.rep.SinkFunc != g.rep.SinkFunc {
				fd.OldFunc = og.rep.SinkFunc
			}
			bd.Findings = append(bd.Findings, fd)
			delete(oldByCross, ck)
			continue
		}
		bd.Findings = append(bd.Findings, FindingDiff{Status: FindingNew, Finding: g.rep, Paths: g.paths})
	}
	// Old findings with no cross-version match are fixed; iterate the
	// deterministic group order, not the map.
	for _, g := range oldGroups {
		if _, alive := oldByCross[crossKey(g.rep, oldProg, pairing.OldToNew)]; alive {
			bd.Findings = append(bd.Findings, FindingDiff{Status: FindingFixed, Finding: g.rep, Paths: g.paths})
		}
	}
}

// buildProgram recovers a binary's CFG for pairing; nil when the binary
// does not parse (classification then falls back to name identity).
func buildProgram(f *firmware.File) *cfg.Program {
	if f == nil {
		return nil
	}
	bin, err := image.Parse(f.Data)
	if err != nil {
		return nil
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		return nil
	}
	return prog
}

// vulnGroup is one deduplicated vulnerability: its representative
// finding and the number of vulnerable paths sharing the key.
type vulnGroup struct {
	rep   fleet.Finding
	paths int
}

// vulnGroups deduplicates an analysis's unsanitized findings by
// taint.VulnKey, in first-occurrence order.
func vulnGroups(an *fleet.BinaryAnalysis) []vulnGroup {
	if an == nil {
		return nil
	}
	idx := make(map[string]int)
	var out []vulnGroup
	for _, f := range an.Findings {
		if f.Sanitized {
			continue
		}
		k := f.Key()
		if i, ok := idx[k]; ok {
			out[i].paths++
			continue
		}
		idx[k] = len(out)
		out = append(out, vulnGroup{rep: f, paths: 1})
	}
	return out
}

// crossKey is the cross-version identity of a finding: the containing
// function's name (mapped through the pairing for the old side), the
// sink, the sink's offset within the function (tolerating whole-function
// relocation), and the class. Falls back to the absolute address when
// the function is unknown to the CFG.
func crossKey(f fleet.Finding, prog *cfg.Program, oldToNew map[string]string) string {
	name := f.SinkFunc
	if mapped, ok := oldToNew[name]; ok {
		name = mapped
	}
	addr := f.SinkAddr
	if prog != nil {
		if fn := prog.ByName[f.SinkFunc]; fn != nil && f.SinkAddr >= fn.Addr {
			addr = f.SinkAddr - fn.Addr
		}
	}
	return taint.VulnKey(name, f.Sink, addr, string(f.Class))
}

// wholesale classifies every vulnerability of one analysis with a single
// status (unchanged/added/removed binaries).
func wholesale(an *fleet.BinaryAnalysis, status FindingStatus) []FindingDiff {
	var out []FindingDiff
	for _, g := range vulnGroups(an) {
		out = append(out, FindingDiff{Status: status, Finding: g.rep, Paths: g.paths})
	}
	return out
}

func joinErrs(errs ...error) string {
	var parts []string
	for _, err := range errs {
		if err != nil {
			parts = append(parts, err.Error())
		}
	}
	return joinWith(parts, "; ")
}

func joinWith(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}

// recordDiffMetrics publishes one finished diff's counters. Every
// registry call is nil-safe on reg.
func recordDiffMetrics(reg *obs.Registry, rep *Report) {
	reg.Counter("dtaint_diff_images_total",
		"Firmware image pairs diffed.", nil).Inc()
	reg.Counter("dtaint_diff_binaries_replayed_total",
		"Distinct binaries a diff served from the report cache.", nil).Add(uint64(rep.Replayed))
	reg.Counter("dtaint_diff_binaries_reanalyzed_total",
		"Distinct binaries a diff analyzed fresh.", nil).Add(uint64(rep.Reanalyzed))
	for _, fc := range []struct {
		status string
		n      int
	}{
		{"new", rep.NewFindings}, {"fixed", rep.FixedFindings},
		{"persisting", rep.PersistingFindings},
	} {
		if fc.n > 0 {
			reg.Counter("dtaint_diff_findings_total",
				"Findings classified by differential scans, by cross-version status.",
				obs.Labels{"status": fc.status}).Add(uint64(fc.n))
		}
	}
}
