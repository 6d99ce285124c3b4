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
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"dtaint/internal/cfg"
	"dtaint/internal/firmware"
	"dtaint/internal/fleet"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/taint"
)

// Options configures a differential scan. It is the fleet scan options
// type, so a diff shares caches — and cache keys — with ordinary fleet
// scans of the same images, and its binaries run on the same runner
// (fleet.RunWaves) with the same timeout, stall watchdog, and progress.
type Options = fleet.Options

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

// Diff scans the delta between two firmware images. It returns an error
// only when an image fails to unpack or the options are invalid;
// per-binary analysis failures are embedded in the report.
func Diff(ctx context.Context, oldData, newData []byte, opts Options) (*Report, error) {
	opts, err := fleet.Prepare(opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	diffSpan := opts.Analysis.Tracer.Start(opts.Analysis.ParentSpan, "diff-images")
	defer diffSpan.End() // the error paths; success ends it with its counts
	opts.Analysis.ParentSpan = diffSpan

	st := diffSpan.StartChild("unpack-images",
		obs.KV("oldBytes", len(oldData)), obs.KV("newBytes", len(newData)))
	oldImg, oldBins, err := fleet.Candidates(oldData, opts)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("diff: old image: %w", err)
	}
	newImg, newBins, err := fleet.Candidates(newData, opts)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("diff: new image: %w", err)
	}
	st.End(obs.KV("oldCandidates", len(oldBins)), obs.KV("newCandidates", len(newBins)))
	diffSpan.SetAttr("product", newImg.Header.Product)

	st = diffSpan.StartChild("pair-binaries")
	pairs := pairBinaries(oldBins, newBins)
	waves := planUnits(pairs)
	st.End(obs.KV("pairs", len(pairs)), obs.KV("units", len(waves[0])+len(waves[1])))

	// The old-image wave runs first so a changed binary's new version
	// finds the old version's function summaries already in the store.
	results := make(map[string]fleet.BinaryScan)
	for _, wave := range fleet.RunWaves(ctx, newImg.Header, waves, opts) {
		for _, bs := range wave {
			results[bs.SHA256] = bs
		}
	}

	rep := &Report{
		Old: identityOf(oldImg.Header.Vendor, oldImg.Header.Product,
			oldImg.Header.Version, oldImg.Header.Year, oldData, len(oldBins)),
		New: identityOf(newImg.Header.Vendor, newImg.Header.Product,
			newImg.Header.Version, newImg.Header.Year, newData, len(newBins)),
		Workers: opts.Workers,
	}
	for _, bs := range results {
		switch sourceOf(bs) {
		case SourceCache:
			rep.Replayed++
		case SourceFresh:
			rep.Reanalyzed++
		}
		if bs.Status == fleet.StatusStalled {
			rep.Stalled++
		}
	}
	for _, p := range pairs {
		rep.Binaries = append(rep.Binaries, assemblePair(p, results))
	}
	rep.aggregate()
	rep.Wall = time.Since(start)
	if opts.Cache != nil {
		rep.Cache = opts.Cache.Stats()
	}
	diffSpan.End(obs.KV("unchanged", rep.Unchanged), obs.KV("changed", rep.Changed),
		obs.KV("added", rep.Added), obs.KV("removed", rep.Removed),
		obs.KV("moved", rep.Moved), obs.KV("replayed", rep.Replayed),
		obs.KV("reanalyzed", rep.Reanalyzed), obs.KV("stalled", rep.Stalled),
		obs.KV("new", rep.NewFindings), obs.KV("fixed", rep.FixedFindings),
		obs.KV("persisting", rep.PersistingFindings))
	return rep, nil
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

// planUnits deduplicates the pairs' analysis needs by content hash into
// two waves of distinct binaries, each in first-need (path) order: the
// units the old image needs, then those only the new image needs.
func planUnits(pairs []*binPair) [][]firmware.File {
	type unit struct {
		file    firmware.File
		oldSide bool
	}
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
		units[sha] = &unit{file: *f, oldSide: oldSide}
		order = append(order, sha)
	}
	for _, p := range pairs {
		switch p.status {
		case PairUnchanged, PairMoved, PairRemoved:
			add(p.oldSHA, p.oldFile, true)
		case PairChanged:
			add(p.oldSHA, p.oldFile, true)
			add(p.newSHA, p.newFile, false)
		case PairAdded:
			add(p.newSHA, p.newFile, false)
		}
	}
	waves := make([][]firmware.File, 2)
	for _, sha := range order {
		u := units[sha]
		if u.oldSide {
			waves[0] = append(waves[0], u.file)
		} else {
			waves[1] = append(waves[1], u.file)
		}
	}
	return waves
}

// sourceOf maps a runner outcome onto a side's provenance: a cache hit
// replayed, a successful analysis is fresh, and every failure (error,
// timeout, stall, cancellation) leaves the side unavailable.
func sourceOf(bs fleet.BinaryScan) Source {
	switch bs.Status {
	case fleet.StatusCached:
		return SourceCache
	case fleet.StatusOK:
		return SourceFresh
	}
	return SourceNone
}

// assemblePair builds one pair's report entry, classifying its findings
// across versions.
func assemblePair(p *binPair, results map[string]fleet.BinaryScan) BinaryDiff {
	bd := BinaryDiff{
		Path: p.path, OldPath: p.oldPath, Status: p.status,
		OldSHA256: p.oldSHA, NewSHA256: p.newSHA,
	}
	oldRes, newRes := results[p.oldSHA], results[p.newSHA]
	attribute := func(bs fleet.BinaryScan) {
		bd.Duration += bs.Duration
		if bs.Status == fleet.StatusOK {
			bd.SummaryHits += bs.Analysis.SummaryHits
			bd.SummaryMisses += bs.Analysis.SummaryMisses
		}
	}

	switch p.status {
	case PairUnchanged, PairMoved:
		// One shared analysis serves both sides.
		bd.OldSource, bd.NewSource = sourceOf(oldRes), sourceOf(oldRes)
		attribute(oldRes)
		if oldRes.Analysis == nil {
			bd.Error = oldRes.Error
			return bd
		}
		bd.Findings = wholesale(oldRes.Analysis, FindingPersisting)
	case PairRemoved:
		bd.OldSource = sourceOf(oldRes)
		attribute(oldRes)
		if oldRes.Analysis == nil {
			bd.Error = oldRes.Error
			return bd
		}
		bd.Findings = wholesale(oldRes.Analysis, FindingFixed)
	case PairAdded:
		bd.NewSource = sourceOf(newRes)
		attribute(newRes)
		if newRes.Analysis == nil {
			bd.Error = newRes.Error
			return bd
		}
		bd.Findings = wholesale(newRes.Analysis, FindingNew)
	case PairChanged:
		bd.OldSource, bd.NewSource = sourceOf(oldRes), sourceOf(newRes)
		attribute(oldRes)
		attribute(newRes)
		if oldRes.Analysis == nil || newRes.Analysis == nil {
			var errs []string
			for _, bs := range []fleet.BinaryScan{oldRes, newRes} {
				if bs.Analysis == nil {
					errs = append(errs, bs.Error)
				}
			}
			bd.Error = strings.Join(errs, "; ")
			return bd
		}
		classifyChanged(&bd, p, oldRes.Analysis, newRes.Analysis)
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
