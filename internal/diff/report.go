package diff

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"dtaint/internal/fleet"
)

// PairStatus classifies how one rootfs binary relates across the two
// image versions.
type PairStatus string

// Binary pairing outcomes.
const (
	// PairUnchanged: same path, same SHA-256. Never re-analyzed.
	PairUnchanged PairStatus = "unchanged"
	// PairChanged: same path, different bytes.
	PairChanged PairStatus = "changed"
	// PairAdded: present only in the new image.
	PairAdded PairStatus = "added"
	// PairRemoved: present only in the old image.
	PairRemoved PairStatus = "removed"
	// PairMoved: identical bytes at a different rootfs path. Treated like
	// unchanged (findings persist; never re-analyzed).
	PairMoved PairStatus = "moved"
)

// FindingStatus classifies one finding across versions.
type FindingStatus string

// Cross-version finding outcomes.
const (
	FindingNew        FindingStatus = "new"
	FindingFixed      FindingStatus = "fixed"
	FindingPersisting FindingStatus = "persisting"
)

// Source records where one side's analysis came from in this run.
type Source string

// Analysis provenance.
const (
	// SourceCache: replayed from the fleet report cache.
	SourceCache Source = "cache"
	// SourceFresh: analyzed in this run.
	SourceFresh Source = "fresh"
	// SourceNone: unavailable (analysis failed or scan cancelled).
	SourceNone Source = "none"
)

// FindingDiff is one deduplicated vulnerability with its cross-version
// classification. New and persisting findings carry the new version's
// finding; fixed findings carry the old version's (it no longer exists
// in the new image).
type FindingDiff struct {
	Status  FindingStatus `json:"status"`
	Finding fleet.Finding `json:"finding"`
	// OldFunc is set on persisting findings whose containing function was
	// renamed between versions: the old version's name for the function
	// the pairing matched to Finding.SinkFunc.
	OldFunc string `json:"oldFunc,omitempty"`
	// Paths is the number of vulnerable paths sharing this finding's key.
	Paths int `json:"paths"`
}

// BinaryDiff is one binary pair's entry in the Report.
type BinaryDiff struct {
	// Path is the rootfs path in the new image (old image for removed
	// binaries).
	Path string `json:"path"`
	// OldPath is set when it differs from Path (moved binaries).
	OldPath   string     `json:"oldPath,omitempty"`
	Status    PairStatus `json:"status"`
	OldSHA256 string     `json:"oldSha256,omitempty"`
	NewSHA256 string     `json:"newSha256,omitempty"`
	// OldSource/NewSource record each side's analysis provenance.
	// Unchanged and moved pairs share one analysis, so both sides report
	// the same source.
	OldSource Source `json:"oldSource,omitempty"`
	NewSource Source `json:"newSource,omitempty"`
	// Error describes a failed analysis; findings are not classified for
	// a pair with an error.
	Error string `json:"error,omitempty"`
	// Duration is this run's fresh-analysis wall clock spent on the pair
	// (zero when both sides replayed).
	Duration time.Duration `json:"durationNanos"`

	// Function pairing statistics (changed pairs only). FuncsExact counts
	// pairs matched on identical code bytes (FuncsRenamed of which under
	// a different name); FuncsSimilar counts pairs recovered by the
	// layout/callgraph similarity stage.
	FuncsTotal   int `json:"funcsTotal,omitempty"`
	FuncsExact   int `json:"funcsExact,omitempty"`
	FuncsRenamed int `json:"funcsRenamed,omitempty"`
	FuncsSimilar int `json:"funcsSimilar,omitempty"`

	// SummaryHits/SummaryMisses attribute the new side's analysis cost to
	// the function-summary store: hits are units replayed from summaries
	// the old version (or a prior scan) wrote. Zero when the new side
	// replayed from the report cache or the run had no store.
	SummaryHits   int `json:"summaryHits,omitempty"`
	SummaryMisses int `json:"summaryMisses,omitempty"`

	// New/Fixed/Persisting count this pair's deduplicated findings by
	// cross-version status.
	New        int `json:"new"`
	Fixed      int `json:"fixed"`
	Persisting int `json:"persisting"`
	// Findings lists them, sorted by status (new, fixed, persisting) then
	// finding key.
	Findings []FindingDiff `json:"findings,omitempty"`
}

// ImageIdentity names one side of the diff.
type ImageIdentity struct {
	Vendor     string `json:"vendor"`
	Product    string `json:"product"`
	Version    string `json:"version"`
	Year       int    `json:"year"`
	SHA256     string `json:"sha256"`
	Candidates int    `json:"candidates"`
}

// Report is the result of diffing two firmware images.
type Report struct {
	Old ImageIdentity `json:"old"`
	New ImageIdentity `json:"new"`

	// Pairing totals.
	Unchanged int `json:"unchanged"`
	Changed   int `json:"changed"`
	Added     int `json:"added"`
	Removed   int `json:"removed"`
	Moved     int `json:"moved"`

	// Cost attribution: of the distinct binaries this diff needed
	// analyses for, how many replayed from the report cache and how many
	// were analyzed fresh in this run. Unchanged pairs need one analysis,
	// changed pairs two; binaries sharing bytes share one.
	Replayed   int `json:"replayed"`
	Reanalyzed int `json:"reanalyzed"`
	Failed     int `json:"failed"`
	// Stalled counts the distinct binaries the stall watchdog abandoned:
	// their sides are unavailable, so a diff with stalls is incomplete
	// even when it reports no new findings.
	Stalled int `json:"stalled,omitempty"`
	// SummaryHitRate is hits/(hits+misses) over this run's fresh analyses
	// (zero when nothing was fresh or the run had no summary store).
	SummaryHitRate float64 `json:"summaryHitRate"`

	// Finding totals across all pairs.
	NewFindings        int `json:"newFindings"`
	FixedFindings      int `json:"fixedFindings"`
	PersistingFindings int `json:"persistingFindings"`

	// Binaries lists every pair, sorted by Path.
	Binaries []BinaryDiff `json:"binaries"`

	// Workers is the worker budget the binaries and their analyses
	// shared; Wall the whole-diff wall clock.
	Workers int           `json:"workers"`
	Wall    time.Duration `json:"wallNanos"`
	// Cache snapshots the report cache's lifetime counters when the diff
	// finished (zero value when uncached).
	Cache fleet.CacheStats `json:"cache"`
}

// aggregate fills the report's totals from its Binaries list. Totals are
// sums over the path-ordered pair list, so the result is independent of
// analysis scheduling.
func (r *Report) aggregate() {
	hits, misses := 0, 0
	for i := range r.Binaries {
		b := &r.Binaries[i]
		switch b.Status {
		case PairUnchanged:
			r.Unchanged++
		case PairChanged:
			r.Changed++
		case PairAdded:
			r.Added++
		case PairRemoved:
			r.Removed++
		case PairMoved:
			r.Moved++
		}
		if b.Error != "" {
			r.Failed++
		}
		r.NewFindings += b.New
		r.FixedFindings += b.Fixed
		r.PersistingFindings += b.Persisting
		hits += b.SummaryHits
		misses += b.SummaryMisses
	}
	if hits+misses > 0 {
		r.SummaryHitRate = float64(hits) / float64(hits+misses)
	}
}

// sigReport mirrors Report restricted to semantic content. Run-cost
// fields — durations, wall clock, cache counters, replay-vs-fresh
// provenance, and summary-store hit attribution — are excluded: they
// legitimately vary with the cache and store configuration while the
// diff's *meaning* (pairing, hashes, finding classifications) may not.
type sigReport struct {
	Old, New  ImageIdentity
	Pairs     []sigPair
	NewF      int
	FixedF    int
	PersistF  int
	Unchanged int
	Changed   int
	Added     int
	Removed   int
	Moved     int
}

type sigPair struct {
	Path, OldPath    string
	Status           PairStatus
	OldSHA, NewSHA   string
	Error            string
	Total, Exact     int
	Renamed, Similar int
	Findings         []FindingDiff
}

// Signature canonicalizes the report's semantic content: the determinism
// contract is that two diffs of the same image pair with the same
// analysis options produce equal signatures for any worker count and
// with the summary store on or off.
func (r *Report) Signature() string {
	s := sigReport{
		Old: r.Old, New: r.New,
		NewF: r.NewFindings, FixedF: r.FixedFindings, PersistF: r.PersistingFindings,
		Unchanged: r.Unchanged, Changed: r.Changed,
		Added: r.Added, Removed: r.Removed, Moved: r.Moved,
	}
	for _, b := range r.Binaries {
		s.Pairs = append(s.Pairs, sigPair{
			Path: b.Path, OldPath: b.OldPath, Status: b.Status,
			OldSHA: b.OldSHA256, NewSHA: b.NewSHA256, Error: b.Error,
			Total: b.FuncsTotal, Exact: b.FuncsExact,
			Renamed: b.FuncsRenamed, Similar: b.FuncsSimilar,
			Findings: b.Findings,
		})
	}
	raw, err := json.Marshal(s)
	if err != nil {
		// Impossible for the field types above; keep the signature total.
		return "sig-error:" + err.Error()
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// sortFindingDiffs orders a pair's findings: new, fixed, persisting,
// then by finding key within a status.
func sortFindingDiffs(fds []FindingDiff) {
	rank := map[FindingStatus]int{FindingNew: 0, FindingFixed: 1, FindingPersisting: 2}
	sort.Slice(fds, func(i, j int) bool {
		if rank[fds[i].Status] != rank[fds[j].Status] {
			return rank[fds[i].Status] < rank[fds[j].Status]
		}
		return fds[i].Finding.Key() < fds[j].Finding.Key()
	})
}

// identityOf fills an ImageIdentity from a parsed header and raw bytes.
func identityOf(vendor, product, version string, year int, raw []byte, candidates int) ImageIdentity {
	sum := sha256.Sum256(raw)
	return ImageIdentity{
		Vendor: vendor, Product: product, Version: version, Year: year,
		SHA256:     hex.EncodeToString(sum[:]),
		Candidates: candidates,
	}
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s %s -> %s: %d unchanged, %d changed, %d added, %d removed, %d moved; findings %d new / %d fixed / %d persisting",
		r.New.Product, r.Old.Version, r.New.Version,
		r.Unchanged, r.Changed, r.Added, r.Removed, r.Moved,
		r.NewFindings, r.FixedFindings, r.PersistingFindings)
}
