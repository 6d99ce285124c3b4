package fleet

import (
	"context"
	"fmt"
	"time"

	"dtaint/internal/sumstore"
)

// CorpusReport aggregates a whole-corpus scan: per-image reports in
// input order, fleet totals, the cross-image binary dedup accounting,
// and final snapshots of the shared cache tiers.
type CorpusReport struct {
	// Images holds one report per input image, in input order.
	Images []*ImageReport `json:"images"`
	// Totals folds the per-image reports (MergeReports).
	Totals FleetTotals `json:"totals"`
	// UniqueBinaries and DuplicateBinaries partition the corpus's
	// candidate executables by content: a binary whose SHA-256 was
	// already seen — in an earlier image or at another rootfs path —
	// counts as a duplicate and is served from the shared report cache
	// rather than re-analyzed.
	UniqueBinaries    int `json:"uniqueBinaries"`
	DuplicateBinaries int `json:"duplicateBinaries"`
	// Cache and SummaryStore snapshot the shared tiers when the corpus
	// scan finished.
	Cache        CacheStats     `json:"cache"`
	SummaryStore sumstore.Stats `json:"summaryStore"`
	// Wall is the whole-corpus wall-clock time.
	Wall time.Duration `json:"wallNanos"`
}

// ScanCorpus scans a corpus of firmware images with one shared report
// cache and one shared summary store. This is the corpus-level entry
// point the per-image API cannot express safely: handing ScanImage a
// fresh cache per image silently forfeits all cross-image dedup, so
// ScanCorpus creates the shared tiers itself when the caller supplies
// none (in-memory, corpus-lifetime). With the shared tiers, each unique
// binary is analyzed once per corpus — duplicates re-emit the cached
// ImageReport entry as StatusCached — and each unique function is
// symbolically executed once per corpus.
//
// Images are scanned sequentially, each fanning its binaries across the
// worker pool (Options.Workers); per-image reports land in input order.
// Cancelling ctx stops new work; remaining binaries and images report
// StatusSkipped unless their reports replay from the cache.
func ScanCorpus(ctx context.Context, images [][]byte, opts Options) (*CorpusReport, error) {
	if opts.Cache == nil {
		c, err := NewCache(0, "")
		if err != nil {
			return nil, fmt.Errorf("fleet: corpus cache: %w", err)
		}
		opts.Cache = c
	}
	if opts.SummaryStore == nil {
		s, err := sumstore.NewStore(0, "")
		if err != nil {
			return nil, fmt.Errorf("fleet: corpus summary store: %w", err)
		}
		opts.SummaryStore = s
	}
	start := time.Now()
	rep := &CorpusReport{Images: make([]*ImageReport, 0, len(images))}
	seen := make(map[string]bool)
	for _, data := range images {
		ir, err := ScanImage(ctx, data, opts)
		if err != nil {
			return nil, err
		}
		rep.Images = append(rep.Images, ir)
		for _, b := range ir.Binaries {
			if seen[b.SHA256] {
				rep.DuplicateBinaries++
			} else {
				seen[b.SHA256] = true
				rep.UniqueBinaries++
			}
		}
	}
	rep.Totals = MergeReports(rep.Images)
	rep.Cache = opts.Cache.Stats()
	rep.SummaryStore = opts.SummaryStore.Stats()
	rep.Wall = time.Since(start)
	return rep, nil
}
