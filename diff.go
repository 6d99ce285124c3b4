package dtaint

import (
	"context"

	"dtaint/internal/diff"
)

// This file is the public face of differential firmware scanning
// (internal/diff): the "CI for firmware" workload, where each nightly
// vendor re-release is scanned at a cost proportional to its delta and
// findings are tracked as new / fixed / persisting across versions.

// The diff report types are the internal wire types: what
// ScanFirmwareDiff returns is exactly what dtaint -diff -json prints and
// what dtaintd serves for a diff job.
type (
	// DiffReport is the result of diffing two firmware images. Its
	// semantic content — pairing, hashes, finding classifications — is
	// identical for any worker count and with the summary store on or
	// off; only the cost attribution (durations, replay provenance,
	// store counters) varies with configuration.
	DiffReport = diff.Report
	// DiffImage identifies one side of the diff.
	DiffImage = diff.ImageIdentity
	// DiffBinary is one binary pair's entry in a DiffReport.
	DiffBinary = diff.BinaryDiff
	// DiffFinding is one deduplicated vulnerability with its
	// cross-version classification. New and persisting findings carry
	// the new version's Finding; fixed findings the old version's.
	DiffFinding = diff.FindingDiff
	// DiffBinaryStatus classifies how one rootfs binary relates across
	// the two image versions.
	DiffBinaryStatus = diff.PairStatus
	// DiffFindingStatus classifies one finding across versions.
	DiffFindingStatus = diff.FindingStatus
	// DiffSource records where one side's analysis came from: "cache"
	// (replayed from the fleet report cache), "fresh" (analyzed in this
	// run), or "none" (unavailable).
	DiffSource = diff.Source
)

// Binary pairing outcomes.
const (
	// DiffUnchanged: same path, same bytes — never re-analyzed.
	DiffUnchanged = diff.PairUnchanged
	// DiffChanged: same path, different bytes.
	DiffChanged = diff.PairChanged
	// DiffAdded: present only in the new image.
	DiffAdded = diff.PairAdded
	// DiffRemoved: present only in the old image.
	DiffRemoved = diff.PairRemoved
	// DiffMoved: identical bytes at a different rootfs path.
	DiffMoved = diff.PairMoved
)

// Cross-version finding outcomes.
const (
	// FindingNew exists in the new version only — the CI signal worth
	// breaking a build for.
	FindingNew = diff.FindingNew
	// FindingFixed existed in the old version only.
	FindingFixed = diff.FindingFixed
	// FindingPersisting exists in both versions (tolerating function
	// renames and relocation).
	FindingPersisting = diff.FindingPersisting
)

// ScanFirmwareDiff diffs two firmware images: binaries are paired by
// rootfs path and content hash, unchanged ones replay from the report
// tier of the Analyzer's Cache (attach one with WithCache — a prior
// ScanFirmwareFleet of the old image warms it), changed ones are
// re-analyzed with unchanged functions replaying from its summary tier,
// and findings are matched across versions so each classifies as new,
// fixed, or persisting. The Analyzer's own options and worker budget
// (WithWorkers) apply to every analysis as in ScanFirmwareFleet, and
// the same FleetOption set — timeout, stall watchdog, debug bundles,
// filters, progress — configures the binaries' runner.
func (a *Analyzer) ScanFirmwareDiff(ctx context.Context, oldImage, newImage []byte, opts ...FleetOption) (*DiffReport, error) {
	fo := a.fleetOptions(opts)
	rep, err := diff.Diff(ctx, oldImage, newImage, fo)
	if err == nil {
		a.publish(rep.Cache, fo.SummaryStore.Stats())
	}
	return rep, err
}
