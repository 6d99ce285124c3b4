package dtaint

import (
	"context"
	"time"

	"dtaint/internal/fleet"
	"dtaint/internal/sumstore"
)

// This file is the public face of the fleet-scale scanning subsystem
// (internal/fleet): whole-image scans over a bounded worker budget with
// a content-addressed report cache, the workload shape of the paper's
// evaluation (six study images, 115 binaries; a 6,529-image population).

// The fleet report types are the internal wire types: what
// ScanFirmwareFleet returns is exactly what dtaint -rootfs-all -json
// prints, what the fleet cache stores, and what dtaintd serves.
type (
	// BinaryStatus classifies one binary's outcome in an image scan.
	BinaryStatus = fleet.Status
	// BinaryScan is one rootfs executable's entry in an ImageReport; its
	// Analysis is nil unless Status is BinaryOK or BinaryCached.
	BinaryScan = fleet.BinaryScan
	// ImageReport aggregates a whole firmware image's scan: identity
	// from the container header, per-binary entries in rootfs path
	// order, and Table VI-style totals. Timings aside, it is identical
	// for every worker count.
	ImageReport = fleet.ImageReport
	// CorpusReport aggregates a whole-corpus scan: per-image reports in
	// input order, the cross-image binary dedup accounting, and final
	// snapshots of the shared cache tiers.
	CorpusReport = fleet.CorpusReport
	// CacheStats snapshots the counters of one tier of a Cache: its
	// report tier or its summary tier.
	CacheStats = fleet.CacheStats
)

// Binary scan outcomes.
const (
	// BinaryOK: analyzed fresh in this run.
	BinaryOK = fleet.StatusOK
	// BinaryCached: report served from the content-addressed cache.
	BinaryCached = fleet.StatusCached
	// BinaryFailed: the analysis errored or panicked.
	BinaryFailed = fleet.StatusFailed
	// BinaryTimeout: the per-binary deadline elapsed.
	BinaryTimeout = fleet.StatusTimeout
	// BinaryStalled: the stall watchdog (WithFleetStallTimeout) fired and
	// the in-flight analysis was abandoned — reported distinctly so a
	// killed analysis never reads as an empty success.
	BinaryStalled = fleet.StatusStalled
	// BinarySkipped: the scan was cancelled before this binary started.
	BinarySkipped = fleet.StatusSkipped
)

// Cache is a process-wide content-addressed cache shared across
// analyses, in two tiers over one store implementation. The report
// tier holds whole-binary reports keyed by SHA-256(binary bytes) plus
// the analyzer-options fingerprint: firmware fleets share binaries
// heavily (every image ships busybox; the same daemons recur across
// models), so it collapses a fleet scan to one analysis per distinct
// binary. The summary tier holds per-function and per-component
// analysis summaries keyed by the function's bytes, ISA, and the
// analysis-options version: it collapses duplicate functions across
// distinct binaries, so each unique function of a fleet's shared SDK
// and libc code is symbolically executed once. Results are
// bit-identical with and without a cache. Safe for concurrent use.
type Cache struct {
	reports   *fleet.Cache
	summaries *sumstore.Store
}

// NewCache returns a cache with the default in-memory bounds (1024
// reports, 4096 summaries). A non-empty dir adds a persistent on-disk
// tier that survives process restarts; both tiers share it, reports as
// <key>.json files and summaries as <key>.dtss files.
func NewCache(dir string) (*Cache, error) {
	reports, err := fleet.NewCache(0, dir)
	if err != nil {
		return nil, err
	}
	summaries, err := sumstore.NewStore(0, dir)
	if err != nil {
		return nil, err
	}
	return &Cache{reports: reports, summaries: summaries}, nil
}

// Stats returns the counters of the report tier and the summary tier.
func (c *Cache) Stats() (reports, summaries CacheStats) {
	return c.reports.Stats(), c.summaries.Stats()
}

// FleetOption configures an image scan beyond the Analyzer's own
// options.
type FleetOption func(*fleet.Options)

// fleetOptions applies opts over the Analyzer's own analysis options and
// worker budget — the one construction behind every image, corpus, and
// diff scan.
func (a *Analyzer) fleetOptions(opts []FleetOption) fleet.Options {
	fo := fleet.Options{Workers: a.opts.Parallelism, Analysis: a.traced(), Cache: a.reports, SummaryStore: a.opts.SummaryStore}
	for _, o := range opts {
		o(&fo)
	}
	return fo
}

// WithFleetTimeout caps each binary's analysis wall-clock; timed-out
// binaries are reported as BinaryTimeout without failing the image.
func WithFleetTimeout(d time.Duration) FleetOption {
	return func(o *fleet.Options) { o.PerBinaryTimeout = d }
}

// WithFleetPathFilter restricts the scan to rootfs paths for which keep
// returns true (e.g. only /usr/sbin daemons).
func WithFleetPathFilter(keep func(path string) bool) FleetOption {
	return func(o *fleet.Options) { o.PathFilter = keep }
}

// WithFleetFilterTag names the Analyzer's function filter for cache-key
// purposes. Function values cannot be fingerprinted, so a scan whose
// Analyzer has a filter set bypasses the cache unless a tag identifies
// the filter; two scans with the same tag are assumed to use the same
// filter.
func WithFleetFilterTag(tag string) FleetOption {
	return func(o *fleet.Options) { o.FilterTag = tag }
}

// WithFleetProgress registers a callback invoked after each binary
// completes with the running done count and the candidate total. Calls
// are serialized.
func WithFleetProgress(fn func(done, total int)) FleetOption {
	return func(o *fleet.Options) { o.Progress = fn }
}

// WithFleetStallTimeout arms a stall watchdog over the scan's span
// stream: when no span starts or ends for d, the watchdog emits a stall
// event, captures a diagnostic bundle (WithFleetDebugDir) and abandons
// the in-flight binaries — they report BinaryStalled, never an empty
// success. Pick d well above the slowest single function's analysis
// time; 0 (the default) disables the watchdog.
func WithFleetStallTimeout(d time.Duration) FleetOption {
	return func(o *fleet.Options) { o.StallTimeout = d }
}

// WithFleetDebugDir names the directory that receives one diagnostic
// bundle per watchdog stall: goroutine dump, Chrome trace, metrics
// snapshot, options fingerprint, event journal, and the partial report
// of the binaries completed so far.
func WithFleetDebugDir(dir string) FleetOption {
	return func(o *fleet.Options) { o.DebugDir = dir }
}

// ScanFirmwareFleet unpacks a firmware image and analyzes every
// executable in its root filesystem — the whole-image counterpart of
// AnalyzeFirmware. The binaries and their analyses share the
// Analyzer's worker budget (WithWorkers): binaries run concurrently
// first, and an analysis borrows the workers left idle, so a
// one-binary image is analyzed as fast as AnalyzeFirmware would. One
// corrupt binary cannot kill the scan (panic isolation, per-binary
// timeouts), cancelling ctx stops new work, and a Cache shared across
// calls (WithCache) makes re-scans and binary-sharing fleets cheap. The
// Analyzer's own options (filters, ablations, custom sources/sinks)
// apply to every binary.
func (a *Analyzer) ScanFirmwareFleet(ctx context.Context, data []byte, opts ...FleetOption) (*ImageReport, error) {
	fo := a.fleetOptions(opts)
	rep, err := fleet.ScanImage(ctx, data, fo)
	if err == nil {
		a.publish(rep.Cache, fo.SummaryStore.Stats())
	}
	return rep, err
}

// ScanFirmwareCorpus scans a corpus of firmware images with one report
// cache and one summary store shared across every image — each unique
// binary is analyzed once per corpus and each unique function is
// symbolically executed once per corpus. Attach a Cache with WithCache
// to persist or reuse the tiers across calls; otherwise corpus-lifetime
// in-memory tiers are created. Images are scanned sequentially, each
// spending the worker budget on its binaries; cancelling ctx stops new
// work.
func (a *Analyzer) ScanFirmwareCorpus(ctx context.Context, images [][]byte, opts ...FleetOption) (*CorpusReport, error) {
	rep, err := fleet.ScanCorpus(ctx, images, a.fleetOptions(opts))
	if err == nil {
		a.publish(rep.Cache, rep.SummaryStore)
	}
	return rep, err
}
