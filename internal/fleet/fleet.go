package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"dtaint/internal/cfg"
	"dtaint/internal/dataflow"
	"dtaint/internal/firmware"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
	"dtaint/internal/sched"
	"dtaint/internal/sumstore"
)

// Options configures an image scan, and also a differential scan
// (diff.Options is an alias): both run their binaries through RunWaves.
type Options struct {
	// Workers is the run's worker budget (0 = GOMAXPROCS, negative is
	// rejected): one pool of slots shared by the binaries in flight and,
	// through Analysis.Pool, by their analyses, which borrow only the
	// slots the wave leaves idle. At most Workers goroutines work at once.
	Workers int
	// PerBinaryTimeout caps one binary's analysis wall-clock (0 = no
	// cap). A timed-out binary is reported as StatusTimeout; its
	// analysis goroutine is abandoned and exits when the analyzer
	// returns (the engine is CPU-bound and not interruptible).
	PerBinaryTimeout time.Duration
	// Analysis configures the per-binary analyzer. Its Parallelism caps
	// the goroutines one binary's analysis may use (0 = no cap beyond
	// Workers, 1 = sequential); RunWaves sets its Pool. Results are
	// identical for any setting.
	Analysis dataflow.Options
	// FilterTag names Analysis.Filter for cache-key purposes (function
	// values cannot be fingerprinted). Caching is bypassed when
	// Analysis.Filter is non-nil and FilterTag is empty.
	FilterTag string
	// Cache, when non-nil, is consulted before and updated after every
	// binary analysis.
	Cache *Cache
	// SummaryStore, when non-nil, is shared by every binary analysis in
	// the scan (and, via ScanCorpus, across a whole corpus): per-function
	// and per-component summaries are keyed by content, so binaries
	// sharing code — every image's busybox, the common libc-shaped
	// modules — are symbolically executed once per unique function.
	// Results are bit-identical with and without a store, so it is
	// excluded from the report-cache fingerprint.
	SummaryStore *sumstore.Store
	// PathFilter, when non-nil, restricts candidates to rootfs paths for
	// which it returns true.
	PathFilter func(path string) bool
	// Progress, when non-nil, is called after each binary completes with
	// the number done so far and the total across all waves (a scan's
	// candidates, a diff's distinct binaries to analyze). Calls are
	// serialized.
	Progress func(done, total int)
	// StallTimeout arms a stall watchdog over the scan's span stream:
	// when the scan starts and ends no span for this long, the watchdog
	// emits a stall event, captures a diagnostic bundle (see DebugDir),
	// and abandons the in-flight binaries — they report StatusStalled,
	// never an empty success. 0 disables the watchdog. When
	// Analysis.Tracer is nil, RunWaves traces the run with a private
	// tracer so the watchdog has a stream to watch. Pick a deadline well
	// above the slowest single function's analysis time: every function
	// starts and ends a span, so one monstrous function is the finest
	// silence a healthy scan produces.
	StallTimeout time.Duration
	// DebugDir receives one diagnostic bundle directory per stall:
	// goroutine dump, Chrome trace, metrics snapshot, options
	// fingerprint, the job's event journal, and the partial report of
	// the binaries completed so far. Empty skips bundle capture.
	DebugDir string

	// watchdog is the armed stall watchdog RunWaves shares with its
	// workers (nil when StallTimeout is 0).
	watchdog *events.Watchdog
}

// cacheable reports whether binaries replay from and fill the report
// cache: an untagged function filter cannot be part of the cache key.
func (o Options) cacheable() bool {
	return o.Cache != nil && (o.Analysis.Filter == nil || o.FilterTag != "")
}

// ErrBadWorkers reports a negative worker count.
var ErrBadWorkers = errors.New("fleet: workers must be >= 0 (0 uses GOMAXPROCS)")

// Prepare validates opts and applies the defaults every scan shares:
// Workers 0 becomes GOMAXPROCS and SummaryStore is attached to the
// analysis. It is idempotent; RunWaves expects prepared options.
func Prepare(opts Options) (Options, error) {
	if opts.Workers < 0 {
		return opts, ErrBadWorkers
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.SummaryStore != nil {
		opts.Analysis.SummaryStore = opts.SummaryStore
	}
	return opts, nil
}

// Candidates unpacks a firmware container and lists the FWELF
// executables of its root filesystem that pass opts.PathFilter, in
// rootfs path order.
func Candidates(data []byte, opts Options) (*firmware.Image, []firmware.File, error) {
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

// ScanImage unpacks a firmware container, enumerates the FWELF
// executables in its root filesystem, and analyzes each across a bounded
// worker pool (RunWaves with a single wave). One corrupt or pathological
// binary cannot take down the run: panics are confined to that binary's
// report entry, and a per-binary timeout bounds stragglers. Cancelling
// ctx stops new work; binaries not yet started are reported as
// StatusSkipped unless their report replays from the cache.
//
// The returned report lists binaries in rootfs path order and is
// deterministic (timings aside) for any worker count.
func ScanImage(ctx context.Context, data []byte, opts Options) (*ImageReport, error) {
	opts, err := Prepare(opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	// The whole image gets one root span; the unpack stage and the
	// binaries stage (RunWaves) nest under it, and every count the scan
	// reports lands on it when the scan ends.
	scanSpan := opts.Analysis.Tracer.Start(opts.Analysis.ParentSpan, "scan-image")
	opts.Analysis.ParentSpan = scanSpan

	st := scanSpan.StartChild("unpack-firmware", obs.KV("bytes", len(data)))
	img, candidates, err := Candidates(data, opts)
	if err != nil {
		st.End()
		scanSpan.End()
		return nil, fmt.Errorf("fleet: unpack image: %w", err)
	}
	st.End(obs.KV("candidates", len(candidates)))
	scanSpan.SetAttr("product", img.Header.Product)

	rep := &ImageReport{
		Vendor:     img.Header.Vendor,
		Product:    img.Header.Product,
		Version:    img.Header.Version,
		Year:       img.Header.Year,
		Arch:       img.Header.Arch.String(),
		Candidates: len(candidates),
		Workers:    opts.Workers,
		Binaries:   RunWaves(ctx, img.Header, [][]firmware.File{candidates}, opts)[0],
	}
	rep.aggregate()
	rep.Wall = time.Since(start)
	if opts.Cache != nil {
		rep.Cache = opts.Cache.Stats()
	}
	rep.Runtime = obs.CaptureRuntimeStats()
	scanSpan.End(obs.KV("candidates", rep.Candidates), obs.KV("scanned", rep.Scanned),
		obs.KV("cached", rep.Cached), obs.KV("failed", rep.Failed),
		obs.KV("stalled", rep.Stalled), obs.KV("skipped", rep.Skipped),
		obs.KV("vulnerabilities", rep.Vulnerabilities))
	return rep, nil
}

// RunWaves takes waves of rootfs binaries through the per-binary runner
// on one pool of opts.Workers slots, returning one BinaryScan per file,
// wave by wave in input order. Every binary of a wave finishes before
// the next wave starts, so a later wave sees the summaries and cache
// entries an earlier one wrote. One "binaries" stage span spans all waves and
// declares their total, so the progress count runs across all waves;
// one stall watchdog (StallTimeout) watches the whole run, and with a
// cache identical binaries are analyzed once (see repeats). hdr names
// the image in the stage span and the watchdog's partial report. opts
// must come from Prepare.
func RunWaves(ctx context.Context, hdr firmware.Header, waves [][]firmware.File, opts Options) [][]BinaryScan {
	total := 0
	for _, wave := range waves {
		total += len(wave)
	}
	// completed collects finished binaries in completion order for the
	// watchdog's partial report (the result slices have holes mid-run);
	// done feeds the caller's progress callback.
	var (
		mu        sync.Mutex
		completed []BinaryScan
		done      int
	)
	// The stall watchdog watches the run's span stream; a run armed
	// without a caller-supplied tracer gets a private one for the call.
	if opts.StallTimeout > 0 {
		if opts.Analysis.Tracer == nil {
			opts.Analysis.Tracer = obs.NewTracer()
		}
		opts.watchdog = events.StartWatchdog(events.WatchdogConfig{
			Tracer:      opts.Analysis.Tracer,
			Deadline:    opts.StallTimeout,
			DebugDir:    opts.DebugDir,
			Fingerprint: dataflow.OptionsFingerprint(opts.Analysis, opts.FilterTag),
			Partial:     partialReportWriter(hdr, total, &mu, &completed),
		})
		defer opts.watchdog.Stop()
	}
	stage := opts.Analysis.Tracer.Start(opts.Analysis.ParentSpan, "binaries",
		obs.KV("binaries", total), obs.KV("image", hdr.Product))
	defer stage.End()
	opts.Analysis.ParentSpan = stage

	pool := sched.NewPool(opts.Workers)
	opts.Analysis.Pool = pool
	out := make([][]BinaryScan, len(waves))
	for w, wave := range waves {
		res := make([]BinaryScan, len(wave))
		out[w] = res
		var deps []int
		var next [][]int
		if opts.cacheable() {
			deps, next = repeats(wave)
		}
		err := pool.Run(len(wave), 0, deps, next, func(i int) {
			bs := scanOne(ctx, wave[i], opts)
			res[i] = bs
			mu.Lock()
			completed = append(completed, bs)
			done++
			if opts.Progress != nil {
				opts.Progress(done, total)
			}
			mu.Unlock()
		})
		if err != nil { // the runner panicked: unfinished binaries fail
			for i, f := range wave {
				if res[i].Path == "" {
					res[i] = BinaryScan{Path: f.Path, Status: StatusFailed, Error: err.Error()}
				}
			}
		}
	}
	return out
}

// repeats makes every copy of a binary in a wave depend on its previous
// copy (firmware ships busybox at many paths), so a copy replays the
// report the previous one cached — or analyzes, if that one failed.
func repeats(wave []firmware.File) (deps []int, next [][]int) {
	deps, next = make([]int, len(wave)), make([][]int, len(wave))
	last := make(map[[sha256.Size]byte]int)
	for i, f := range wave {
		sum := sha256.Sum256(f.Data)
		if j, ok := last[sum]; ok {
			deps[i] = 1
			next[j] = append(next[j], i)
		}
		last[sum] = i
	}
	return deps, next
}

// partialReportWriter returns the watchdog's partial-report callback: a
// JSON snapshot of the binaries completed so far, flagged partial so a
// bundle's report.json is never mistaken for a finished scan's.
func partialReportWriter(hdr firmware.Header, total int, mu *sync.Mutex, completed *[]BinaryScan) func(io.Writer) error {
	return func(w io.Writer) error {
		mu.Lock()
		snap := append([]BinaryScan(nil), (*completed)...)
		mu.Unlock()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Partial    bool         `json:"partial"`
			Vendor     string       `json:"vendor"`
			Product    string       `json:"product"`
			Version    string       `json:"version"`
			Candidates int          `json:"candidates"`
			Completed  int          `json:"completed"`
			Binaries   []BinaryScan `json:"binaries"`
		}{true, hdr.Vendor, hdr.Product, hdr.Version, total, len(snap), snap})
	}
}

// scanOne is the per-binary runner: cache lookup, then a fresh analysis under panic isolation, the per-binary deadline,
// and the stall watchdog.
func scanOne(ctx context.Context, f firmware.File, opts Options) BinaryScan {
	sum := sha256.Sum256(f.Data)
	bs := BinaryScan{Path: f.Path, SHA256: hex.EncodeToString(sum[:])}

	// The span's path and sha scope every event and log line of the
	// binary's stages; its end is the binary's completion (status attr).
	span := opts.Analysis.Tracer.Start(opts.Analysis.ParentSpan, "scan-binary",
		obs.KV("path", f.Path), obs.KV("sha", bs.SHA256[:12]))
	opts.Analysis.ParentSpan = span
	defer func() {
		span.SetAttr("status", string(bs.Status))
		span.End()
	}()

	cacheable := opts.cacheable()
	var key string
	if cacheable {
		key = Key(f.Data, Fingerprint(opts.Analysis, opts.FilterTag))
		if v, ok := opts.Cache.Get(key); ok {
			bs.Status = StatusCached
			bs.Analysis = v
			return bs
		}
	}
	// Cancellation stops new analyses; a cache hit above costs nothing
	// and still replays.
	if ctx.Err() != nil {
		bs.Status = StatusSkipped
		bs.Error = ctx.Err().Error()
		return bs
	}

	type outcome struct {
		an  *BinaryAnalysis
		err error
	}
	ch := make(chan outcome, 1)
	t0 := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("analysis panicked: %v", r)}
			}
		}()
		an, err := analyze(f, opts.Analysis)
		ch <- outcome{an: an, err: err}
	}()

	var timeout <-chan time.Time
	if opts.PerBinaryTimeout > 0 {
		t := time.NewTimer(opts.PerBinaryTimeout)
		defer t.Stop()
		timeout = t.C
	}
	// A nil watchdog yields a nil channel — the case never fires. The
	// channel is captured once: a stall mid-analysis kills this binary,
	// while binaries started after the watchdog re-arms get a fresh one.
	stalled := opts.watchdog.Stalled()
	select {
	case out := <-ch:
		bs.Duration = time.Since(t0)
		if out.err != nil {
			bs.Status = StatusFailed
			bs.Error = out.err.Error()
			return bs
		}
		bs.Status = StatusOK
		bs.Analysis = out.an
		if cacheable {
			opts.Cache.Put(key, out.an)
		}
	case <-timeout:
		bs.Duration = time.Since(t0)
		bs.Status = StatusTimeout
		bs.Error = fmt.Sprintf("analysis exceeded %v", opts.PerBinaryTimeout)
	case <-stalled:
		bs.Duration = time.Since(t0)
		bs.Status = StatusStalled
		bs.Error = fmt.Sprintf("watchdog: no span activity for %v; analysis abandoned", opts.StallTimeout)
	case <-ctx.Done():
		bs.Duration = time.Since(t0)
		bs.Status = StatusFailed
		bs.Error = ctx.Err().Error()
	}
	return bs
}

// analyze is the per-binary pipeline entry; a variable so tests can
// substitute pathological analyzers (panics, hangs) without crafting
// binaries that break the real engine.
var analyze = analyzeBinary

// AnalyzeBinary runs the full single-binary pipeline on one rootfs file
// — the same entry the scan pool uses (including any test substitute) —
// without the runner's cache, deadline, or panic isolation.
func AnalyzeBinary(f firmware.File, aopts dataflow.Options) (*BinaryAnalysis, error) {
	return analyze(f, aopts)
}

// analyzeBinary runs the full single-binary pipeline and packages the
// result into the serializable wire form.
func analyzeBinary(f firmware.File, aopts dataflow.Options) (*BinaryAnalysis, error) {
	st := aopts.Tracer.Start(aopts.ParentSpan, "parse-image", obs.KV("bytes", len(f.Data)))
	bin, err := image.Parse(f.Data)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("parse %s: %w", f.Path, err)
	}
	st.End(obs.KV("arch", bin.Arch.String()))
	st = aopts.Tracer.Start(aopts.ParentSpan, "build-cfg")
	prog, err := cfg.Build(bin)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("recover CFG of %s: %w", f.Path, err)
	}
	st.End(obs.KV("functions", len(prog.Funcs)))
	res, err := dataflow.Analyze(prog, aopts)
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", f.Path, err)
	}
	stats := prog.Stats()
	an := &BinaryAnalysis{
		Binary:            bin.Name,
		Arch:              bin.Arch.String(),
		Functions:         stats.Functions,
		Blocks:            stats.Blocks,
		CallEdges:         stats.CallGraphEdges,
		FunctionsAnalyzed: res.FunctionsAnalyzed,
		SinkCount:         res.SinkCount,
		IndirectResolved:  len(res.Resolutions),
		DefPairs:          res.DefPairCount,
		Truncated:         res.Truncated,
		SSATime:           res.SSATime,
		DDGTime:           res.DDGTime,
		SCCComponents:     res.Parallel.Components,
		CriticalPath:      res.Parallel.CriticalPath,
		SummaryHits:       res.SumStore.Hits,
		SummaryMisses:     res.SumStore.Misses,
	}
	for _, tf := range res.Findings {
		class := Class(tf.Class.String())
		wf := Finding{
			Class:     class,
			CWE:       class.CWE(),
			Sink:      tf.Sink,
			SinkFunc:  tf.SinkFunc,
			SinkAddr:  tf.SinkAddr,
			Source:    tf.Source,
			Sanitized: tf.Sanitized,
			Evidence:  append([]string(nil), tf.Evidence...),
		}
		for _, s := range tf.Path {
			wf.Path = append(wf.Path, s.String())
		}
		an.Findings = append(an.Findings, wf)
	}
	return an, nil
}
