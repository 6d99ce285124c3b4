// Command dtaintd serves the fleet-scale scanning subsystem over HTTP:
// upload a firmware image, poll the job, fetch the per-image report.
//
//	dtaintd -addr :8214 -cache-dir /var/cache/dtaint
//
//	curl -X POST --data-binary @dir645.fwimg http://localhost:8214/v1/scan
//	curl -X POST -F firmware=@dir645.fwimg -F vocab=@vendor.json http://localhost:8214/v1/scan
//	curl -X POST -F old=@fw-1.0.0.fwimg -F new=@fw-1.0.1.fwimg http://localhost:8214/v1/diff
//	curl http://localhost:8214/v1/jobs/job-000001
//	curl http://localhost:8214/v1/jobs/job-000001/report
//	curl http://localhost:8214/v1/metrics
//
// POST /v1/diff queues a differential scan of two firmware versions
// (multipart, required "old" and "new" parts, optional "vocab" part).
// It shares the scan queue, the report cache, and the function-summary
// store: binaries unchanged since a prior scan replay from cache,
// changed ones re-analyze with unchanged functions replaying from the
// store, and the job's report classifies every finding as new, fixed,
// or persisting across the two versions.
//
// Every job analyzes with the dtaint CLI's defaults; -ablate takes the
// CLI's comma-separated feature list (alias, sse, structsim, vrange) to
// disable analyses server-wide. Reports use the same JSON schema as
// dtaint -json, so served, cached, and CLI reports compare directly.
//
// The second upload form is multipart: the optional vocab part is a
// JSON source/sink/sanitizer vocabulary (DESIGN.md §3.5) overriding
// the server's default for that job only; -vocab file.json changes
// the server-wide default. Malformed specs answer 400 at accept time
// with a line-precise error. The vocabulary digest is part of the
// cache fingerprints, so jobs with different vocabularies never share
// cached results.
//
// Jobs run one at a time in arrival order; each job spends a budget of
// -workers goroutines on its image's binaries first, lending idle ones
// to their analyses' parallel phases. The job queue is bounded
// (-queue); a full queue answers 429 so load sheds at the edge
// instead of piling up in memory. Reports are cached content-addressed
// (SHA-256 of the binary plus the analyzer-options fingerprint), so
// re-scanning an image — or a fleet of images sharing binaries — is
// served from cache. Below the report cache, a function-summary store
// shared across all jobs replays per-function analysis for code
// recurring across distinct binaries (same SDK, same libc). Both keep
// their hot set in a bounded in-memory LRU; -cache-dir persists both
// across restarts in one directory (reports as <key>.json, summaries
// as <key>.dtss). SIGINT/SIGTERM
// shuts down gracefully: the listener stops, the running job drains,
// queued jobs are failed with a shutdown error.
//
// Live telemetry: every job appends typed, sequence-numbered events
// (job and stage/binary lifecycle, progress with ETA, stalls)
// to a bounded in-memory journal (-journal sets the ring size).
// GET /v1/jobs/{id}/events streams one job as Server-Sent Events —
// buffered history first, then live — closing after the job's terminal
// event; a reconnecting client resumes exactly where it left off by
// sending the standard Last-Event-ID header. GET /v1/events is the
// all-jobs firehose. -stall-timeout arms a per-job watchdog: a job
// with no span activity for that long has its in-flight binaries
// abandoned (reported as status "stalled", never an empty success) and,
// with -debug-dir, a diagnostic bundle written to disk. GET /healthz is
// the liveness probe; GET /readyz answers 503 once graceful drain
// begins (-drain-notice holds the listener open so balancers see the
// flip) or when the job queue is saturated.
//
// Observability: /v1/metrics serves the service counters plus the
// analysis registry as JSON, or as Prometheus text exposition when the
// client sends "Accept: text/plain" (what Prometheus scrapers do).
// -log-level/-log-format select structured stderr logging (log/slog)
// with per-job and per-binary attrs. -pprof-addr exposes the standard
// net/http/pprof profiles on a second listener kept off the public API
// address:
//
//	dtaintd -addr :8214 -pprof-addr 127.0.0.1:6060 -log-format json
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"os/signal"
	"syscall"
	"time"

	"dtaint/internal/dataflow"
	"dtaint/internal/fleet"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
	"dtaint/internal/sumstore"
	"dtaint/internal/taint"
	"dtaint/internal/vocab"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8214", "listen address (port 0 picks an ephemeral port)")
		workers     = flag.Int("workers", 0, "worker budget per job, shared by its binaries and their analyses (0 = GOMAXPROCS)")
		queueCap    = flag.Int("queue", 16, "maximum queued scan jobs before 429")
		jobTimeout  = flag.Duration("binary-timeout", 10*time.Minute, "per-binary analysis timeout (0 = none)")
		cacheDir    = flag.String("cache-dir", "", "persistent directory for the report cache and function-summary store (empty = memory only)")
		maxUpload   = flag.Int64("max-upload", 256<<20, "maximum firmware upload bytes")
		ablate      = flag.String("ablate", "", "comma-separated analysis features to disable: alias, sse, structsim, vrange")
		vocabPath   = flag.String("vocab", "", "default source/sink/sanitizer vocabulary spec (JSON; empty = embedded default)")
		drainWait   = flag.Duration("drain", 5*time.Minute, "shutdown grace for the running job")
		drainNotice = flag.Duration("drain-notice", 0, "delay between flipping /readyz to 503 and stopping the listener")
		journalSize = flag.Int("journal", events.DefaultJournalSize, "event journal ring size for SSE streaming (0 = telemetry off)")
		stallWait   = flag.Duration("stall-timeout", 0, "per-job stall watchdog deadline: no span activity for this long abandons the binary (0 = off)")
		debugDir    = flag.String("debug-dir", "", "directory receiving one diagnostic bundle per watchdog stall (empty = off)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	)
	flag.Parse()
	opts := serveOptions{
		addr: *addr, workers: *workers, queueCap: *queueCap,
		cacheDir: *cacheDir, maxUpload: *maxUpload,
		jobTimeout: *jobTimeout, drainWait: *drainWait, drainNotice: *drainNotice,
		journalSize: *journalSize, stallWait: *stallWait, debugDir: *debugDir,
		ablate: *ablate, vocabPath: *vocabPath,
		logLevel: *logLevel, logFormat: *logFormat, pprofAddr: *pprofAddr,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "dtaintd:", err)
		os.Exit(1)
	}
}

// serveOptions carries the parsed flags into run.
type serveOptions struct {
	addr        string
	workers     int
	queueCap    int
	cacheDir    string
	maxUpload   int64
	jobTimeout  time.Duration
	drainWait   time.Duration
	drainNotice time.Duration
	journalSize int
	stallWait   time.Duration
	debugDir    string
	ablate      string
	vocabPath   string
	logLevel    string
	logFormat   string
	pprofAddr   string
}

// config builds the service configuration from the flags: the shared
// report cache and summary store, and the analysis options — the same
// defaults as the dtaint CLI (dataflow.DefaultOptions), so the two share
// cache entries and report identical findings.
func (o serveOptions) config() (config, error) {
	if o.workers < 0 {
		return config{}, fmt.Errorf("-workers must be >= 0, got %d", o.workers)
	}
	logger, err := obs.NewLogger(os.Stderr, o.logLevel, o.logFormat)
	if err != nil {
		return config{}, err
	}
	cache, err := fleet.NewCache(0, o.cacheDir)
	if err != nil {
		return config{}, err
	}
	store, err := sumstore.NewStore(0, o.cacheDir)
	if err != nil {
		return config{}, err
	}
	cfg := config{
		workers:       o.workers,
		queueCap:      o.queueCap,
		binaryTimeout: o.jobTimeout,
		maxUpload:     o.maxUpload,
		cache:         cache,
		sumStore:      store,
		analysis:      dataflow.DefaultOptions(),
		metrics:       obs.NewRegistry(),
		log:           logger,
		stallTimeout:  o.stallWait,
		debugDir:      o.debugDir,
	}
	if o.journalSize > 0 {
		cfg.journal = events.NewJournal(o.journalSize)
	}
	if err := cfg.analysis.Ablate(o.ablate); err != nil {
		return config{}, err
	}
	if o.vocabPath != "" {
		spec, err := vocab.Load(o.vocabPath)
		if err != nil {
			return config{}, err
		}
		v, err := taint.CompileVocabulary(spec)
		if err != nil {
			return config{}, err
		}
		cfg.analysis.Vocab = v
	}
	return cfg, nil
}

func run(o serveOptions) error {
	cfg, err := o.config()
	if err != nil {
		return err
	}
	s := newServer(cfg)
	s.start()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// The ephemeral-port form ("host:0") is how the smoke test and
	// scripted clients find the server: this line is the contract.
	fmt.Printf("dtaintd: listening on http://%s\n", ln.Addr())

	if o.pprofAddr != "" {
		pln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Printf("dtaintd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		// The blank net/http/pprof import registered its handlers on
		// http.DefaultServeMux; serve that mux on the side listener only,
		// so profiles never leak onto the public API address.
		go func() { _ = http.Serve(pln, http.DefaultServeMux) }()
	}

	srv := &http.Server{Handler: s.handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("dtaintd: %v, draining\n", sig)
		// Flip /readyz to 503 first, then hold the listener open for the
		// notice window so load balancers (and the smoke test) observe
		// the not-ready answer before connections start being refused.
		s.setDraining()
		if o.drainNotice > 0 {
			time.Sleep(o.drainNotice)
		}
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv.Shutdown(ctx)
	cancel()
	// Shutdown waits for idle connections but not for open SSE streams;
	// close them outright so drain cannot hang on a watching client.
	_ = srv.Close()
	s.shutdown(o.drainWait)
	fmt.Println("dtaintd: stopped")
	return nil
}
