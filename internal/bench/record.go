package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// RecordSchema identifies the BENCH_*.json layout; bump on breaking
// changes. The schema is documented in EXPERIMENTS.md.
const RecordSchema = "dtaint-bench/v1"

// Record is the machine-readable artifact benchtab writes next to the
// human-readable tables, so benchmark runs can be archived and diffed
// across commits.
type Record struct {
	Schema      string         `json:"schema"`
	GeneratedAt time.Time      `json:"generatedAt"`
	Scale       float64        `json:"scale"`
	Env         EnvRecord      `json:"env"`
	Study       []StudyRecord  `json:"study,omitempty"`
	Table7      []Table7Record `json:"table7,omitempty"`
	Fleet       *FleetRecord   `json:"fleet,omitempty"`
	Corpus      *CorpusRecord  `json:"corpus,omitempty"`
	Diff        *DiffRecord    `json:"diff,omitempty"`
	Alias       []AliasRecord  `json:"alias,omitempty"`
}

// EnvRecord pins the toolchain and host shape a record was measured on.
type EnvRecord struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// NewRecord returns an empty record stamped with the current time and
// environment.
func NewRecord(scale float64) *Record {
	return &Record{
		Schema:      RecordSchema,
		GeneratedAt: time.Now().UTC().Truncate(time.Second),
		Scale:       scale,
		Env: EnvRecord{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
}

// StudyRecord is one study image's detection outcome (Table III data).
type StudyRecord struct {
	Product           string  `json:"product"`
	Arch              string  `json:"arch"`
	Binary            string  `json:"binary"`
	FunctionsAnalyzed int     `json:"functionsAnalyzed"`
	SinkCount         int     `json:"sinkCount"`
	SSASeconds        float64 `json:"ssaSeconds"`
	DDGSeconds        float64 `json:"ddgSeconds"`
	VulnerablePaths   int     `json:"vulnerablePaths"`
	Vulnerabilities   int     `json:"vulnerabilities"`
}

// AddStudy records the detection results of a RunStudy pass.
func (rec *Record) AddStudy(runs []StudyRun) {
	for _, r := range runs {
		rec.Study = append(rec.Study, StudyRecord{
			Product:           r.Spec.Product,
			Arch:              r.Spec.Arch.String(),
			Binary:            r.Spec.BinaryName,
			FunctionsAnalyzed: r.Result.FunctionsAnalyzed,
			SinkCount:         r.Result.SinkCount,
			SSASeconds:        r.Result.SSATime.Seconds(),
			DDGSeconds:        r.Result.DDGTime.Seconds(),
			VulnerablePaths:   len(r.Result.VulnerablePaths()),
			Vulnerabilities:   len(r.Result.Vulnerabilities()),
		})
	}
}

// Table7Record is one workload of the time-cost comparison.
type Table7Record struct {
	Binary             string  `json:"binary"`
	BaselineSSASeconds float64 `json:"baselineSsaSeconds"`
	BaselineDDGSeconds float64 `json:"baselineDdgSeconds"`
	SSASeconds         float64 `json:"ssaSeconds"`
	DDGSeconds         float64 `json:"ddgSeconds"`
	DDGSeqSeconds      float64 `json:"ddgSeqSeconds"`
	Workers            int     `json:"workers"`
	Components         int     `json:"components"`
	CriticalPath       int     `json:"criticalPath"`
	BaselineAnalyses   int     `json:"baselineAnalyses"`
	BaselineCapped     bool    `json:"baselineCapped"`
}

// AddTable7 records the rows of a RunTable7 pass.
func (rec *Record) AddTable7(rows []Table7Row) {
	for _, r := range rows {
		rec.Table7 = append(rec.Table7, Table7Record{
			Binary:             r.Binary,
			BaselineSSASeconds: r.BaseSSA.Seconds(),
			BaselineDDGSeconds: r.BaseDDG.Seconds(),
			SSASeconds:         r.DTaintSSA.Seconds(),
			DDGSeconds:         r.DTaintDDG.Seconds(),
			DDGSeqSeconds:      r.DTaintDDGSeq.Seconds(),
			Workers:            r.Workers,
			Components:         r.Components,
			CriticalPath:       r.CriticalPath,
			BaselineAnalyses:   r.BaselineAnalyses,
			BaselineCapped:     r.Capped == 1,
		})
	}
}

// FleetRecord is the cold/warm fleet measurement: per-pass totals with
// tracer-aggregated stage durations, plus the shared cache's hit rate.
type FleetRecord struct {
	Workers int              `json:"workers"`
	Passes  []FleetPass      `json:"passes"`
	Cache   FleetCacheRecord `json:"cache"`
}

// FleetPass is one pass (cold or warm) over all study images.
type FleetPass struct {
	Name            string             `json:"name"`
	Images          int                `json:"images"`
	Candidates      int                `json:"candidates"`
	Scanned         int                `json:"scanned"`
	Cached          int                `json:"cached"`
	Failed          int                `json:"failed"`
	Skipped         int                `json:"skipped"`
	Vulnerabilities int                `json:"vulnerabilities"`
	VulnerablePaths int                `json:"vulnerablePaths"`
	WallSeconds     float64            `json:"wallSeconds"`
	StageSeconds    map[string]float64 `json:"stageSeconds"`
	// Telemetry throughput: the pass runs with a live event journal
	// attached (every event span-derived), so the record captures how many
	// events the scan produced, the publish rate, and the journal ring's
	// peak occupancy.
	Events           uint64  `json:"events"`
	EventsPerSec     float64 `json:"eventsPerSec"`
	JournalHighWater int     `json:"journalHighWater"`
}

// FleetCacheRecord is the cache shape after both passes.
type FleetCacheRecord struct {
	Entries   int     `json:"entries"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hitRate"`
}

// CorpusRecord is the corpus-scale measurement: the overlap corpus's
// shape, the four passes, and the two headline numbers — the warm
// re-scan speedup (cold wall / warm wall) and the summary-store hit rate
// of the resummarize pass.
type CorpusRecord struct {
	Images            int          `json:"images"`
	Variants          int          `json:"variants"`
	UniqueBinaries    int          `json:"uniqueBinaries"`
	DuplicateBinaries int          `json:"duplicateBinaries"`
	Workers           int          `json:"workers"`
	Passes            []CorpusPass `json:"passes"`
	WarmSpeedup       float64      `json:"warmSpeedup"`
	SummaryHitRate    float64      `json:"summaryHitRate"`
}

// CorpusPass is one pass over the overlap corpus. Cache and summary
// counters are per-pass deltas, not cumulative store totals.
type CorpusPass struct {
	Name            string  `json:"name"`
	Images          int     `json:"images"`
	Candidates      int     `json:"candidates"`
	Scanned         int     `json:"scanned"`
	Cached          int     `json:"cached"`
	Vulnerabilities int     `json:"vulnerabilities"`
	VulnerablePaths int     `json:"vulnerablePaths"`
	CacheHits       uint64  `json:"cacheHits"`
	CacheMisses     uint64  `json:"cacheMisses"`
	SummaryHits     uint64  `json:"summaryHits"`
	SummaryMisses   uint64  `json:"summaryMisses"`
	WallSeconds     float64 `json:"wallSeconds"`
	BinariesPerSec  float64 `json:"binariesPerSecond"`
}

// DiffRecord is the differential-scanning measurement over a version
// pair: the full-rescan baseline, the prior (nightly) scan that warms
// the tiers, and the diff itself, with its cost attribution. SkipRate is
// the fraction of analysis units replayed instead of re-analyzed;
// DeltaCostRatio is diff wall over full-rescan wall.
type DiffRecord struct {
	Binaries          int     `json:"binaries"`
	Mutated           int     `json:"mutated"`
	Workers           int     `json:"workers"`
	FullRescanSeconds float64 `json:"fullRescanSeconds"`
	PriorScanSeconds  float64 `json:"priorScanSeconds"`
	DiffSeconds       float64 `json:"diffSeconds"`
	DeltaCostRatio    float64 `json:"deltaCostRatio"`
	SkipRate          float64 `json:"skipRate"`
	Replayed          int     `json:"replayed"`
	Reanalyzed        int     `json:"reanalyzed"`
	SummaryHitRate    float64 `json:"summaryHitRate"`
	New               int     `json:"new"`
	Fixed             int     `json:"fixed"`
	Persisting        int     `json:"persisting"`
}

// AliasRecord is one alias-phase microbenchmark workload: the same raw
// definition pairs rewritten by Algorithm 1 (sequential pairwise scan)
// and by the SSE class engine, with the hash-cons table's shape. Wall
// columns are totals over Iterations passes; Speedup is seq over SSE.
type AliasRecord struct {
	Workload      string  `json:"workload"`
	Functions     int     `json:"functions"`
	PairsIn       int     `json:"pairsIn"`
	Iterations    int     `json:"iterations"`
	SeqSeconds    float64 `json:"seqSeconds"`
	SSESeconds    float64 `json:"sseSeconds"`
	Speedup       float64 `json:"speedup"`
	SeqAdded      int     `json:"seqAdded"`
	SeqDropped    int     `json:"seqDropped"`
	SSEAdded      int     `json:"sseAdded"`
	SSEDropped    int     `json:"sseDropped"`
	Classes       int     `json:"classes"`
	InternNodes   int     `json:"internNodes"`
	InternHits    uint64  `json:"internHits"`
	InternMisses  uint64  `json:"internMisses"`
	InternHitRate float64 `json:"internHitRate"`
}

// Empty reports whether the record has no measured sections; benchtab
// skips writing a file for table-only invocations.
func (rec *Record) Empty() bool {
	return len(rec.Study) == 0 && len(rec.Table7) == 0 && rec.Fleet == nil &&
		rec.Corpus == nil && rec.Diff == nil && len(rec.Alias) == 0
}

// Write writes the record as indented JSON.
func (rec *Record) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// WriteFile writes the record to path (or, when path is empty, to an
// auto-named BENCH_<UTC timestamp>.json in the working directory) and
// returns the path written.
func (rec *Record) WriteFile(path string) (string, error) {
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", rec.GeneratedAt.Format("20060102T150405Z"))
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := rec.Write(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
