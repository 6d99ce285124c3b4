// Package dtaint is a from-scratch reproduction of "DTaint: Detecting the
// Taint-Style Vulnerability in Embedded Device Firmware" (Cheng et al.,
// DSN 2018): a static binary analysis that finds taint-style
// vulnerabilities (buffer overflows, command injections) in Linux-based
// firmware without source code and without emulation.
//
// The analysis pipeline is the paper's: firmware container unpacking,
// lifting to an architecture-neutral IR, per-function static symbolic
// analysis producing definition pairs over "base + offset" memory
// expressions, pointer-alias recognition (Algorithm 1), indirect-call
// resolution through data-structure layout similarity, bottom-up
// interprocedural data-flow generation (Algorithm 2, every function
// analyzed once), and source→sink path checking against sanitization
// constraints.
//
// Quick start:
//
//	a := dtaint.New()
//	report, err := a.AnalyzeFirmware(imageBytes, "/htdocs/cgibin")
//	if err != nil { ... }
//	for _, v := range report.Vulnerabilities() {
//	    fmt.Println(v)
//	}
//
// Because real vendor firmware requires proprietary images, the module
// also ships a deterministic synthetic-firmware generator mirroring the
// paper's six study images (see GenerateStudyFirmware), so every
// experiment in the paper's evaluation can be regenerated offline.
package dtaint

import (
	"errors"
	"fmt"

	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/emul"
	"dtaint/internal/firmware"
	"dtaint/internal/fleet"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
	"dtaint/internal/vocab"
)

// The report types are the internal wire types themselves: the library
// API, dtaint -json, the fleet report cache, and dtaintd all carry the
// same values and encode them with the same JSON schema.
type (
	// Class is a vulnerability class.
	Class = fleet.Class
	// Finding is one (source, path, sink) tuple discovered by the
	// analysis. Its CWE field is the class's weakness identifier and its
	// Evidence the constraint/interval chain behind the verdict.
	Finding = fleet.Finding
	// Report is the result of analyzing one firmware binary.
	// Vulnerabilities deduplicates its vulnerable paths by sink location;
	// VulnerablePaths lists them all.
	Report = fleet.BinaryAnalysis
)

// Vulnerability classes.
const (
	ClassBufferOverflow   = fleet.ClassBufferOverflow
	ClassCommandInjection = fleet.ClassCommandInjection
	ClassOffByOne         = fleet.ClassOffByOne
	ClassLengthTruncation = fleet.ClassLengthTruncation
	ClassFormatString     = fleet.ClassFormatString
	ClassPathTraversal    = fleet.ClassPathTraversal
)

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithFunctionFilter restricts the analysis to functions for which keep
// returns true (the paper restricts the large camera binaries to their
// network modules).
func WithFunctionFilter(keep func(name string) bool) Option {
	return func(a *Analyzer) { a.opts.Filter = keep }
}

// WithoutAliasAnalysis disables pointer-alias recognition (Algorithm 1) —
// an ablation switch.
func WithoutAliasAnalysis() Option {
	return func(a *Analyzer) { a.opts.DisableAlias = true }
}

// WithoutStructSimilarity disables indirect-call resolution through
// data-structure layout similarity — an ablation switch.
func WithoutStructSimilarity() Option {
	return func(a *Analyzer) { a.opts.DisableStructSim = true }
}

// WithoutSSE disables structured symbolic expressions — an ablation
// switch. Pointer-alias rewriting falls back to the paper's pairwise
// Algorithm 1 and indirect calls are resolved by data-structure layout
// similarity alone instead of from SSE equivalence classes.
func WithoutSSE() Option {
	return func(a *Analyzer) { a.opts.DisableSSE = true }
}

// WithoutValueRange disables the interval value-range domain — an
// ablation switch. Sink verdicts fall back to the purely structural
// constraint checks: off-by-one and length-truncation findings disappear
// and interval-proven-safe copies are reported again. Path discovery is
// unaffected.
func WithoutValueRange() Option {
	return func(a *Analyzer) { a.opts.DisableVRange = true }
}

// WithStateBudget caps the symbolic states explored per function.
func WithStateBudget(perBlock, perFunction int) Option {
	return func(a *Analyzer) {
		a.opts.Symexec.MaxStatesPerBlock = perBlock
		a.opts.Symexec.MaxStatesPerFunc = perFunction
	}
}

// WithLoopUnrolling replaces the paper's loop-once heuristic with bounded
// unrolling of iters iterations — an ablation switch.
func WithLoopUnrolling(iters int) Option {
	return func(a *Analyzer) {
		a.opts.Symexec.LoopOnce = false
		a.opts.Symexec.MaxLoopIters = iters
	}
}

// WithWorkers sets the worker budget of every call: at most n
// goroutines work at once (0, the default, uses GOMAXPROCS; image and
// diff scans reject a negative n). One scheduler spends it on a scan's
// binaries first and lends idle workers to each analysis's per-function
// and SCC-component phases, so a one-binary image still uses every
// worker. Results are identical for every budget.
func WithWorkers(n int) Option {
	return func(a *Analyzer) { a.opts.Parallelism = n }
}

// WithCache attaches a shared two-tier Cache. Every analysis looks
// each function's summary up in its summary tier before symbolic
// execution, so across analyses of binaries that share code each unique
// function is executed once; image, corpus, and diff scans also replay
// whole-binary reports from its report tier. Results are bit-identical
// with and without a cache. Nil attaches none.
func WithCache(c *Cache) Option {
	return func(a *Analyzer) {
		if c != nil {
			a.reports, a.opts.SummaryStore = c.reports, c.summaries
		}
	}
}

// WithBufferSource registers a custom input-source function that fills
// the buffer passed as argument bufArg with attacker-controlled data
// (read/recv-style). Vendor firmware commonly has private input wrappers
// beyond Table I.
func WithBufferSource(name string, bufArg int) Option {
	return func(a *Analyzer) {
		a.opts.ExtraSources = append(a.opts.ExtraSources,
			taint.SourceSpec{Name: name, BufArg: bufArg})
	}
}

// WithReturningSource registers a custom input source that returns a
// pointer to attacker-controlled data (getenv/nvram_get-style).
func WithReturningSource(name string) Option {
	return func(a *Analyzer) {
		a.opts.ExtraSources = append(a.opts.ExtraSources,
			taint.SourceSpec{Name: name, BufArg: -1, ViaReturn: true})
	}
}

// WithSink registers a custom sensitive sink: dataArg is the argument
// whose pointed-to content must not be attacker-controlled; lenArg is the
// copy-bound argument whose constraint counts as sanitization (-1 when
// the check applies to the data itself).
func WithSink(name string, class Class, dataArg, lenArg int) Option {
	return func(a *Analyzer) {
		c := taint.ClassFromVocab(string(class))
		if c == 0 {
			c = taint.ClassBufferOverflow
		}
		a.opts.ExtraSinks = append(a.opts.ExtraSinks,
			taint.SinkSpec{Name: name, Class: c, DataArg: dataArg, LenArg: lenArg})
	}
}

// Vocabulary is a compiled source/sink/sanitizer vocabulary (see
// internal/vocab for the JSON spec format). The zero value is not
// usable; obtain one from LoadVocabulary, ParseVocabulary, or
// DefaultVocabulary.
type Vocabulary struct {
	v *taint.Vocabulary
}

// LoadVocabulary reads, validates, and compiles a vocabulary spec file.
// Malformed specs are rejected with line/field-precise errors.
func LoadVocabulary(path string) (*Vocabulary, error) {
	spec, err := vocab.Load(path)
	if err != nil {
		return nil, err
	}
	cv, err := taint.CompileVocabulary(spec)
	if err != nil {
		return nil, err
	}
	return &Vocabulary{v: cv}, nil
}

// ParseVocabulary validates and compiles a vocabulary spec from memory;
// name labels the source in error messages.
func ParseVocabulary(data []byte, name string) (*Vocabulary, error) {
	spec, err := vocab.Parse(data, name)
	if err != nil {
		return nil, err
	}
	cv, err := taint.CompileVocabulary(spec)
	if err != nil {
		return nil, err
	}
	return &Vocabulary{v: cv}, nil
}

// DefaultVocabulary returns the embedded default vocabulary (Table I
// plus the NVRAM/printf/file-op extensions).
func DefaultVocabulary() *Vocabulary {
	return &Vocabulary{v: taint.DefaultVocabulary()}
}

// Fingerprint returns the vocabulary's content digest. Identical specs
// share a fingerprint; any semantic edit changes it, which invalidates
// cached summaries and fleet reports keyed on the options fingerprint.
func (v *Vocabulary) Fingerprint() string { return v.v.Fingerprint() }

// SourceNames returns the vocabulary's input-source census.
func (v *Vocabulary) SourceNames() []string { return v.v.SourceNames() }

// SinkNames returns the vocabulary's sensitive-sink census.
func (v *Vocabulary) SinkNames() []string { return v.v.SinkNames() }

// Functions returns the number of modeled functions in the spec.
func (v *Vocabulary) Functions() int { return len(v.v.Spec().Functions) }

// WithVocabulary replaces the embedded default vocabulary: every
// library-call model, the sink census, the type prototypes, and the
// sanitization verdicts follow the given spec. Nil keeps the default.
func WithVocabulary(v *Vocabulary) Option {
	return func(a *Analyzer) {
		if v != nil {
			a.opts.Vocab = v.v
		}
	}
}

// Analyzer runs the DTaint pipeline. The zero value is not usable; call
// New.
type Analyzer struct {
	// opts carries the summary tier of the WithCache Cache and, as
	// Parallelism, the WithWorkers budget (in a scan that cap is a no-op:
	// the scan's pool has no more slots).
	opts dataflow.Options
	// reports is the report tier of the WithCache Cache (nil = none).
	reports *fleet.Cache
	// sinks are the telemetry surfaces attached with WithEventJournal,
	// WithMetrics, and WithLogger; every call derives them from its span
	// stream (see traced).
	sinks events.Sinks
}

// New returns an Analyzer with the paper's default configuration.
func New(opts ...Option) *Analyzer {
	a := &Analyzer{opts: dataflow.DefaultOptions()}
	for _, o := range opts {
		o(a)
	}
	return a
}

// traced returns the analysis options one call runs with: the span
// stream it reports through feeds the Analyzer's sinks. Without
// WithTracer, a call with any sink gets a tracer that lives for the
// call, so no span list grows over the Analyzer's lifetime.
func (a *Analyzer) traced() dataflow.Options {
	opts := a.opts
	opts.Tracer = events.Observe(opts.Tracer, a.sinks)
	return opts
}

// Errors returned by the analyzer entry points.
var (
	// ErrNoBinary is returned when the requested executable is not in the
	// firmware's root filesystem.
	ErrNoBinary = errors.New("dtaint: binary not found in firmware root filesystem")
)

// AnalyzeFirmware unpacks a firmware image (scanning for the container at
// any offset, as Binwalk does), extracts its root filesystem, loads the
// executable at binaryPath, and analyzes it. If binaryPath is empty, the
// first executable that parses as a program image is analyzed.
func (a *Analyzer) AnalyzeFirmware(data []byte, binaryPath string) (*Report, error) {
	opts := a.traced()
	defer func() { a.publish(CacheStats{}, opts.SummaryStore.Stats()) }()
	st := opts.Tracer.Start(opts.ParentSpan, "unpack-firmware", obs.KV("bytes", len(data)))
	_, fs, err := firmware.Unpack(data)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("unpack firmware: %w", err)
	}
	st.End(obs.KV("files", len(fs.Files)))
	if binaryPath != "" {
		f, err := fs.Lookup(binaryPath)
		if err != nil {
			return nil, fmt.Errorf("%w: %q", ErrNoBinary, binaryPath)
		}
		return fleet.AnalyzeBinary(f, opts)
	}
	for _, f := range fs.Files {
		if _, err := image.Parse(f.Data); err == nil {
			return fleet.AnalyzeBinary(f, opts)
		}
	}
	return nil, ErrNoBinary
}

// AnalyzeExecutable analyzes a serialized program image (FWELF bytes).
func (a *Analyzer) AnalyzeExecutable(data []byte) (*Report, error) {
	opts := a.traced()
	defer func() { a.publish(CacheStats{}, opts.SummaryStore.Stats()) }()
	return fleet.AnalyzeBinary(firmware.File{Path: "executable", Data: data}, opts)
}

// Sources returns the attacker-controlled input functions of Table I.
func Sources() []string { return append([]string(nil), taint.Sources...) }

// Sinks returns the security-sensitive sink functions of Table I.
func Sinks() []string { return append([]string(nil), taint.Sinks...) }

// ---------------------------------------------------------------------------
// Synthetic corpus access (the substitute for proprietary vendor firmware).

// StudyImage identifies one of the paper's six study images.
type StudyImage struct {
	Vendor     string
	Product    string
	Version    string
	Binary     string
	BinaryPath string
	Arch       string
}

// StudyImages lists the six firmware images of the paper's Table II.
func StudyImages() []StudyImage {
	var out []StudyImage
	for _, s := range corpus.StudyImages() {
		out = append(out, StudyImage{
			Vendor:     s.Vendor,
			Product:    s.Product,
			Version:    s.Version,
			Binary:     s.BinaryName,
			BinaryPath: corpus.BinaryPathFor(s),
			Arch:       s.Arch.String(),
		})
	}
	return out
}

// GenerateStudyFirmware deterministically generates the named study image
// as a packed firmware container. scale in (0, 1] shrinks the filler code
// (1.0 reproduces the paper's binary sizes; the planted vulnerabilities
// are present at every scale).
func GenerateStudyFirmware(product string, scale float64) ([]byte, error) {
	spec, ok := corpus.SpecByProduct(product)
	if !ok {
		return nil, fmt.Errorf("dtaint: unknown study product %q", product)
	}
	data, _, err := corpus.BuildFirmware(spec, scale)
	return data, err
}

// StudyModuleFilter returns the function filter the paper uses for the
// named product (non-nil only for the two large camera binaries, which
// are restricted to their network modules).
func StudyModuleFilter(product string) func(string) bool {
	spec, ok := corpus.SpecByProduct(product)
	if !ok {
		return nil
	}
	return corpus.ModuleFilter(spec)
}

// GenerateOpenSSL generates the OpenSSL-like executable with the
// Heartbleed weakness (Section II-B) as serialized program-image bytes.
func GenerateOpenSSL(scale float64) ([]byte, error) {
	bin, err := corpus.OpenSSL(scale)
	if err != nil {
		return nil, err
	}
	return bin.Marshal()
}

// EmulationYearStat is one histogram bar of the paper's Figure 1.
type EmulationYearStat struct {
	Year     int
	Total    int
	Emulable int
}

// EmulationStudy reproduces the Section II-A experiment: it boots the
// 6,529-image synthetic population in a FIRMADYNE-like emulation model
// and reports per-release-year success counts (Figure 1).
func EmulationStudy() []EmulationYearStat {
	e := emul.New()
	var out []EmulationYearStat
	for _, st := range e.Study(corpus.Population()) {
		out = append(out, EmulationYearStat{Year: st.Year, Total: st.Total, Emulable: st.Success})
	}
	return out
}

// compile-time interface checks for internal plumbing this package relies
// on staying stable.
var _ symexec.Oracle = (*taint.Tracker)(nil)
