package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"dtaint/internal/alias"
	"dtaint/internal/cfg"
	"dtaint/internal/dataflow"
	"dtaint/internal/firmware"
	"dtaint/internal/image"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// layerWalk drives binaries through each layer's public entry points
// with a span around every call, and sums the counts each layer
// returns. It is the traced run's view of the analysis core.
type layerWalk struct {
	sp   *spans
	opts dataflow.Options // the analysis configuration of the workload

	blocks       int
	states       int
	truncated    int
	symAlloc     uint64
	aliasAdded   int
	aliasDropped int
	internHits   int
	internMisses int
	phase1       time.Duration
	bottomUp     time.Duration
	components   int
	criticalPath int
	defPairs     int
	bySSE        int
	byStructSim  int
	findings     int
	vulnPaths    int
	sinks        int
	reportKB     []float64
	gcBefore     runtimeSample
}

func newLayerWalk(sp *spans, opts dataflow.Options) *layerWalk {
	return &layerWalk{sp: sp, opts: opts, gcBefore: readRuntime()}
}

// unpack unpacks a firmware container and returns its FWELF candidates
// in rootfs path order.
func (w *layerWalk) unpack(parent int, data []byte) ([]firmware.File, error) {
	var fs *firmware.FS
	var err error
	w.sp.do(parent, "firmware.Unpack", func() { _, fs, err = firmware.Unpack(data) })
	if err != nil {
		return nil, fmt.Errorf("unpack: %w", err)
	}
	var out []firmware.File
	for _, f := range fs.Files {
		if bytes.HasPrefix(f.Data, image.Magic[:]) {
			out = append(out, f)
		}
	}
	return out, nil
}

// binary walks one executable. First the observer calls, which expose
// what dataflow.Analyze does internally: a CFG, phase-1 symbolic
// execution of every function with a scratch taint tracker, alias
// rewriting of each summary's definition pairs, and a summary-store
// encode/decode round trip of each summary. Then the pipeline proper,
// the same calls fleet.ScanImage makes: a fresh CFG and
// dataflow.Analyze.
func (w *layerWalk) binary(parent int, f firmware.File) (*dataflow.Result, error) {
	id := w.sp.begin(parent, "binary")
	defer w.sp.end(id)
	var bin *image.Binary
	var err error
	w.sp.do(id, "image.Parse", func() { bin, err = image.Parse(f.Data) })
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", f.Path, err)
	}

	var obsProg *cfg.Program
	w.sp.do(id, "cfg.Build.observer", func() { obsProg, err = cfg.Build(bin) })
	if err != nil {
		return nil, fmt.Errorf("cfg %s: %w", f.Path, err)
	}
	names := make([]string, 0, len(obsProg.Funcs))
	for _, fn := range obsProg.Funcs {
		names = append(names, fn.Name)
	}
	sort.Strings(names)
	scratch := taint.NewTracker()
	scratch.SetBinary(bin)
	sopts := w.opts.Symexec
	sopts.Prototypes = taint.PrototypesFor(nil)
	sums := make([]*symexec.Summary, len(names))
	before := readRuntime()
	for i, name := range names {
		scratch.BeginFunction(name)
		w.sp.do(id, "symexec.Analyze", func() {
			sums[i] = symexec.Analyze(obsProg.ByName[name], obsProg.Binary, scratch, sopts)
		})
		w.states += sums[i].StatesExplored
		if sums[i].Truncated {
			w.truncated++
		}
	}
	w.symAlloc += readRuntime().allocBytes - before.allocBytes
	for _, sum := range sums {
		var st alias.Stats
		w.sp.do(id, "alias.RewriteSSE", func() { _, st = alias.RewriteSSE(sum.DefPairs, sum.Types) })
		w.aliasAdded += st.Added
		w.aliasDropped += st.Dropped
		w.internHits += int(st.Intern.Hits)
		w.internMisses += int(st.Intern.Misses)
	}
	for _, sum := range sums {
		var blob []byte
		w.sp.do(id, "sumstore.EncodeSummary", func() { blob = sumstore.EncodeSummary(sum) })
		w.sp.do(id, "sumstore.DecodeSummary", func() { _, err = sumstore.DecodeSummary(blob) })
		if err != nil {
			return nil, fmt.Errorf("summary round trip %s: %w", sum.Func, err)
		}
	}

	var prog *cfg.Program
	w.sp.do(id, "cfg.Build", func() { prog, err = cfg.Build(bin) })
	if err != nil {
		return nil, fmt.Errorf("cfg %s: %w", f.Path, err)
	}
	var res *dataflow.Result
	w.sp.do(id, "dataflow.Analyze", func() {
		res, err = dataflow.Analyze(prog, w.opts)
	})
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", f.Path, err)
	}
	w.blocks += prog.Stats().Blocks
	w.phase1 += res.SSATime
	w.bottomUp += res.DDGTime
	w.components += res.Parallel.Components
	w.criticalPath += res.Parallel.CriticalPath
	w.defPairs += res.DefPairCount
	w.bySSE += res.Resolve.BySSE
	w.byStructSim += res.Resolve.ByStructSim
	w.findings += len(res.Findings)
	w.vulnPaths += len(res.VulnerablePaths())
	w.sinks += res.SinkCount
	return res, nil
}

// encodeReport times the JSON encoding of a report as dtaintd serves it.
func (w *layerWalk) encodeReport(parent int, rep any) error {
	var buf bytes.Buffer
	var err error
	w.sp.do(parent, "report.Encode", func() {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
	})
	w.reportKB = append(w.reportKB, float64(buf.Len())/1024)
	return err
}

// layerMetrics fills the analysis-core and encoding metrics from the
// walk's spans and counts, and records the exact counts.
func (w *layerWalk) layerMetrics(out *outcome) {
	gcEnd := readRuntime()
	self := w.sp.selfTimes()
	v := out.values
	v["firmware.unpack_ms"] = ms(self["firmware.Unpack"])
	v["image.parse_ms"] = ms(self["image.Parse"])
	v["cfg.build_ms"] = ms(self["cfg.Build"])
	v["cfg.blocks"] = float64(w.blocks)

	fn := w.sp.durations("symexec.Analyze")
	v["symexec.busy_s"] = self["symexec.Analyze"].Seconds()
	v["symexec.states"] = float64(w.states)
	v["symexec.truncated"] = float64(w.truncated)
	v["symexec.fn_p50_us"] = median(fn) / 1e3
	v["symexec.fn_max_ms"] = maxOf(fn) / 1e6
	v["symexec.alloc_mb"] = float64(w.symAlloc) / (1 << 20)

	v["alias.rewrite_ms"] = ms(self["alias.RewriteSSE"])
	v["alias.pairs_added"] = float64(w.aliasAdded)
	v["alias.pairs_dropped"] = float64(w.aliasDropped)
	v["alias.intern_hit_ratio"] = ratio(w.internHits, w.internHits+w.internMisses)

	v["dataflow.phase1_s"] = w.phase1.Seconds()
	v["dataflow.bottomup_s"] = w.bottomUp.Seconds()
	v["dataflow.components"] = float64(w.components)
	v["dataflow.critical_path"] = float64(w.criticalPath)
	v["dataflow.defpairs"] = float64(w.defPairs)
	v["dataflow.resolved_sse"] = float64(w.bySSE)
	v["dataflow.resolved_structsim"] = float64(w.byStructSim)

	v["taint.findings"] = float64(w.findings)
	v["taint.vuln_paths"] = float64(w.vulnPaths)
	v["taint.sinks"] = float64(w.sinks)

	v["sumstore.encode_us"] = median(w.sp.durations("sumstore.EncodeSummary")) / 1e3
	v["sumstore.decode_us"] = median(w.sp.durations("sumstore.DecodeSummary")) / 1e3
	v["report.encode_ms"] = median(w.sp.durations("report.Encode")) / 1e6
	v["report.kb"] = median(w.reportKB)

	v["gc.cycles"] = float64(gcEnd.gcCycles - w.gcBefore.gcCycles)
	v["gc.cpu_s"] = gcEnd.gcCPU - w.gcBefore.gcCPU

	for _, name := range []string{"cfg.blocks", "symexec.states", "symexec.truncated",
		"alias.pairs_added", "alias.pairs_dropped", "dataflow.components",
		"dataflow.critical_path", "dataflow.defpairs", "dataflow.resolved_sse",
		"dataflow.resolved_structsim", "taint.findings", "taint.vuln_paths", "taint.sinks"} {
		out.exact[name] = int64(v[name])
	}
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// zero sets metrics of layers the workload bypasses, so every traced run
// reports the full per-layer list; the printed table marks them.
func zero(out *outcome, names ...string) {
	for _, n := range names {
		out.values[n] = 0
	}
}
