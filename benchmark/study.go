package main

import (
	"context"
	"fmt"
	"maps"
	"time"

	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/fleet"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// study-cold: the six study images at scale 0.25, each scanned as a
// whole rootfs with every function and no module filter (the path of
// `dtaint -rootfs-all`), in-process through fleet.ScanImage with no
// cache, no summary store and no tracer. One operation is one pass over
// the six images. The images are fixed by the paper's specs, so the seed
// does not change them.

const studyScale = 0.25

// cliAnalysis is the analysis configuration of the dtaint CLI
// (dtaint.New): the paper's loop-once heuristic, one worker per binary.
func cliAnalysis() dataflow.Options {
	return dataflow.Options{Parallelism: 1, Symexec: symexec.Options{LoopOnce: true}}
}

type studyInputs struct {
	specs   []corpus.Spec
	images  [][]byte
	planted [][]corpus.Planted
}

func buildStudy() (*studyInputs, error) {
	in := &studyInputs{specs: corpus.StudyImages()}
	for _, spec := range in.specs {
		fw, planted, err := corpus.BuildFirmware(spec, studyScale)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", spec.Product, err)
		}
		in.images = append(in.images, fw)
		in.planted = append(in.planted, planted)
	}
	return in, nil
}

// setupStudy builds the inputs n times and returns them with the median
// set-up time.
func setupStudy(n int) (*studyInputs, float64, error) {
	var in *studyInputs
	var times []float64
	for range n {
		t0 := time.Now()
		var err error
		if in, err = buildStudy(); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, median(times), nil
}

// studyPass scans the six images once, as `dtaint -rootfs-all` does.
func studyPass(in *studyInputs) ([]*fleet.ImageReport, error) {
	reps := make([]*fleet.ImageReport, len(in.images))
	for i, img := range in.images {
		rep, err := fleet.ScanImage(context.Background(), img, fleet.Options{
			Workers:  workers,
			Analysis: cliAnalysis(),
		})
		if err != nil {
			return nil, fmt.Errorf("scan %s: %w", in.specs[i].Product, err)
		}
		reps[i] = rep
	}
	return reps, nil
}

// checkStudy compares a pass with the planted ground truth: every image
// has exactly its planted vulnerabilities, over the planted number of
// paths, each at its planted sink. It also returns the pass's exact
// counts.
func checkStudy(in *studyInputs, reps []*fleet.ImageReport) ([]string, map[string]int64) {
	var problems []string
	counts := map[string]int64{}
	for i, rep := range reps {
		product, planted := in.specs[i].Product, in.planted[i]
		if n := rep.Failed + rep.Stalled + rep.Skipped; n > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d binaries failed, stalled or skipped", product, n))
		}
		var found []fleet.Finding
		for _, b := range rep.Binaries {
			if b.Analysis == nil {
				continue
			}
			found = append(found, b.Analysis.Findings...)
			counts[product+".defpairs"] += int64(b.Analysis.DefPairs)
			counts[product+".components"] += int64(b.Analysis.SCCComponents)
			counts[product+".findings"] += int64(len(b.Analysis.Findings))
			counts[product+".sinks"] += int64(b.Analysis.SinkCount)
		}
		counts[product+".vulns"] = int64(rep.Vulnerabilities)
		counts[product+".paths"] = int64(rep.VulnerablePaths)
		problems = append(problems, plantedProblems(product, planted, rep.Vulnerabilities, rep.VulnerablePaths, sinksOf(found))...)
	}
	return problems, counts
}

// sinksOf returns the (function, sink) pairs of unsanitized findings.
func sinksOf(fs []fleet.Finding) map[[2]string]bool {
	out := map[[2]string]bool{}
	for _, f := range fs {
		if !f.Sanitized {
			out[[2]string{f.SinkFunc, f.Sink}] = true
		}
	}
	return out
}

func plantedProblems(product string, planted []corpus.Planted, vulns, paths int, sinks map[[2]string]bool) []string {
	var problems []string
	if want := corpus.ExpectedVulns(planted); vulns != want {
		problems = append(problems, fmt.Sprintf("%s: %d vulnerabilities, %d planted", product, vulns, want))
	}
	if want := corpus.ExpectedPaths(planted); paths != want {
		problems = append(problems, fmt.Sprintf("%s: %d vulnerable paths, %d planted", product, paths, want))
	}
	for _, p := range planted {
		if !sinks[[2]string{p.SinkFunc, p.Sink}] {
			problems = append(problems, fmt.Sprintf("%s: planted %s (%s in %s) not found", product, p.ID, p.Sink, p.SinkFunc))
		}
	}
	return problems
}

func runStudy(env *runEnv) (*outcome, error) {
	in, setup, err := setupStudy(5)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var walls, cpus, allocs []float64
	start := time.Now()
	for pass := 0; pass < 3 || time.Since(start) < env.seconds; pass++ {
		settle()
		c0, r0, t0 := cpuSeconds(), readRuntime(), time.Now()
		reps, err := studyPass(in)
		if err != nil {
			return nil, err
		}
		walls = append(walls, ms(time.Since(t0)))
		cpus = append(cpus, cpuSeconds()-c0)
		allocs = append(allocs, float64(readRuntime().allocBytes-r0.allocBytes)/(1<<20))
		problems, counts := checkStudy(in, reps)
		if pass == 0 {
			out.exact = counts
		} else {
			problems = append(problems, sameCounts(out.exact, counts)...)
		}
		out.check(fmt.Sprintf("pass %d", pass), problems)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Printf("study-cold: %d passes over %d images; scan_s (median pass) %.3f; passes (ms) %.0f\n",
		len(walls), len(in.images), median(walls)/1e3, walls)
	out.values = map[string]float64{
		"setup_s":     setup,
		"op_ms":       median(walls),
		"cpu_s":       median(cpus),
		"alloc_mb":    median(allocs),
		"peak_rss_mb": rss,
	}
	return out, nil
}

// traceStudy runs one untraced pass as the reference, then walks the same
// images through the layers with spans. The pipeline spans (unpack,
// parse, CFG, dataflow) account for the untraced pass; the remainder is
// reported as unattributed.
func traceStudy(env *runEnv) (*outcome, error) {
	in, err := buildStudy()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	settle()
	t0 := time.Now()
	reps, err := studyPass(in)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	problems, _ := checkStudy(in, reps)
	out.check("untraced pass", problems)

	settle()
	sp := newSpans()
	w := newLayerWalk(sp, cliAnalysis())
	root := sp.begin(-1, "pass")
	for i, img := range in.images {
		id := sp.begin(root, "image")
		files, err := w.unpack(id, img)
		if err != nil {
			return nil, err
		}
		vulns, paths := 0, 0
		sinks := map[[2]string]bool{}
		for _, f := range files {
			res, err := w.binary(id, f)
			if err != nil {
				return nil, err
			}
			vulns += len(res.Vulnerabilities())
			paths += len(res.VulnerablePaths())
			maps.Copy(sinks, sinksOfTaint(res.Findings))
		}
		if err := w.encodeReport(id, reps[i]); err != nil {
			return nil, err
		}
		sp.end(id)
		out.check("traced "+in.specs[i].Product,
			plantedProblems(in.specs[i].Product, in.planted[i], vulns, paths, sinks))
	}
	traced := sp.end(root)
	w.layerMetrics(out)

	var bins []float64
	failed := 0
	for _, rep := range reps {
		failed += rep.Failed + rep.Stalled
		for _, b := range rep.Binaries {
			bins = append(bins, float64(b.Duration))
		}
	}
	v := out.values
	v["fleet.binary_p50_ms"] = median(bins) / 1e6
	v["fleet.binary_max_s"] = maxOf(bins) / 1e9
	v["fleet.binaries_failed"] = float64(failed)
	// No cache, no store, no server: those layers are bypassed.
	zero(out, "fleet.cache_hit_ratio", "fleet.cache_misses",
		"sumstore.hits", "sumstore.misses", "sumstore.hit_ratio", "sumstore.evictions")
	zeroServe(out)
	zeroDiff(out)

	self := sp.selfTimes()
	pipeline := self["firmware.Unpack"] + self["image.Parse"] + self["cfg.Build"] + self["dataflow.Analyze"]
	v["trace.unattributed_ms"] = ms(untraced - pipeline)
	v["trace.overhead_ms"] = ms(traced - untraced)
	sp.printSelfTimes()
	dfOther := self["dataflow.Analyze"] - w.phase1 - w.bottomUp
	fmt.Printf("scan accounting: untraced pass %.1f ms = unpack %.1f + parse %.1f + cfg %.1f"+
		" + dataflow %.1f (phase-1 %.1f, bottom-up %.1f, other %.1f) + unattributed %.1f ms\n",
		ms(untraced), ms(self["firmware.Unpack"]), ms(self["image.Parse"]), ms(self["cfg.Build"]),
		ms(self["dataflow.Analyze"]), ms(w.phase1), ms(w.bottomUp), ms(dfOther), ms(untraced-pipeline))
	fmt.Printf("tracing overhead: traced pass %.1f ms vs untraced %.1f ms\n", ms(traced), ms(untraced))
	return out, sp.write(env.root, fmt.Sprintf("study-cold-seed-%d", env.seed))
}

func sinksOfTaint(fs []taint.Finding) map[[2]string]bool {
	out := map[[2]string]bool{}
	for _, f := range fs {
		if !f.Sanitized {
			out[[2]string{f.SinkFunc, f.Sink}] = true
		}
	}
	return out
}
