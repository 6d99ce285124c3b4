package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads:
// the metric lists it must report.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	for _, m := range s.PerLayer {
		if targets[m.Name] == "" {
			return nil, fmt.Errorf("per-layer metric %s has no target end-to-end metric", m.Name)
		}
	}
	return &s, nil
}

// targets names, for every per-layer metric, the end-to-end metric it
// should move and the workload where that shows. It is printed beside
// each traced value.
var targets = map[string]string{
	"firmware.unpack_ms": "negligible share of op_ms on study-cold and release-diff",
	"image.parse_ms":     "negligible share of op_ms on study-cold and release-diff",

	"cfg.build_ms": "op_ms on study-cold and release-diff",
	"cfg.blocks":   "op_ms on study-cold and release-diff (work count)",

	"symexec.busy_s":    "op_ms, cpu_s, alloc_mb on study-cold",
	"symexec.states":    "op_ms, cpu_s on study-cold (exact count)",
	"symexec.truncated": "op_ms on study-cold (exact count)",
	"symexec.fn_p50_us": "op_ms on study-cold",
	"symexec.fn_max_ms": "op_ms on study-cold",
	"symexec.alloc_mb":  "alloc_mb, cpu_s on study-cold",

	"alias.rewrite_ms":       "op_ms on study-cold",
	"alias.pairs_added":      "op_ms on study-cold (exact count)",
	"alias.pairs_dropped":    "op_ms on study-cold (exact count)",
	"alias.intern_hit_ratio": "op_ms on study-cold",

	"dataflow.phase1_s":           "op_ms, cpu_s on study-cold; op_ms on release-diff",
	"dataflow.bottomup_s":         "op_ms, cpu_s on study-cold; op_ms on release-diff",
	"dataflow.components":         "op_ms on study-cold (exact count)",
	"dataflow.critical_path":      "op_ms on study-cold: bounds what extra workers can save",
	"dataflow.defpairs":           "op_ms, alloc_mb on study-cold (exact count)",
	"dataflow.resolved_sse":       "op_ms on study-cold (exact count)",
	"dataflow.resolved_structsim": "op_ms on study-cold (exact count)",

	"taint.findings":   "correctness: exact count, checked against ground truth",
	"taint.vuln_paths": "correctness: exact count, checked against ground truth",
	"taint.sinks":      "correctness: exact count",

	"sumstore.hits":      "op_ms on release-diff; study-cold bypasses the store",
	"sumstore.misses":    "op_ms on release-diff",
	"sumstore.hit_ratio": "op_ms on release-diff, where the default 4096-entry store is exceeded",
	"sumstore.evictions": "op_ms on release-diff: the hit-rate cliff of the default store size",
	"sumstore.encode_us": "op_ms on release-diff",
	"sumstore.decode_us": "op_ms on release-diff",

	"fleet.cache_hit_ratio": "op_ms on release-diff (unchanged binaries replay)",
	"fleet.cache_misses":    "op_ms on release-diff",
	"fleet.binary_p50_ms":   "op_ms on study-cold and release-diff",
	"fleet.binary_max_s":    "op_ms on study-cold: the slowest image sets the pass",
	"fleet.binaries_failed": "correctness: must stay 0",

	"diff.pair_ms":           "op_ms on release-diff",
	"diff.units_replayed":    "op_ms on release-diff (exact count)",
	"diff.units_reanalyzed":  "op_ms on release-diff (exact count)",
	"diff.skip_ratio":        "op_ms on release-diff",
	"diff.summary_hit_ratio": "op_ms on release-diff",

	"events.appended":       "no end-to-end metric: served jobs are measured only in release-diff's traced run",
	"events.per_job":        "no end-to-end metric: served jobs are measured only in release-diff's traced run",
	"events.high_water":     "no end-to-end metric: served jobs are measured only in release-diff's traced run",
	"events.dropped_frames": "no end-to-end metric: a stream opened without Last-Event-ID after the ring wrapped reports other jobs' events as dropped",

	"dtaintd.accept_ms":      "no end-to-end metric: served jobs are measured only in release-diff's traced run",
	"dtaintd.queue_wait_ms":  "no end-to-end metric: served jobs are measured only in release-diff's traced run",
	"dtaintd.run_ms":         "no end-to-end metric: served jobs are measured only in release-diff's traced run",
	"dtaintd.report_ms":      "no end-to-end metric: served jobs are measured only in release-diff's traced run",
	"dtaintd.report_kb":      "no end-to-end metric: served jobs are measured only in release-diff's traced run",
	"dtaintd.refused":        "correctness: must stay 0",
	"dtaintd.report_retries": "report fetches answered 409 after job.done: must become 0",

	"report.encode_ms": "negligible share of op_ms on study-cold and release-diff",
	"report.kb":        "negligible share of op_ms on study-cold and release-diff",

	"gc.cycles": "cpu_s, op_ms on study-cold",
	"gc.cpu_s":  "cpu_s, op_ms on study-cold",

	"trace.overhead_ms":     "tracing cost: traced minus untraced operation time",
	"trace.unattributed_ms": "op_ms on study-cold not covered by the layer spans",
}

// treeDigest identifies the code under test: a SHA-256 over every file
// of the checkout outside dot-directories. The checkout is not a git
// repository, so this stands in for the commit.
func treeDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("digest checkout: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16], nil
}
