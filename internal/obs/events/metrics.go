package events

import "dtaint/internal/obs"

// counterSpec derives one counter from a count attr of a finished stage
// span. An empty attr counts the span itself. Labeled series are only
// created for non-zero counts, so an outcome that never happened adds
// no series.
type counterSpec struct {
	attr, name, help string
	status           string // the series' "status" label ("" = none)
}

// stageCounters lists the counters derived from each stage span's
// counts.
var stageCounters = map[string][]counterSpec{
	"interproc-dataflow": {
		{"functions", "dtaint_functions_analyzed_total", "Functions analyzed by the interprocedural pass.", ""},
		{"defpairs", "dtaint_defpairs_total", "Definition pairs in generated data flows.", ""},
		{"findings", "dtaint_findings_total", "Source-to-sink findings, sanitized included.", ""},
		{"truncated", "dtaint_truncated_functions_total", "Functions that hit the symbolic state cap.", ""},
		{"alias_added", "dtaint_alias_pairs_added_total", "Alias pairs synthesized by the rewrite pass.", ""},
		{"alias_dropped", "dtaint_alias_pairs_dropped_total", "Synthesized alias pairs discarded past the rewrite budget.", ""},
	},
	"scan-image": {
		{"", "dtaint_fleet_images_total", "Firmware images scanned by the fleet orchestrator.", ""},
		{"vulnerabilities", "dtaint_fleet_vulnerabilities_total", "Deduplicated vulnerabilities found by fleet scans.", ""},
		{"scanned", "dtaint_fleet_binaries_total", "Binaries scanned by the fleet orchestrator, by outcome.", "ok"},
		{"cached", "dtaint_fleet_binaries_total", "Binaries scanned by the fleet orchestrator, by outcome.", "cached"},
		{"failed", "dtaint_fleet_binaries_total", "Binaries scanned by the fleet orchestrator, by outcome.", "failed"},
		{"stalled", "dtaint_fleet_binaries_total", "Binaries scanned by the fleet orchestrator, by outcome.", "stalled"},
		{"skipped", "dtaint_fleet_binaries_total", "Binaries scanned by the fleet orchestrator, by outcome.", "skipped"},
	},
	"diff-images": {
		{"", "dtaint_diff_images_total", "Firmware image pairs diffed.", ""},
		{"replayed", "dtaint_diff_binaries_replayed_total", "Distinct binaries a diff served from the report cache.", ""},
		{"reanalyzed", "dtaint_diff_binaries_reanalyzed_total", "Distinct binaries a diff analyzed fresh.", ""},
		{"new", "dtaint_diff_findings_total", "Findings classified by differential scans, by cross-version status.", "new"},
		{"fixed", "dtaint_diff_findings_total", "Findings classified by differential scans, by cross-version status.", "fixed"},
		{"persisting", "dtaint_diff_findings_total", "Findings classified by differential scans, by cross-version status.", "persisting"},
	},
}

// fnHistograms names each per-function span's time histogram; the
// phase stage that parents the spans names it too, so the series exist
// even when every function replayed from a summary store.
var fnHistograms = map[string][2]string{
	"ssa-function":       {"dtaint_fn_ssa_seconds", "Per-function symbolic analysis time (phase 1)."},
	"function-analysis":  {"dtaint_fn_ssa_seconds", "Per-function symbolic analysis time (phase 1)."},
	"ddg-function":       {"dtaint_fn_ddg_seconds", "Per-function interprocedural data-flow time (phase 3+4)."},
	"interproc-dataflow": {"dtaint_fn_ddg_seconds", "Per-function interprocedural data-flow time (phase 3+4)."},
}

// recordMetrics derives the registry series from one finished span:
// the per-function time and states-explored histograms from the
// per-function spans a run analyzed live, and the stage counters from
// the counts their stage spans carry.
func recordMetrics(reg *obs.Registry, rec obs.SpanRecord) {
	if h, ok := fnHistograms[rec.Name]; ok {
		secs := reg.Histogram(h[0], h[1], obs.DefTimeBuckets, nil)
		states := reg.Histogram("dtaint_fn_states_explored",
			"Symbolic states explored per function.", obs.ExpBuckets(1, 4, 8), nil)
		if n, ok := attrInt(rec.Attr("states")); ok && rec.Attr("replayed") == nil {
			secs.Observe(rec.Duration.Seconds())
			states.Observe(float64(n))
		}
	}
	for _, c := range stageCounters[rec.Name] {
		n := 1
		if c.attr != "" {
			n, _ = attrInt(rec.Attr(c.attr))
		}
		if c.status == "" {
			reg.Counter(c.name, c.help, nil).Add(uint64(n))
		} else if n > 0 {
			reg.Counter(c.name, c.help, obs.Labels{"status": c.status}).Add(uint64(n))
		}
	}
}
