package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
)

// A traced image scan must record the scan-image root span, one
// scan-binary span per candidate (status attr included), and the full
// per-binary pipeline stages nested under them.
func TestScanImageSpans(t *testing.T) {
	img := twoBinaryImage(t)
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	opts := Options{Workers: 2}
	opts.Analysis.Tracer = events.Observe(tr, events.Sinks{Metrics: reg})

	rep, err := ScanImage(context.Background(), img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runtime.HeapAllocBytes == 0 || rep.Runtime.Goroutines == 0 {
		t.Fatalf("runtime snapshot missing: %+v", rep.Runtime)
	}

	byName := map[string]int{}
	var binaryStatuses []string
	for _, s := range tr.Spans() {
		byName[s.Name]++
		if s.Name == "scan-binary" {
			st, _ := s.Attr("status").(string)
			binaryStatuses = append(binaryStatuses, st)
		}
	}
	if byName["scan-image"] != 1 {
		t.Fatalf("scan-image spans = %d, want 1", byName["scan-image"])
	}
	if byName["scan-binary"] != rep.Candidates {
		t.Fatalf("scan-binary spans = %d, candidates = %d", byName["scan-binary"], rep.Candidates)
	}
	for _, st := range binaryStatuses {
		if st != string(StatusOK) {
			t.Fatalf("scan-binary status attr = %q", st)
		}
	}
	for _, stage := range []string{"unpack-firmware", "parse-image", "build-cfg",
		"function-analysis", "interproc-dataflow"} {
		if byName[stage] == 0 {
			t.Errorf("stage span %q missing (got %v)", stage, byName)
		}
	}

	// Fleet metrics: outcome counters and image total.
	counters := map[string]float64{}
	for _, s := range reg.Snapshot() {
		key := s.Name
		if s.Labels["status"] != "" {
			key += ":" + s.Labels["status"]
		}
		counters[key] = s.Value
	}
	if counters["dtaint_fleet_binaries_total:ok"] != float64(rep.Scanned) {
		t.Fatalf("fleet ok counter = %v, scanned = %d", counters["dtaint_fleet_binaries_total:ok"], rep.Scanned)
	}
	if counters["dtaint_fleet_images_total"] != 1 {
		t.Fatalf("fleet images counter = %v", counters["dtaint_fleet_images_total"])
	}
}

// Per-binary structured logs must carry the binary path and the image
// attrs, and a cached rescan's cache owner must publish a hit ratio
// gauge.
func TestScanImageLogsAndCacheRatio(t *testing.T) {
	img := twoBinaryImage(t)
	cache, err := NewCache(16, "")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	opts := Options{Workers: 1, Cache: cache}
	opts.Analysis.Tracer = events.Observe(nil, events.Sinks{
		Log: slog.New(slog.NewJSONHandler(&buf, nil)), Metrics: reg})

	for i := 0; i < 2; i++ { // second pass hits the cache
		if _, err := ScanImage(context.Background(), img, opts); err != nil {
			t.Fatal(err)
		}
	}

	sawBinaryLine, sawStageLine := false, false
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] != "stage done" {
			continue
		}
		switch rec["stage"] {
		case "scan-binary":
			if rec["path"] == nil || rec["image"] == nil || rec["sha"] == nil || rec["status"] == nil {
				t.Fatalf("scan-binary line lacks attrs: %v", rec)
			}
			sawBinaryLine = true
		case "parse-image":
			// A binary's stages inherit its scope down the span tree.
			if rec["binary"] == nil || rec["image"] == nil || rec["sha"] == nil {
				t.Fatalf("parse-image line lacks the binary's scope: %v", rec)
			}
			sawStageLine = true
		}
	}
	if !sawBinaryLine || !sawStageLine {
		t.Fatalf("scan-binary/parse-image stage done lines = %v/%v, want both", sawBinaryLine, sawStageLine)
	}

	cache.Stats().Publish(reg, "cache")

	var ratio float64 = -1
	for _, s := range reg.Snapshot() {
		if s.Name == "dtaint_cache_hit_ratio" {
			ratio = s.Value
		}
	}
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("cache hit ratio = %v, want in (0,1)", ratio)
	}
}

// One stream: for a fleet scan, every stage's span attrs, its stage.end
// event attrs, and its "stage done" log attrs are the same map, and
// every derived registry counter equals the sum of the span attrs it
// comes from.
func TestOneStreamAgreement(t *testing.T) {
	tr := obs.NewTracer()
	j := events.NewJournal(0)
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	opts := Options{Workers: 2}
	opts.Analysis.Tracer = events.Observe(tr, events.Sinks{Journal: j, Metrics: reg,
		Log: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	if _, err := ScanImage(context.Background(), twoBinaryImage(t), opts); err != nil {
		t.Fatal(err)
	}

	// norm maps attrs through JSON, the form all three surfaces share.
	norm := func(m map[string]any) string {
		if len(m) == 0 {
			return "{}"
		}
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	spans := tr.Spans()
	byID := map[uint64]obs.SpanRecord{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	pathOf := func(s obs.SpanRecord) string {
		for ; s.ID != 0; s = byID[s.Parent] {
			if p, _ := s.Attr("path").(string); p != "" && s.Name == "scan-binary" {
				return p
			}
		}
		return ""
	}
	fromSpans := map[string]string{}
	spanAttrs := map[string]map[string]any{}
	sums := map[string]int{}
	for _, s := range spans {
		attrs := map[string]any{}
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Value
			if n, ok := a.Value.(int); ok {
				sums[s.Name+"."+a.Key] += n
			}
		}
		sums[s.Name]++
		if s.Attr("replayed") == nil {
			sums[s.Name+".live"]++
		}
		switch s.Name {
		case "scan-binary", "ssa-function", "ddg-function", "scc-component":
			continue
		}
		fromSpans[s.Name+" "+pathOf(s)] = norm(attrs)
		spanAttrs[s.Name+" "+pathOf(s)] = attrs
	}

	fromEvents := map[string]string{}
	for _, ev := range j.Snapshot() {
		if ev.Type == events.TypeStageEnd {
			fromEvents[ev.Stage+" "+ev.Path] = norm(ev.Attrs)
		}
	}
	fromLog := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] != "stage done" || rec["stage"] == "scan-binary" {
			continue
		}
		key := fmt.Sprintf("%v %s", rec["stage"], rec["binary"])
		if rec["binary"] == nil {
			key = fmt.Sprintf("%v ", rec["stage"])
		}
		for _, k := range []string{"time", "level", "msg", "stage", "seconds", "image", "binary", "sha"} {
			// Inherited log context, unless the span carries the key itself.
			if _, own := spanAttrs[key][k]; !own {
				delete(rec, k)
			}
		}
		fromLog[key] = norm(rec)
	}
	if len(fromSpans) < 8 {
		t.Fatalf("only %d stage spans: %v", len(fromSpans), fromSpans)
	}
	for key, want := range fromSpans {
		if got := fromEvents[key]; got != want {
			t.Errorf("%s: stage.end attrs %s, span attrs %s", key, got, want)
		}
		if got := fromLog[key]; got != want {
			t.Errorf("%s: stage done log attrs %s, span attrs %s", key, got, want)
		}
	}
	if len(fromEvents) != len(fromSpans) || len(fromLog) != len(fromSpans) {
		t.Errorf("%d stage spans, %d stage.end events, %d stage done lines",
			len(fromSpans), len(fromEvents), len(fromLog))
	}

	got := map[string]int{}
	for _, m := range reg.Snapshot() {
		key := m.Name
		if s := m.Labels["status"]; s != "" {
			key += ":" + s
		}
		got[key] = int(m.Value)
		if m.Type == obs.TypeHistogram {
			got[key] = int(m.Count)
		}
	}
	for name, from := range map[string]string{
		"dtaint_functions_analyzed_total":    "interproc-dataflow.functions",
		"dtaint_defpairs_total":              "interproc-dataflow.defpairs",
		"dtaint_findings_total":              "interproc-dataflow.findings",
		"dtaint_truncated_functions_total":   "interproc-dataflow.truncated",
		"dtaint_alias_pairs_added_total":     "interproc-dataflow.alias_added",
		"dtaint_alias_pairs_dropped_total":   "interproc-dataflow.alias_dropped",
		"dtaint_fleet_images_total":          "scan-image",
		"dtaint_fleet_vulnerabilities_total": "scan-image.vulnerabilities",
		"dtaint_fleet_binaries_total:ok":     "scan-image.scanned",
		"dtaint_fn_ssa_seconds":              "ssa-function.live",
		"dtaint_fn_ddg_seconds":              "ddg-function.live",
	} {
		if got[name] != sums[from] {
			t.Errorf("%s = %d, span attrs %s sum to %d", name, got[name], from, sums[from])
		}
	}
	if sums["interproc-dataflow.findings"] == 0 || sums["scan-image.vulnerabilities"] == 0 {
		t.Fatalf("scan found nothing; the agreement check is vacuous: %v", sums)
	}
}
