package dtaint

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

// A traced firmware analysis must record every pipeline stage — the
// acceptance bar is at least six distinct stage names in the exported
// Chrome trace — and the report must carry a runtime snapshot.
func TestTracerCapturesPipelineStages(t *testing.T) {
	fw, err := GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	var logBuf bytes.Buffer
	a := New(
		WithTracer(tr),
		WithLogger(slog.New(slog.NewJSONHandler(&logBuf, nil))),
	)
	if _, err := a.AnalyzeFirmware(fw, "/htdocs/cgibin"); err != nil {
		t.Fatal(err)
	}

	names := tr.SpanNames()
	for _, want := range []string{
		"unpack-firmware", "parse-image", "build-cfg",
		"function-analysis", "structsim", "interproc-dataflow",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("stage span %q missing (got %v)", want, names)
		}
	}
	if len(names) < 6 {
		t.Fatalf("only %d distinct span names: %v", len(names), names)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) < 6 {
		t.Fatalf("trace has %d events", len(trace.TraceEvents))
	}

	// Each stage must have logged a JSON "stage done" line.
	staged := map[string]bool{}
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] == "stage done" {
			if s, ok := rec["stage"].(string); ok {
				staged[s] = true
			}
		}
	}
	for _, want := range []string{"parse-image", "build-cfg", "function-analysis", "structsim", "interproc-dataflow"} {
		if !staged[want] {
			t.Errorf("no stage-done log line for %q (got %v)", want, staged)
		}
	}
}

// Metrics attached through the public API must populate per-function
// histograms and expose both formats.
func TestMetricsExposition(t *testing.T) {
	fw, err := GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	a := New(WithMetrics(m))
	if _, err := a.AnalyzeFirmware(fw, "/htdocs/cgibin"); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dtaint_fn_ssa_seconds_bucket", "dtaint_fn_ddg_seconds_bucket",
		"dtaint_fn_states_explored_bucket", "dtaint_functions_analyzed_total",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus exposition lacks %s", want)
		}
	}
	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("JSON exposition invalid: %v", err)
	}
	if len(doc.Metrics) == 0 {
		t.Fatal("JSON exposition empty")
	}
}
