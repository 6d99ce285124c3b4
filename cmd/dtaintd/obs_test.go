package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dtaint"
	"dtaint/internal/obs"
)

// /v1/metrics must content-negotiate: Prometheus scrapers (Accept:
// text/plain) get text exposition, everyone else the JSON view.
func TestMetricsContentNegotiation(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := config{metrics: reg}
	_, ts := startTestServer(t, cfg)

	id := postScan(t, ts, testFirmware(t))
	waitDone(t, ts, id)

	// Prometheus text form.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE dtaintd_jobs_accepted_total counter",
		"dtaintd_jobs_accepted_total 1",
		"dtaintd_jobs_done_total 1",
		"# TYPE dtaintd_queue_depth gauge",
		"dtaint_fn_ssa_seconds_bucket{le=",
		"dtaint_fleet_binaries_total{status=\"ok\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition lacks %q:\n%s", want, text)
		}
	}

	// JSON form keeps the legacy keys and gains the counters + registry.
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var m metricsView
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs == nil || m.QueueCap == 0 {
		t.Fatalf("legacy fields missing: %+v", m)
	}
	if m.JobsAccepted != 1 || m.JobsStarted != 1 || m.JobsDone != 1 || m.JobsFailed != 0 {
		t.Fatalf("counters = accepted %d started %d done %d failed %d",
			m.JobsAccepted, m.JobsStarted, m.JobsDone, m.JobsFailed)
	}
	if len(m.Metrics) == 0 {
		t.Fatal("registry snapshot missing from JSON view")
	}
}

// The lifetime counters must be monotonic and mutually consistent in
// every single response: done+failed can never exceed started, and
// started can never exceed accepted.
func TestMetricsSnapshotConsistent(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := config{metrics: reg}
	_, ts := startTestServer(t, cfg)
	fw := testFirmware(t)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/metrics")
			if err != nil {
				return
			}
			var m metricsView
			if json.NewDecoder(resp.Body).Decode(&m) == nil {
				if m.JobsDone+m.JobsFailed > m.JobsStarted || m.JobsStarted > m.JobsAccepted {
					t.Errorf("inconsistent snapshot: %+v", m)
				}
			}
			resp.Body.Close()
		}
	}()
	for i := 0; i < 3; i++ {
		waitDone(t, ts, postScan(t, ts, fw))
	}
	close(stop)
	<-done
}

// Without a registry the handler behaves exactly as with one — obs
// handles are nil-safe, so there is no availability branch: a
// text/plain client gets a valid (empty) Prometheus exposition and a
// JSON client gets the legacy view with no registry snapshot.
func TestMetricsWithoutRegistry(t *testing.T) {
	_, ts := startTestServer(t, config{})
	req, _ := http.NewRequest("GET", ts.URL+"/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	if len(body) != 0 {
		t.Fatalf("nil registry must expose zero series, got %q", body)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsView
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("JSON view: %v", err)
	}
	if len(m.Metrics) != 0 {
		t.Fatalf("nil registry produced a snapshot: %+v", m.Metrics)
	}
}

// TestCacheMetricsParity: after one fleet scan with a cache attached,
// the library's registry and dtaintd's /v1/metrics expose the same
// report-cache and summary-store series, from the one Stats.Publish.
func TestCacheMetricsParity(t *testing.T) {
	fw := testFirmware(t)
	tierSeries := func(exposition string) []string {
		var names []string
		for _, line := range strings.Split(exposition, "\n") {
			name, ok := strings.CutPrefix(line, "# TYPE ")
			name, _, _ = strings.Cut(name, " ")
			if ok && (strings.HasPrefix(name, "dtaint_cache_") || strings.HasPrefix(name, "dtaint_sumstore_")) {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		return names
	}

	cache, err := dtaint.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	m := dtaint.NewMetrics()
	if _, err := dtaint.New(dtaint.WithCache(cache), dtaint.WithMetrics(m)).
		ScanFirmwareFleet(context.Background(), fw); err != nil {
		t.Fatal(err)
	}
	var lib strings.Builder
	if err := m.WritePrometheus(&lib); err != nil {
		t.Fatal(err)
	}

	cfg, err := serveOptions{logLevel: "error", logFormat: "text"}.config()
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startTestServer(t, cfg)
	waitDone(t, ts, postScan(t, ts, fw))
	req, _ := http.NewRequest("GET", ts.URL+"/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	var want []string
	for _, tier := range []string{"cache", "sumstore"} {
		for _, series := range []string{"disk_hits_total", "entries", "evictions_total", "hit_ratio", "hits_total", "misses_total"} {
			want = append(want, "dtaint_"+tier+"_"+series)
		}
	}
	if got := tierSeries(lib.String()); !reflect.DeepEqual(got, want) {
		t.Errorf("library series = %v, want %v", got, want)
	}
	if got := tierSeries(string(served)); !reflect.DeepEqual(got, want) {
		t.Errorf("dtaintd series = %v, want %v", got, want)
	}
}

// The pprof side listener serves the standard profile index. The
// handlers live on http.DefaultServeMux via the blank net/http/pprof
// import; this exercises the same mux run() serves on -pprof-addr.
func TestPprofMux(t *testing.T) {
	ts := httptest.NewServer(http.DefaultServeMux)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}
