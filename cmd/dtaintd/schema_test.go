package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"dtaint"
	"dtaint/internal/corpus"
	"dtaint/internal/fleet"
	"dtaint/internal/obs/events"
	"dtaint/internal/schematest"
)

// fetchReport GETs a finished job's report body, failing on any status
// but 200.
func fetchReport(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report of %s = %d (%s), want 200", id, resp.StatusCode, body)
	}
	return body
}

// TestServedReportsMatchSchema: the scan and diff report endpoints
// serve the wire types of testdata/report_schema.golden.
func TestServedReportsMatchSchema(t *testing.T) {
	vp, err := corpus.BuildVersionPair(corpus.VersionPairSpec{
		Binaries: 2, Mutated: 1, SharedFuncs: 8, TailFuncs: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startTestServer(t, config{})
	id := postScan(t, ts, vp.Old)
	waitDone(t, ts, id)
	schematest.Check(t, "GET /v1/jobs/{id}/report (scan)", "image", fetchReport(t, ts, id))

	resp := postDiff(t, ts, vp.Old, vp.New)
	defer resp.Body.Close()
	var ack struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, ack.ID)
	schematest.Check(t, "GET /v1/jobs/{id}/report (diff)", "diff", fetchReport(t, ts, ack.ID))
}

// TestServedReportMatchesCLI: a server configured from its flags
// analyzes with the CLI's defaults, so for a study image the served
// report's per-binary analyses equal what dtaint -rootfs-all -json
// prints (dtaint.New().ScanFirmwareFleet, encoded) once run-cost fields
// are ignored, every finding's evidence equals a single-binary
// AnalyzeFirmware run's, and the CLI replays the server's persistent
// cache entries instead of re-analyzing.
func TestServedReportMatchesCLI(t *testing.T) {
	cacheDir := t.TempDir()
	cfg, err := serveOptions{cacheDir: cacheDir, logLevel: "error", logFormat: "text"}.config()
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startTestServer(t, cfg)
	fw := testFirmware(t)
	id := postScan(t, ts, fw)
	waitDone(t, ts, id)
	var served fleet.ImageReport
	if err := json.Unmarshal(fetchReport(t, ts, id), &served); err != nil {
		t.Fatal(err)
	}

	a := dtaint.New()
	img, err := a.ScanFirmwareFleet(context.Background(), fw)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	var cli fleet.ImageReport
	if err := json.Unmarshal(blob, &cli); err != nil {
		t.Fatal(err)
	}

	if served.Vulnerabilities != cli.Vulnerabilities || served.VulnerablePaths != cli.VulnerablePaths ||
		!reflect.DeepEqual(served.FindingsByClass, cli.FindingsByClass) {
		t.Fatalf("served totals %d/%d %v, CLI %d/%d %v", served.Vulnerabilities, served.VulnerablePaths,
			served.FindingsByClass, cli.Vulnerabilities, cli.VulnerablePaths, cli.FindingsByClass)
	}
	if len(served.Binaries) != len(cli.Binaries) || len(cli.Binaries) == 0 {
		t.Fatalf("served %d binaries, CLI %d", len(served.Binaries), len(cli.Binaries))
	}
	withoutCost := func(an *fleet.BinaryAnalysis) fleet.BinaryAnalysis {
		out := *an
		out.SSATime, out.DDGTime = 0, 0
		out.SummaryHits, out.SummaryMisses = 0, 0
		return out
	}
	for i, sb := range served.Binaries {
		cb := cli.Binaries[i]
		if sb.Path != cb.Path || sb.SHA256 != cb.SHA256 || sb.Analysis == nil || cb.Analysis == nil {
			t.Fatalf("binary %d: served %s (%s), CLI %s (%s)", i, sb.Path, sb.Status, cb.Path, cb.Status)
		}
		if got, want := withoutCost(sb.Analysis), withoutCost(cb.Analysis); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: served analysis differs from the CLI's:\n got %+v\nwant %+v", sb.Path, got, want)
		}
		single, err := a.AnalyzeFirmware(fw, sb.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sb.Analysis.Findings, single.Findings) {
			t.Fatalf("%s: served findings differ from AnalyzeFirmware (evidence included):\n got %+v\nwant %+v",
				sb.Path, sb.Analysis.Findings, single.Findings)
		}
	}

	shared, err := dtaint.NewFleetCache(0, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := a.ScanFirmwareFleet(context.Background(), fw, dtaint.WithFleetCache(shared))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cached != warm.Candidates {
		t.Fatalf("CLI scan replayed %d of %d binaries from the server's cache, want all", warm.Cached, warm.Candidates)
	}
}

// TestReportReadyAtJobDone: the report is stored before job.done is
// journaled, so a client fetching it the moment the event arrives never
// sees 409. A synchronous journal tap fetches each report at exactly
// that moment, over many small (cache-served) jobs.
func TestReportReadyAtJobDone(t *testing.T) {
	cache, err := fleet.NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	journal := events.NewJournal(0)
	s, ts := startTestServer(t, config{queueCap: 64, cache: cache, journal: journal})
	var mu sync.Mutex
	status := map[string]int{}
	remove := journal.OnEvent(func(ev events.ScanEvent) {
		if ev.Type != events.TypeJobDone {
			return
		}
		rec := httptest.NewRecorder()
		s.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+ev.Job+"/report", nil))
		mu.Lock()
		status[ev.Job] = rec.Code
		mu.Unlock()
	})
	defer remove()

	fw := testFirmware(t)
	var ids []string
	for i := 0; i < 40; i++ {
		ids = append(ids, postScan(t, ts, fw))
	}
	for _, id := range ids {
		waitDone(t, ts, id)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		if status[id] != http.StatusOK {
			t.Fatalf("job %s: report fetched at job.done answered %d, want 200", id, status[id])
		}
	}
}
