package dtaint_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"dtaint"
	"dtaint/internal/corpus"
	"dtaint/internal/taint"
)

func vulnKeys(findings []dtaint.Finding) []string {
	var keys []string
	for _, f := range findings {
		keys = append(keys, taint.VulnKey(f.SinkFunc, f.Sink, f.SinkAddr, string(f.Class)))
	}
	sort.Strings(keys)
	return keys
}

// TestScanFirmwareFleetMatchesAnalyzeFirmware is the end-to-end
// equivalence guarantee: the fleet orchestrator's per-binary findings
// are exactly what a single-binary AnalyzeFirmware run produces.
func TestScanFirmwareFleetMatchesAnalyzeFirmware(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	a := dtaint.New()
	img, err := a.ScanFirmwareFleet(context.Background(), fw)
	if err != nil {
		t.Fatal(err)
	}
	if img.Product != "DIR-645" || img.Vendor == "" {
		t.Fatalf("image identity = %s %s, want D-Link DIR-645", img.Vendor, img.Product)
	}
	if img.Candidates != 1 || img.Scanned != 1 || img.Failed != 0 {
		t.Fatalf("candidates/scanned/failed = %d/%d/%d, want 1/1/0",
			img.Candidates, img.Scanned, img.Failed)
	}
	single, err := a.AnalyzeFirmware(fw, img.Binaries[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	fleetRep := img.Binaries[0].Analysis
	if fleetRep == nil {
		t.Fatal("fleet scan returned no per-binary report")
	}
	got := vulnKeys(fleetRep.Vulnerabilities())
	want := vulnKeys(single.Vulnerabilities())
	if len(want) == 0 {
		t.Fatal("study image produced no vulnerabilities")
	}
	if len(got) != len(want) {
		t.Fatalf("fleet found %d vulnerabilities, single-binary run found %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("vuln key mismatch at %d: %q vs %q", i, got[i], want[i])
		}
	}
	if img.Vulnerabilities != len(want) || img.VulnerablePaths != len(single.VulnerablePaths()) {
		t.Fatalf("image totals %d/%d, want %d/%d", img.Vulnerabilities, img.VulnerablePaths,
			len(want), len(single.VulnerablePaths()))
	}
}

func TestScanFirmwareFleetCache(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DGN1000", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := dtaint.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	a := dtaint.New(dtaint.WithCache(cache))
	first, err := a.ScanFirmwareFleet(context.Background(), fw)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached != 0 || first.Scanned != 1 {
		t.Fatalf("first scan cached/scanned = %d/%d, want 0/1", first.Cached, first.Scanned)
	}
	second, err := a.ScanFirmwareFleet(context.Background(), fw)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached != 1 || second.Scanned != 0 {
		t.Fatalf("second scan cached/scanned = %d/%d, want 1/0", second.Cached, second.Scanned)
	}
	if second.Cache.Hits == 0 {
		t.Fatal("second scan reported no cache hits")
	}
	if second.Vulnerabilities != first.Vulnerabilities {
		t.Fatalf("cached scan changed totals: %d vs %d", second.Vulnerabilities, first.Vulnerabilities)
	}
	if st, _ := cache.Stats(); st.Entries == 0 || st.Hits == 0 {
		t.Fatalf("cache stats empty: %+v", st)
	}
}

func TestScanFirmwareFleetProgressAndPathFilter(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var last, total int
	img, err := dtaint.New(dtaint.WithWorkers(2)).ScanFirmwareFleet(context.Background(), fw,
		dtaint.WithFleetProgress(func(d, t int) { last, total = d, t }))
	if err != nil {
		t.Fatal(err)
	}
	if last != img.Candidates || total != img.Candidates {
		t.Fatalf("progress ended at %d/%d, want %d/%d", last, total, img.Candidates, img.Candidates)
	}
	none, err := dtaint.New().ScanFirmwareFleet(context.Background(), fw,
		dtaint.WithFleetPathFilter(func(string) bool { return false }))
	if err != nil {
		t.Fatal(err)
	}
	if none.Candidates != 0 || len(none.Binaries) != 0 {
		t.Fatalf("path filter ignored: %d candidates", none.Candidates)
	}
}

// TestScanFirmwareCorpus exercises the corpus entry point over an
// overlap corpus: duplicate binaries collapse onto the report cache and
// shared-module functions collapse onto the summary store.
func TestScanFirmwareCorpus(t *testing.T) {
	c, err := corpus.BuildOverlapCorpus(corpus.OverlapSpec{
		Images: 4, Variants: 2, SharedFuncs: 10, UniqueFuncs: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := dtaint.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	a := dtaint.New(dtaint.WithCache(cache))
	rep, err := a.ScanFirmwareCorpus(context.Background(), c.Images)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Images) != 4 {
		t.Fatalf("got %d image reports", len(rep.Images))
	}
	if rep.UniqueBinaries != 2 || rep.DuplicateBinaries != 2 {
		t.Fatalf("unique/duplicate = %d/%d, want 2/2", rep.UniqueBinaries, rep.DuplicateBinaries)
	}
	if rep.Cache.Hits == 0 {
		t.Fatal("duplicate images produced no report-cache hits")
	}
	// Variant 1 shares its module with variant 0, so its analysis must
	// hit the summary store even though its binary is new.
	if rep.SummaryStore.Hits == 0 || rep.SummaryStore.Misses == 0 {
		t.Fatalf("summary store hits/misses = %d/%d, want both > 0",
			rep.SummaryStore.Hits, rep.SummaryStore.Misses)
	}
	for i, ir := range rep.Images {
		if ir.Vulnerabilities != rep.Images[0].Vulnerabilities {
			t.Fatalf("image %d vulnerabilities %d != image 0's %d",
				i, ir.Vulnerabilities, rep.Images[0].Vulnerabilities)
		}
	}
}

// TestWithSummaryStoreSingleBinary checks the single-binary Analyzer
// surface: a second analysis of the same bytes through the same store
// replays without re-executing, with identical findings.
func TestWithSummaryStoreSingleBinary(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := dtaint.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	plain := dtaint.New()
	want, err := plain.AnalyzeFirmware(fw, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	a := dtaint.New(dtaint.WithCache(cache))
	first, err := a.AnalyzeFirmware(fw, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	_, st := cache.Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cold run should populate the store: %+v", st)
	}
	second, err := a.AnalyzeFirmware(fw, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	if _, warm := cache.Stats(); warm.Hits == st.Hits {
		t.Fatal("warm run had no store hits")
	}
	w := vulnKeys(want.Findings)
	for run, rep := range map[string]*dtaint.Report{"cold": first, "warm": second} {
		got := vulnKeys(rep.Findings)
		if len(got) != len(w) {
			t.Fatalf("%s run: %d findings, store-off baseline has %d", run, len(got), len(w))
		}
		for i := range got {
			if got[i] != w[i] {
				t.Fatalf("%s run finding %d = %s, want %s", run, i, got[i], w[i])
			}
		}
	}
}

// TestFindingEvidenceSurvivesEveryPath: a finding's evidence — the
// constraint/interval chain behind its verdict — is part of the one
// report schema, so a cold fleet scan and a scan replayed from a fresh
// process's on-disk cache carry exactly the findings, evidence
// included, of a single-binary AnalyzeFirmware run.
func TestFindingEvidenceSurvivesEveryPath(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	a := dtaint.New()
	single, err := a.AnalyzeFirmware(fw, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	withEvidence := 0
	for _, f := range single.Findings {
		if len(f.Evidence) > 0 {
			withEvidence++
		}
	}
	if withEvidence == 0 {
		t.Fatal("single-binary run produced no evidence to compare")
	}

	dir := t.TempDir()
	scan := func(run string, want dtaint.BinaryStatus) *dtaint.Report {
		t.Helper()
		// A new cache per run: the replay must come from the disk tier,
		// as it would in a new process.
		cache, err := dtaint.NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		img, err := dtaint.New(dtaint.WithCache(cache)).ScanFirmwareFleet(context.Background(), fw)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range img.Binaries {
			if b.Path == "/htdocs/cgibin" && b.Status == want {
				return b.Analysis
			}
		}
		t.Fatalf("%s scan has no %s analysis of /htdocs/cgibin", run, want)
		return nil
	}
	cold := scan("cold", dtaint.BinaryOK)
	replayed := scan("replayed", dtaint.BinaryCached)
	for run, rep := range map[string]*dtaint.Report{"cold": cold, "replayed": replayed} {
		if !reflect.DeepEqual(rep.Findings, single.Findings) {
			t.Fatalf("%s fleet scan findings differ from AnalyzeFirmware:\n got %+v\nwant %+v",
				run, rep.Findings, single.Findings)
		}
	}
}
