package dtaint_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dtaint"
	"dtaint/internal/corpus"
)

// TestScanFirmwareDiff runs the public diff entry point over a vendor
// re-release pair: a warm fleet scan of the old version, then a diff,
// checking the delta-proportional cost and the ground-truth finding
// classification end to end.
func TestScanFirmwareDiff(t *testing.T) {
	vp, err := corpus.BuildVersionPair(corpus.VersionPairSpec{
		Binaries: 3, Mutated: 1, SharedFuncs: 10, TailFuncs: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := dtaint.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	a := dtaint.New(dtaint.WithCache(cache), dtaint.WithWorkers(2))
	// Nightly flow: the old version was already fleet-scanned through the
	// same cache.
	if _, err := a.ScanFirmwareFleet(context.Background(), vp.Old); err != nil {
		t.Fatal(err)
	}
	rep, err := a.ScanFirmwareDiff(context.Background(), vp.Old, vp.New)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Old.Version != "1.0.0" || rep.New.Version != "1.0.1" {
		t.Fatalf("versions %s → %s, want 1.0.0 → 1.0.1", rep.Old.Version, rep.New.Version)
	}
	// Only the mutated binary's new version and the added binary are
	// fresh work; everything else replays.
	if want := vp.Spec.Mutated + 1; rep.Reanalyzed != want {
		t.Fatalf("Reanalyzed = %d, want %d", rep.Reanalyzed, want)
	}
	if rep.Failed != 0 {
		t.Fatalf("Failed = %d: %+v", rep.Failed, rep.Binaries)
	}
	if rep.NewFindings != vp.NewVulns || rep.FixedFindings != vp.FixedVulns ||
		rep.PersistingFindings != vp.PersistingVulns {
		t.Fatalf("findings new/fixed/persisting = %d/%d/%d, want %d/%d/%d",
			rep.NewFindings, rep.FixedFindings, rep.PersistingFindings,
			vp.NewVulns, vp.FixedVulns, vp.PersistingVulns)
	}
	if rep.SummaryHitRate == 0 {
		t.Fatal("SummaryHitRate = 0: changed binary did not replay old-version summaries")
	}
	if rep.Cache.Hits == 0 {
		t.Fatal("cache stats empty after a warmed diff")
	}
}

// TestScanFirmwareDiffIdentical diffs an image against itself: nothing
// may be re-analyzed and nothing may classify as new or fixed.
func TestScanFirmwareDiffIdentical(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := dtaint.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	a := dtaint.New(dtaint.WithCache(cache), dtaint.WithWorkers(2))
	if _, err := a.ScanFirmwareFleet(context.Background(), fw); err != nil {
		t.Fatal(err)
	}
	rep, err := a.ScanFirmwareDiff(context.Background(), fw, fw)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reanalyzed != 0 {
		t.Fatalf("Reanalyzed = %d, want 0 (all replayed)", rep.Reanalyzed)
	}
	if rep.NewFindings != 0 || rep.FixedFindings != 0 {
		t.Fatalf("new/fixed = %d/%d, want 0/0", rep.NewFindings, rep.FixedFindings)
	}
	if rep.Unchanged == 0 || rep.Changed+rep.Added+rep.Removed+rep.Moved != 0 {
		t.Fatalf("pairing %d/%d/%d/%d/%d, want all unchanged", rep.Unchanged,
			rep.Changed, rep.Added, rep.Removed, rep.Moved)
	}
}

// TestDiffReportJSONRoundTripPublic: the public DiffReport survives a
// marshal/unmarshal cycle unchanged — the dtaintd and CLI wire format.
func TestDiffReportJSONRoundTripPublic(t *testing.T) {
	vp, err := corpus.BuildVersionPair(corpus.VersionPairSpec{
		Binaries: 2, Mutated: 1, SharedFuncs: 8, TailFuncs: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dtaint.New(dtaint.WithWorkers(1)).ScanFirmwareDiff(context.Background(), vp.Old, vp.New)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back dtaint.DiffReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Fatalf("round trip diverged:\n  in:  %+v\n  out: %+v", rep, &back)
	}
	var buf bytes.Buffer
	if err := rep.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	md := buf.String()
	for _, want := range []string{"# Firmware diff:", "New findings", "Binary pairs"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}
