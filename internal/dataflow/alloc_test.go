package dataflow

import (
	"runtime"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
)

// maxStudyMallocs caps the heap allocations of one sequential analysis of
// DIR-645's cgibin at scale 0.25 (the binary corpus.BuildFirmware packs).
// The count is deterministic up to map-growth noise, so it guards the
// bottom-up pass's allocation cuts without timing anything. Measured with
// go1.24 on linux/amd64 (go test -run StudyBinaryMallocCeiling -v prints
// the count): 83,411-83,417 mallocs over three runs, against 114,710
// before pending sinks were deduplicated ahead of instantiation; the
// ceiling sits about 10% above the current count. Re-measure and lower it
// when an allocation cut lands; never raise it to absorb a regression.
const maxStudyMallocs = 92_000

func TestStudyBinaryMallocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation counts")
	}
	spec, ok := corpus.SpecByProduct("DIR-645")
	if !ok {
		t.Fatal("no DIR-645 spec")
	}
	bin, _, err := corpus.BuildBinary(spec, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Parallelism = 1

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Analyze(prog, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("analysis found nothing; the measured workload is not the intended one")
	}
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("Analyze(DIR-645 cgibin, scale 0.25, 1 worker): %d mallocs, ceiling %d", mallocs, maxStudyMallocs)
	if mallocs > maxStudyMallocs {
		t.Fatalf("Analyze made %d mallocs, over the ceiling of %d", mallocs, maxStudyMallocs)
	}
}
