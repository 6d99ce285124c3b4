package fleet

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dtaint/internal/dataflow"
	"dtaint/internal/firmware"
	"dtaint/internal/obs/events"
)

// vulnSrcTemplate is vulnSrc with a parameterized function name, so a
// test can mint any number of byte-unique vulnerable binaries.
const vulnSrcTemplate = `
.arch arm
.import recv
.import strcpy

.func handler%d
  SUB SP, SP, #0x120
  MOV R0, #0
  ADD R1, SP, #0x20
  MOV R2, #0x100
  BL recv
  ADD R1, SP, #0x20
  ADD R0, SP, #0x8
  BL strcpy
  BX LR
.endfunc
`

// uniqueBinaryImage packs n byte-unique vulnerable executables, so no
// run-internal cache or dedup can make outcomes depend on scheduling.
func uniqueBinaryImage(t *testing.T, n int) []byte {
	t.Helper()
	bins := map[string][]byte{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("svc%d", i)
		bins["/usr/sbin/"+name] = mustAssemble(t, name, fmt.Sprintf(vulnSrcTemplate, i))
	}
	return testImage(t, bins)
}

// eventKeysAtWorkers scans img with a fresh journal observing the
// scan's spans at the given worker count and returns the sorted DetKey
// multiset.
func eventKeysAtWorkers(t *testing.T, img []byte, workers int) []string {
	t.Helper()
	j := events.NewJournal(0)
	tr := events.Observe(nil, events.Sinks{Journal: j, Job: "det"})
	_, err := ScanImage(context.Background(), img, Options{
		Workers:  workers,
		Analysis: dataflow.Options{Tracer: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	evs, dropped := j.Since(0)
	if dropped != 0 {
		t.Fatalf("journal dropped %d events; grow the test ring", dropped)
	}
	return events.DetKeys(evs)
}

// The determinism contract: the multiset of events — wall-clock fields
// excluded — is identical for any worker count.
func TestEventMultisetDeterministicAcrossWorkers(t *testing.T) {
	img := uniqueBinaryImage(t, 6)
	serial := eventKeysAtWorkers(t, img, 1)
	parallel := eventKeysAtWorkers(t, img, 8)
	if len(serial) == 0 {
		t.Fatal("serial scan journaled no events")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("event multiset differs between workers 1 (%d events) and 8 (%d events):\nserial:   %v\nparallel: %v",
			len(serial), len(parallel), diffKeys(serial, parallel), diffKeys(parallel, serial))
	}
}

// diffKeys returns the multiset difference a - b.
func diffKeys(a, b []string) []string {
	count := map[string]int{}
	for _, k := range b {
		count[k]++
	}
	var out []string
	for _, k := range a {
		if count[k] > 0 {
			count[k]--
			continue
		}
		out = append(out, k)
	}
	return out
}

// A hung analysis trips the stall watchdog: the binary reports
// StatusStalled (never an empty success), a stall event lands in the
// journal, and a diagnostic bundle is written to DebugDir.
func TestScanImageStallWatchdog(t *testing.T) {
	orig := analyze
	release, abandoned := make(chan struct{}), make(chan struct{})
	defer func() {
		// The abandoned analysis read the analyze hook when it started;
		// restore the hook only after it has returned.
		close(release)
		<-abandoned
		analyze = orig
	}()
	analyze = func(f firmware.File, o dataflow.Options) (*BinaryAnalysis, error) {
		if strings.HasSuffix(f.Path, "/webd") {
			defer close(abandoned)
			<-release // hang silently until the test tears down
		}
		return orig(f, o)
	}

	j := events.NewJournal(0)
	debugDir := t.TempDir()
	rep, err := ScanImage(context.Background(), twoBinaryImage(t), Options{
		StallTimeout: 100 * time.Millisecond,
		DebugDir:     debugDir,
		Analysis:     dataflow.Options{Tracer: events.Observe(nil, events.Sinks{Journal: j, Job: "stall-job"})},
	})
	if err != nil {
		t.Fatal(err)
	}

	var stalled []BinaryScan
	for _, b := range rep.Binaries {
		if b.Status == StatusStalled {
			stalled = append(stalled, b)
		}
	}
	if len(stalled) != 1 || rep.Stalled != 1 {
		t.Fatalf("stalled binaries = %d, rep.Stalled = %d, want 1/1", len(stalled), rep.Stalled)
	}
	if !strings.Contains(stalled[0].Error, "watchdog") {
		t.Fatalf("stalled binary error = %q, want a watchdog message", stalled[0].Error)
	}
	if stalled[0].Analysis != nil {
		t.Fatal("stalled binary carries an analysis result; must never look like success")
	}

	evs, _ := j.Since(0)
	var sawStall bool
	for _, ev := range evs {
		if ev.Type == events.TypeStall {
			sawStall = true
		}
	}
	if !sawStall {
		t.Fatal("no stall event journaled")
	}

	entries, err := os.ReadDir(debugDir)
	if err != nil {
		t.Fatal(err)
	}
	var bundle string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "stall-") {
			bundle = filepath.Join(debugDir, e.Name())
		}
	}
	if bundle == "" {
		t.Fatalf("no stall bundle under %s: %v", debugDir, entries)
	}
	for _, f := range []string{"goroutines.txt", "events.jsonl", "report.json"} {
		data, err := os.ReadFile(filepath.Join(bundle, f))
		if err != nil || len(data) == 0 {
			t.Fatalf("bundle file %s missing or empty: %v", f, err)
		}
	}
	partial, err := os.ReadFile(filepath.Join(bundle, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(partial), `"partial": true`) && !strings.Contains(string(partial), `"partial":true`) {
		t.Fatalf("bundle report.json not marked partial: %s", partial)
	}
}
