package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"dtaint/internal/corpus"
	"dtaint/internal/fleet"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
)

// Fleet measures the fleet orchestrator over the six study firmware
// images: a cold pass that analyzes every binary, then a warm pass over
// the same images through a shared content-addressed cache. The second
// pass's wall-clock collapse is the measurement — an image re-scan after
// a vendor re-release touches only the binaries that changed. Each pass
// runs under a span tracer; the returned record carries the per-stage
// duration totals alongside the printed table.
func Fleet(w io.Writer, scale float64) (*FleetRecord, error) {
	fmt.Fprintln(w, "== Fleet: orchestrated image scans, cold vs cached ==")
	fmt.Fprintf(w, "(corpus scale %.2f; %d workers; shared cache across passes)\n",
		scale, Table7Workers())

	cache, err := fleet.NewCache(0, "")
	if err != nil {
		return nil, err
	}
	specs := corpus.StudyImages()
	images := make([][]byte, len(specs))
	for i, spec := range specs {
		fw, _, err := corpus.BuildFirmware(spec, scale)
		if err != nil {
			return nil, err
		}
		images[i] = fw
	}

	rec := &FleetRecord{Workers: Table7Workers()}
	fmt.Fprintln(w, "Pass    Firmware      Binaries  Scanned  Cached  Vulns  Paths  Wall(s)")
	for _, name := range []string{"cold", "warm"} {
		// Each pass carries a live event journal so the record captures
		// telemetry throughput alongside the scan timings.
		journal := events.NewJournal(0)
		tracer := events.Observe(obs.NewTracer(), events.Sinks{Journal: journal, Job: name})
		var reports []*fleet.ImageReport
		t0 := time.Now()
		for i, spec := range specs {
			opts := fleet.Options{
				Workers: Table7Workers(),
				Cache:   cache,
			}
			opts.Analysis.Tracer = tracer
			rep, err := fleet.ScanImage(context.Background(), images[i], opts)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "%-6s  %-12s  %8d  %7d  %6d  %5d  %5d  %7.3f\n",
				name, spec.Product, rep.Candidates, rep.Scanned, rep.Cached,
				rep.Vulnerabilities, rep.VulnerablePaths, rep.Wall.Seconds())
			reports = append(reports, rep)
		}
		wall := time.Since(t0)
		totals := fleet.MergeReports(reports)
		fmt.Fprintf(w, "%-6s  %-12s  %8d  %7d  %6d  %5d  %5d  %7.3f\n",
			name, "TOTAL", totals.Candidates, totals.Scanned, totals.Cached,
			totals.Vulnerabilities, totals.VulnerablePaths, wall.Seconds())
		stages := map[string]float64{}
		for _, s := range tracer.Spans() {
			stages[s.Name] += s.Duration.Seconds()
		}
		js := journal.Stats()
		pass := FleetPass{
			Name:             name,
			Images:           len(specs),
			Candidates:       totals.Candidates,
			Scanned:          totals.Scanned,
			Cached:           totals.Cached,
			Failed:           totals.Failed,
			Skipped:          totals.Skipped,
			Vulnerabilities:  totals.Vulnerabilities,
			VulnerablePaths:  totals.VulnerablePaths,
			WallSeconds:      wall.Seconds(),
			StageSeconds:     stages,
			Events:           js.Appended,
			JournalHighWater: js.HighWater,
		}
		if s := wall.Seconds(); s > 0 {
			pass.EventsPerSec = float64(js.Appended) / s
		}
		fmt.Fprintf(w, "%-6s  telemetry: %d events (%.0f/s), journal high-water %d/%d\n",
			name, js.Appended, pass.EventsPerSec, js.HighWater, js.Capacity)
		rec.Passes = append(rec.Passes, pass)
	}
	st := cache.Stats()
	fmt.Fprintf(w, "cache: %d entries, %d hits, %d misses, %d evictions\n\n",
		st.Entries, st.Hits, st.Misses, st.Evictions)
	rec.Cache = FleetCacheRecord{
		Entries:   st.Entries,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
	}
	if st.Hits+st.Misses > 0 {
		rec.Cache.HitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	return rec, nil
}
