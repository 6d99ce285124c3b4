package diff

import (
	"fmt"
	"io"
	"strings"
)

// WriteMarkdown renders the differential report as a Markdown document:
// the two image identities, the pairing and cost summary, one table row
// per binary that changed hands, and the new findings first — the part a
// CI gate acts on before anything else.
func (r *Report) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Firmware diff: %s %s %s → %s\n\n",
		r.New.Vendor, r.New.Product, r.Old.Version, r.New.Version)
	fmt.Fprintf(&b, "| | Old | New |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| Version | %s | %s |\n", r.Old.Version, r.New.Version)
	fmt.Fprintf(&b, "| Image SHA-256 | `%.12s…` | `%.12s…` |\n", r.Old.SHA256, r.New.SHA256)
	fmt.Fprintf(&b, "| Candidate binaries | %d | %d |\n\n", r.Old.Candidates, r.New.Candidates)

	fmt.Fprintf(&b, "**Pairing:** %d unchanged, %d changed, %d added, %d removed, %d moved.\n",
		r.Unchanged, r.Changed, r.Added, r.Removed, r.Moved)
	fmt.Fprintf(&b, "**Cost:** %d replayed from cache, %d re-analyzed", r.Replayed, r.Reanalyzed)
	if r.SummaryHitRate > 0 {
		fmt.Fprintf(&b, " (function-summary hit rate %.0f%%)", 100*r.SummaryHitRate)
	}
	fmt.Fprintf(&b, "; wall %v over %d workers.\n", r.Wall, r.Workers)
	if r.Failed > 0 {
		fmt.Fprintf(&b, "**%d binary pair(s) failed to analyze.**\n", r.Failed)
	}
	if r.Stalled > 0 {
		fmt.Fprintf(&b, "**%d binary(ies) stalled: the watchdog abandoned their analysis, so this diff is incomplete.**\n", r.Stalled)
	}
	fmt.Fprintf(&b, "\n**Findings:** %d new, %d fixed, %d persisting.\n\n",
		r.NewFindings, r.FixedFindings, r.PersistingFindings)

	// New findings first: this is the section a gate acts on.
	writeGroup := func(title string, status FindingStatus) {
		type row struct {
			bin string
			fd  FindingDiff
		}
		var rows []row
		for _, bd := range r.Binaries {
			for _, fd := range bd.Findings {
				if fd.Status == status {
					rows = append(rows, row{bd.Path, fd})
				}
			}
		}
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(&b, "## %s (%d)\n\n", title, len(rows))
		fmt.Fprintf(&b, "| Binary | Class | Flow | Location | Paths |\n|---|---|---|---|---|\n")
		for _, rw := range rows {
			f := rw.fd.Finding
			loc := fmt.Sprintf("`%s@%#x`", f.SinkFunc, f.SinkAddr)
			if rw.fd.OldFunc != "" {
				loc += fmt.Sprintf(" (was `%s`)", rw.fd.OldFunc)
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s → %s | %s | %d |\n",
				rw.bin, f.Class, f.Source, f.Sink, loc, rw.fd.Paths)
		}
		fmt.Fprintf(&b, "\n")
	}
	writeGroup("New findings", FindingNew)
	writeGroup("Fixed findings", FindingFixed)
	writeGroup("Persisting findings", FindingPersisting)

	// Per-binary appendix: only pairs that differ or erred; unchanged
	// pairs would dominate the table without informing the reader.
	var interesting []BinaryDiff
	for _, bd := range r.Binaries {
		if bd.Status != PairUnchanged || bd.Error != "" {
			interesting = append(interesting, bd)
		}
	}
	if len(interesting) > 0 {
		fmt.Fprintf(&b, "## Binary pairs\n\n")
		fmt.Fprintf(&b, "| Binary | Status | Funcs paired | Summary hits | New | Fixed | Error |\n|---|---|---|---|---|---|---|\n")
		for _, bd := range interesting {
			name := bd.Path
			if bd.OldPath != "" {
				name = bd.OldPath + " → " + bd.Path
			}
			paired := ""
			if bd.FuncsTotal > 0 {
				paired = fmt.Sprintf("%d/%d exact (%d renamed), %d similar",
					bd.FuncsExact, bd.FuncsTotal, bd.FuncsRenamed, bd.FuncsSimilar)
			}
			hits := ""
			if bd.SummaryHits+bd.SummaryMisses > 0 {
				hits = fmt.Sprintf("%d/%d", bd.SummaryHits, bd.SummaryHits+bd.SummaryMisses)
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %d | %d | %s |\n",
				name, bd.Status, paired, hits, bd.New, bd.Fixed, bd.Error)
		}
		fmt.Fprintf(&b, "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
