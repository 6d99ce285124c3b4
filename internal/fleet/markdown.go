package fleet

import (
	"fmt"
	"io"
	"sort"
)

// WriteMarkdown renders the report as a Markdown document: an overview of
// the analyzed binary, one section per vulnerability with all paths that
// reach it, and an appendix of sanitized flows. Suitable for filing with
// a vendor disclosure.
func (a *BinaryAnalysis) WriteMarkdown(w io.Writer) error {
	b := &printWriter{w: w}
	b.printf("# Taint analysis report: %s\n\n", a.Binary)
	b.printf("| | |\n|---|---|\n")
	b.printf("| Architecture | %s |\n", a.Arch)
	b.printf("| Functions | %d (%d analyzed) |\n", a.Functions, a.FunctionsAnalyzed)
	b.printf("| Basic blocks | %d |\n", a.Blocks)
	b.printf("| Call-graph edges | %d |\n", a.CallEdges)
	b.printf("| Sensitive sink sites | %d |\n", a.SinkCount)
	b.printf("| Indirect calls resolved | %d |\n", a.IndirectResolved)
	b.printf("| Symbolic analysis | %v |\n", a.SSATime)
	b.printf("| Data-flow generation | %v |\n\n", a.DDGTime)

	vulns := a.Vulnerabilities()
	paths := a.VulnerablePaths()
	b.printf("**%d vulnerabilities** over %d vulnerable paths.\n\n", len(vulns), len(paths))

	// Group the paths under their deduplicated vulnerability.
	for i, v := range vulns {
		b.printf("## %d. %s: %s → %s in `%s`\n\n", i+1, v.CWE, v.Source, v.Sink, v.SinkFunc)
		b.printf("- Class: %s\n", v.Class)
		b.printf("- Sink callsite: `%s` at `%#x`\n", v.Sink, v.SinkAddr)
		for _, ev := range v.Evidence {
			b.printf("- Evidence: %s\n", ev)
		}
		b.printf("\n")
		n, key := 0, v.Key()
		for _, p := range paths {
			if p.Key() == key {
				n++
				b.printf("Path %d (source `%s`):\n\n", n, p.Source)
				for _, step := range p.Path {
					b.printf("  - `%s`\n", step)
				}
				b.printf("\n")
			}
		}
	}

	// Sanitized flows, grouped per sink function, as an appendix.
	var sanitized []Finding
	for _, f := range a.Findings {
		if f.Sanitized {
			sanitized = append(sanitized, f)
		}
	}
	if len(sanitized) > 0 {
		sort.Slice(sanitized, func(i, j int) bool {
			if sanitized[i].SinkFunc != sanitized[j].SinkFunc {
				return sanitized[i].SinkFunc < sanitized[j].SinkFunc
			}
			return sanitized[i].SinkAddr < sanitized[j].SinkAddr
		})
		b.printf("## Appendix: sanitized flows (%d)\n\n", len(sanitized))
		b.printf("Tainted data reaching a sink behind a recognized check:\n\n")
		for _, f := range sanitized {
			b.printf("- %s → %s in `%s@%#x`\n", f.Source, f.Sink, f.SinkFunc, f.SinkAddr)
		}
		b.printf("\n")
	}
	return b.err
}

// printWriter streams formatted output and keeps the first write error,
// so the rendering code stays linear.
type printWriter struct {
	w   io.Writer
	err error
}

func (p *printWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}
