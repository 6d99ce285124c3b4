package events

import (
	"fmt"
	"io"
)

// AttachPrinter subscribes the progress renderer behind `dtaint
// -progress`: one "dtaint: ..." line per renderable event, written to
// w. All state rides in the events themselves, so rendering is a
// stateless format; journal taps run under the append lock, so lines
// never interleave. Events already buffered are not replayed. It
// returns the tap remover.
func AttachPrinter(j *Journal, w io.Writer) (remove func()) {
	return j.OnEvent(func(ev ScanEvent) {
		if line := renderLine(ev); line != "" {
			fmt.Fprintln(w, line)
		}
	})
}

// unitOf names the progress unit per stage (the units the journal
// subscriber counts); stages absent here print unitless "done/total"
// counts.
var unitOf = map[string]string{
	"function-analysis":  "functions",
	"interproc-dataflow": "components",
	"binaries":           "binaries",
}

// renderLine formats one event as a progress line ("" to skip it).
func renderLine(ev ScanEvent) string {
	switch ev.Type {
	case TypeStageStart:
		if n, ok := attrInt(ev.Attrs["functions"]); ok && n > 0 {
			return fmt.Sprintf("dtaint: %s: %d functions", ev.Stage, n)
		}
		return fmt.Sprintf("dtaint: %s...", ev.Stage)
	case TypeStageEnd:
		return fmt.Sprintf("dtaint: %s done in %.2fs", ev.Stage, ev.Duration.Seconds())
	case TypeProgress:
		if ev.Total <= 0 {
			return ""
		}
		line := fmt.Sprintf("dtaint: %s: %d/%d", ev.Stage, ev.Done, ev.Total)
		if unit := unitOf[ev.Stage]; unit != "" {
			line += " " + unit
		}
		line += fmt.Sprintf(" (%d%%)", ev.Done*100/ev.Total)
		if ev.ETA > 0 {
			line += fmt.Sprintf(" eta %.0fs", ev.ETA.Seconds())
		}
		return line
	case TypeBinaryDone:
		status, _ := ev.Attrs["status"].(string)
		return fmt.Sprintf("dtaint: scanned %s (%s) in %.2fs", ev.Path, status, ev.Duration.Seconds())
	case TypeStall:
		line := fmt.Sprintf("dtaint: STALL: no span activity for %v", ev.Duration)
		if b, _ := ev.Attrs["bundle"].(string); b != "" {
			line += ", diagnostic bundle at " + b
		}
		return line
	case TypeJobDone:
		return fmt.Sprintf("dtaint: job %s done", ev.Job)
	case TypeJobFailed:
		return fmt.Sprintf("dtaint: job %s failed", ev.Job)
	}
	return ""
}

// attrInt widens whichever integer type an event attr carries (span
// attrs arrive as int/int64; JSON round-trips arrive as float64).
func attrInt(v any) (int, bool) {
	switch n := v.(type) {
	case int:
		return n, true
	case int64:
		return int(n), true
	case uint64:
		return int(n), true
	case float64:
		return int(n), true
	}
	return 0, false
}
