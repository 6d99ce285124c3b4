package dataflow_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/fleet"
	"dtaint/internal/image"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// victim is a DIR-645 function with callers, so a panic in it lands
// mid-schedule in both phases.
const victim = "cgi_pg_exec"

// panicIn returns a symbolic engine that panics on victim in one phase:
// phase 1 runs the engine against a bare taint tracker, the bottom-up
// pass against its interprocedural oracle.
func panicIn(phase1 bool) func(*cfg.Function, *image.Binary, symexec.Oracle, symexec.Options) *symexec.Summary {
	return func(fn *cfg.Function, bin *image.Binary, o symexec.Oracle, opts symexec.Options) *symexec.Summary {
		if _, bare := o.(*taint.Tracker); fn.Name == victim && bare == phase1 {
			panic("injected fault")
		}
		return symexec.Analyze(fn, bin, o, opts)
	}
}

// A panic in any unit of either phase — on the calling goroutine or a
// borrowed one — fails the analysis with an error naming the function,
// and a fleet scan reports that binary failed while the process lives.
func TestPanicInAnyUnitFailsTheAnalysis(t *testing.T) {
	spec, ok := corpus.SpecByProduct("DIR-645")
	if !ok {
		t.Fatal("DIR-645 spec missing")
	}
	bin, _, err := corpus.BuildBinary(spec, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	fw, _, err := corpus.BuildFirmware(spec, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := "panicked in " + victim
	for _, phase1 := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("phase1=%t/parallelism=%d", phase1, workers)
			restore := dataflow.SetExecute(panicIn(phase1))

			prog, err := cfg.Build(bin)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dataflow.Analyze(prog, dataflow.Options{Parallelism: workers}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: Analyze error = %v, want %q", name, err, want)
			}

			rep, err := fleet.ScanImage(context.Background(), fw,
				fleet.Options{Workers: 4, Analysis: dataflow.Options{Parallelism: workers}})
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 1 || len(rep.Binaries) != 1 {
				t.Fatalf("%s: %d of %d binaries failed, want the one", name, rep.Failed, len(rep.Binaries))
			}
			if b := rep.Binaries[0]; b.Status != fleet.StatusFailed || !strings.Contains(b.Error, want) {
				t.Errorf("%s: binary %s status %q error %q, want failed with %q", name, b.Path, b.Status, b.Error, want)
			}
		}
	}
}
