// Command benchmark is DTaint's end-to-end and per-layer benchmark. It
// runs one workload for a fixed time, checks every output against the
// corpus generator's ground truth, and prints one JSON result line:
//
//	bash benchmark/run.sh --workload study-cold --seed 1 --seconds 45 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json,
// measured without tracing. With --trace 1 it instead calls each layer's
// public entry points on the same inputs, records a span around every
// call, and reports the per-layer metrics. Spans are kept in memory and
// written to .bench_build/traces/ when the run ends. README.md in this
// directory describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Pinned environment: the benchmark runs on two CPUs, and every worker
// pool it configures (fleet scans, diffs, dtaintd) gets the same count,
// so a parent and a change are compared like for like.
const (
	gomaxprocs = 2
	workers    = 2
)

// runEnv is what a workload needs to know about the run.
type runEnv struct {
	root    string // checkout root
	work    string // per-run scratch directory under .bench_build
	dtaintd string // server binary built by run.sh
	seed    uint64
	seconds time.Duration
}

// outcome is one run's result before formatting.
type outcome struct {
	attempted int
	failed    int
	values    map[string]float64
	// exact holds counts that must repeat exactly from run to run on the
	// same inputs (see guard.go).
	exact map[string]int64
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, exact: map[string]int64{}}
}

// check records one operation: it fails when problems is non-empty, and
// every problem is printed with the operation it came from.
func (o *outcome) check(op string, problems []string) {
	o.attempted++
	if len(problems) == 0 {
		return
	}
	o.failed++
	for _, p := range problems {
		fmt.Printf("FAIL %s: %s\n", op, p)
	}
}

type workload struct {
	name   string
	run    func(*runEnv) (*outcome, error)
	traced func(*runEnv) (*outcome, error)
}

var workloads = []workload{
	{"study-cold", runStudy, traceStudy},
	{"release-diff", runDiff, traceDiff},
}

func main() {
	var (
		root    = flag.String("root", ".", "checkout root (holds BENCHMARK.json)")
		dtaintd = flag.String("dtaintd", "", "dtaintd binary, served in release-diff's traced run")
		name    = flag.String("workload", "", "workload: study-cold or release-diff")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 45, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if err := run(*root, *dtaintd, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(root, dtaintd, name string, seed uint64, seconds int, traced bool) error {
	runtime.GOMAXPROCS(gomaxprocs)
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", seconds)
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	env := &runEnv{root: root, work: work, dtaintd: dtaintd, seed: seed,
		seconds: time.Duration(seconds) * time.Second}

	tree, err := treeDigest(root)
	if err != nil {
		return err
	}
	record, _ := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"fleetWorkers": workers, "diffWorkers": workers, "dtaintdWorkers": workers,
		"go": runtime.Version(), "commit": tree,
	})
	fmt.Printf("env %s\n", record)

	fn, want := wl.run, spec.EndToEnd
	if traced {
		fn, want = wl.traced, spec.PerLayer
	}
	out, err := fn(env)
	if err != nil {
		return err
	}
	if err := guardExact(root, tree, name, seed, traced, out); err != nil {
		return err
	}
	return printResult(out, want, traced)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric by name with its unit, then the JSON
// result line. A metric of the spec that the workload did not produce
// is an error, so the output always matches BENCHMARK.json.
func printResult(out *outcome, want []specMetric, traced bool) error {
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, map[string]metricValue{}}
	for _, m := range want {
		v, ok := out.values[m.Name]
		if !ok {
			return fmt.Errorf("workload produced no value for metric %s", m.Name)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		line := fmt.Sprintf("%-28s %14.6g %-6s", m.Name, v, m.Unit)
		if traced {
			line += "  -> " + targets[m.Name]
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("fail_ratio %.4f (%d failed of %d attempted)\n",
		float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
