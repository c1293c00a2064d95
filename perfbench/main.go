// Command perfbench is the repository's benchmark: it builds the coupled
// model through core.NewWithOptions and the ensemble through ensemble.Run,
// measures each workload from outside by timing calls into the layers'
// public functions, checks the outputs, and prints one JSON result line.
//
//	perfbench --workload coupled-1r --seed 1 --seconds 30 --trace 0 [--spec BENCHMARK.json] [--work DIR] [--git-rev REV]
//
// With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
// with --trace 1 the per-layer metrics of a separate traced run. The line
// before the result is a record with the host facts, the checks and the
// sample counts behind each figure. README.md in this directory documents
// every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// hostFacts is what every record carries about the machine and the build.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Seed       int64  `json:"seed"`
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	metrics   map[string]float64
	checks    []check
	attempted int
	failed    int
	notes     map[string]any // sample counts and secondary figures for the record
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// run options shared by every workload.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	work    string // this run's own scratch directory for restart sets, inside the checkout
	gitRev  string
	scale   scale
}

// scale is the size of a run's work. The benchmark always runs fullScale;
// the smoke tests shrink it to run every workload in a few steps.
type scale struct {
	lapSteps int     // timed steps per lap; 0 times every step to the end of the simulated day
	members  int     // ensemble members
	hours    float64 // simulated hours per member
	minReps  int     // ensembles timed at least, so the reported rate is a median
}

var fullScale = scale{members: 4, hours: 3, minReps: 3}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark specification")
	work := flag.String("work", ".bench_work", "directory in which each run makes, and then removes, its own scratch directory for restart sets")
	rev := flag.String("git-rev", "unknown", "source revision, recorded with the host facts")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, gitRev: *rev, scale: fullScale}
	if err := run(*workload, *specPath, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload, specPath string, o runOpts) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if !sp.hasWorkload(workload) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	host := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     o.gitRev,
		Seed:       o.seed,
	}
	load, err := workloadLoad(workload)
	if err != nil {
		return err
	}
	if load > host.NProc || host.GOMAXPROCS > host.NProc {
		return fmt.Errorf("workload %s needs %d processors (ranks × workers) and GOMAXPROCS=%d; the machine has %d",
			workload, load, host.GOMAXPROCS, host.NProc)
	}
	if o.work, err = runDir(o.work); err != nil {
		return fmt.Errorf("creating work directory: %w", err)
	}
	defer os.RemoveAll(o.work)

	var out *outcome
	switch workload {
	case "ensemble-ckpt":
		out, err = runEnsemble(o)
	default:
		out, err = runCoupled(coupledWorkloads[workload], o)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	want := sp.metrics(o.trace)
	if err := validateMetrics(want, out.metrics); err != nil {
		return fmt.Errorf("%s: invalid record: %w", workload, err)
	}

	res := result{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	for _, m := range want {
		res.Metrics[m.Name] = metricOut{Value: out.metrics[m.Name], Unit: m.Unit}
	}
	record := map[string]any{
		"workload": workload,
		"trace":    o.trace,
		"seconds":  o.seconds,
		"host":     host,
		"checks":   out.checks,
		"notes":    out.notes,
	}
	for _, c := range out.checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	if err := printJSON(map[string]any{"record": record}); err != nil {
		return err
	}
	return printJSON(res)
}

// runDir makes a fresh directory of the run's own under parent, creating
// parent if needed. The run removes only that directory when it ends, so
// whatever parent already holds is left alone.
func runDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding output: %w", err)
	}
	_, err = fmt.Println(string(b))
	return err
}
