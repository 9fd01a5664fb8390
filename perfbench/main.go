// Command perfbench is the repository's benchmark: it drives the
// simulator and the sweep service in-process through the public
// functions of their packages, times each workload end to end with
// tracing off, and in a separate traced run reports per-layer numbers.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload paper|scale|service --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics.
// Earlier lines record the environment and per-run details. Simulated
// results never change with host speed, so every workload checks its
// outputs byte for byte and a mismatch makes the run incorrect.
// README.md in this directory documents each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's reported numbers by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// outcome is what one workload run produces: the end-to-end metrics of
// the untraced measurement or the per-layer metrics of the traced one,
// the operation counts behind failed/attempted, and details that are
// printed but are not metrics (per-artifact times, the count guard).
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	problems  []string
	details   map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: metricSet{}, details: map[string]any{}}
}

// fail records a failed output check; the run is then not correct.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// correct says every output check passed and no operation failed.
func (o *outcome) correct() bool { return len(o.problems) == 0 && o.failed == 0 }

// config is what every workload receives: the generated inputs, the
// measurement length, whether this is the traced run, and where to read
// golden files and write scratch state.
type config struct {
	inputs  inputs
	seconds time.Duration
	traced  bool
	root    string // checkout root, holds results/
	work    string // private scratch directory, removed at exit
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"paper":   runPaper,
	"scale":   runScale,
	"service": runService,
}

func main() {
	name := flag.String("workload", "", "workload: paper, scale or service")
	seed := flag.Int64("seed", 1, "seed that generates the workload's inputs")
	seconds := flag.Int("seconds", 30, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload paper|scale|service, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if err := main1(run, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// main1 runs one workload from the repository root, the working
// directory.
func main1(run func(config) (*outcome, error), name string, seed int64, seconds int, traced bool) error {
	const root = "."
	if _, err := os.Stat(filepath.Join(root, "results")); err != nil {
		return fmt.Errorf("no results/ here: run from the repository root")
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	// A run creates and deletes thousands of files. Flushing them before
	// it exits, and whatever an earlier process left before it starts,
	// keeps one run's write-back and freed-block discards from slowing
	// the next run's file-system calls.
	syscall.Sync()
	defer func() {
		os.RemoveAll(work)
		syscall.Sync()
	}()

	host, _ := os.Hostname()
	printJSON(map[string]any{"env": map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"host": host, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(),
	}})
	out, err := run(config{
		inputs:  generate(seed),
		seconds: time.Duration(seconds) * time.Second,
		traced:  traced,
		root:    root,
		work:    work,
	})
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if len(out.details) > 0 {
		printJSON(map[string]any{"details": out.details})
	}
	printJSON(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{out.correct(), out.attempted, out.failed, out.metrics})
	return nil
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and numbers are printed
	}
	fmt.Println(string(b))
}
