package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"multicore/internal/affinity"
	"multicore/internal/experiments"
	"multicore/internal/machine"
	"multicore/internal/report"
	"multicore/internal/workload"
)

// The paper and scale workloads regenerate registered artifacts serially
// at quick scale, each on a fresh experiments.Runner at Parallelism 1,
// in passes until the measurement time is used up. Every rendered
// artifact is compared with its expected bytes.

// setupReps is how many times a run sets its system up, each time from
// a collected heap; setup_s is the median.
const setupReps = 9

// artifactSystem is a ready artifact workload: the experiments to run
// and the SHA-256 each rendered document must have.
type artifactSystem struct {
	exps   []experiments.Experiment
	expect map[string]string
}

// setupArtifacts resolves the experiments from the registry, loads the
// expected hashes and warms a runner with one cell on every registered
// machine, so lazily built process state exists before anything is
// timed.
func setupArtifacts(ids []string, expect func(id string) (string, error)) (*artifactSystem, error) {
	sys := &artifactSystem{expect: map[string]string{}}
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("experiment %q is not registered", id)
		}
		h, err := expect(id)
		if err != nil {
			return nil, err
		}
		sys.exps = append(sys.exps, e)
		sys.expect[id] = h
	}
	r := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1})
	for _, m := range machine.Names() {
		if _, err := r.RunWorkloadCell(workload.Spec{Name: "stream"}, m, 1, affinity.Default, experiments.Quick); err != nil {
			return nil, fmt.Errorf("warm-up cell on %s: %v", m, err)
		}
	}
	return sys, nil
}

// goldenHash is the expected hash of a paper artifact: that of the
// committed results/<id>.md, which is the artifact's quick-scale output.
func goldenHash(root string) func(id string) (string, error) {
	return func(id string) (string, error) {
		b, err := os.ReadFile(filepath.Join(root, "results", id+".md"))
		if err != nil {
			return "", err
		}
		return sha(string(b)), nil
	}
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// render formats an artifact exactly as `mcbench -format md -out DIR`
// writes it.
func render(e experiments.Experiment, tables []*report.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n\nPaper: %s\n\n", e.ID, e.Title, e.Paper)
	for _, t := range tables {
		b.WriteString(t.Markdown())
		b.WriteString("\n")
	}
	return b.String()
}

// pass is one run over every artifact.
type pass struct {
	times map[string]time.Duration
	wall  time.Duration // sum of the artifact times
	work  activity
	cells int
	peak  float64 // MiB
}

// runPass regenerates every artifact once, checking each output.
func (sys *artifactSystem) runPass(tr *tracer, o *outcome) pass {
	p := pass{times: map[string]time.Duration{}}
	h := startHeapPeak()
	root := tr.begin("bench", "pass", 0)
	for _, e := range sys.exps {
		r := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1})
		a0 := snapshot()
		id := tr.begin("experiments", "experiments.Run/"+e.ID, root)
		t0 := time.Now()
		tables, err := r.Run(e, experiments.Quick)
		d := time.Since(t0)
		tr.end(id)
		p.work = p.work.add(snapshot().sub(a0))
		p.times[e.ID] = d
		p.wall += d
		cells := r.CellsRun()
		if cells == 0 {
			// ext-scale runs its cells through core directly, not through
			// the runner's cell cache: each of its table rows is a cell.
			for _, t := range tables {
				cells += t.NumRows()
			}
		}
		p.cells += cells
		o.attempted += max(cells, 1)
		switch {
		case err != nil:
			o.failed += max(cells, 1)
			o.fail("%s: %v", e.ID, err)
		case sha(render(e, tables)) != sys.expect[e.ID]:
			o.failed += max(cells, 1)
			o.fail("%s: rendered output differs from the expected bytes", e.ID)
		default:
			if errs := r.CellErrors(); len(errs) > 0 {
				o.failed += len(errs)
				o.fail("%s: %d cell errors, first: %v", e.ID, len(errs), errs[0])
			}
		}
	}
	tr.end(root)
	p.peak = h.finish()
	return p
}

// runPasses repeats passes until budget is used and at least `least`
// passes ran, and calls after (when not nil) following each pass.
func (sys *artifactSystem) runPasses(budget time.Duration, least int, tr *tracer, o *outcome, after func(pass) error) ([]pass, error) {
	var out []pass
	start := time.Now()
	for len(out) < least || time.Since(start) < budget {
		p := sys.runPass(tr, o)
		out = append(out, p)
		if after != nil {
			if err := after(p); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// artifactWall is the sum over artifacts of each artifact's median time
// across passes: a pass's time, with each artifact's noise damped
// separately.
func artifactWall(ps []pass) time.Duration {
	var total time.Duration
	for id := range ps[0].times {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, float64(p.times[id]))
		}
		total += time.Duration(median(xs))
	}
	return total
}

// setArtifactEndToEnd reports the end-to-end metrics of untraced passes.
// Every pass simulates the same cells, so cells_per_s is a pass's cells
// over the same median-based pass time as wall_s.
func setArtifactEndToEnd(o *outcome, ps []pass) {
	var peaks []float64
	for _, p := range ps {
		peaks = append(peaks, p.peak)
	}
	wall := artifactWall(ps).Seconds()
	o.metrics.set("wall_s", wall, "s")
	o.metrics.set("peak_heap_mib", median(peaks), "MiB")
	o.metrics.set("cells_per_s", float64(ps[0].cells)/wall, "1/s")
	o.details["passes"] = len(ps)
}

// setArtifactLayers reports the sim layer's numbers over traced passes
// and each artifact's median time as a detail.
func setArtifactLayers(o *outcome, ps []pass) {
	var w activity
	var busy time.Duration
	for _, p := range ps {
		w = w.add(p.work)
		busy += p.wall
	}
	setSim(o.metrics, w, busy)
	// The ratios are over all passes; the counts are per pass.
	for k, v := range simCounts(ps[0].work) {
		o.metrics.set(k, float64(v), "count")
	}
	for id := range ps[0].times {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.times[id].Seconds())
		}
		o.details["experiments.artifact_s."+id] = median(xs)
	}
}

// runArtifactWorkload is the whole paper or scale run.
func runArtifactWorkload(cfg config, name string, ids []string, expect func(string) (string, error)) (*outcome, error) {
	o := newOutcome()
	var sys *artifactSystem
	var setups []float64
	for i := 0; i < setupReps; i++ {
		var err error
		runtime.GC()
		d := timeIt(func() { sys, err = setupArtifacts(ids, expect) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	if !cfg.traced {
		o.metrics.set("setup_s", median(setups), "s")
		o.details["setup_s.samples"] = setups
		local := newLocalLoop(cfg, o)
		// Three passes at least, so that each artifact's median
		// discards one pass a host stall slowed.
		ps, err := sys.runPasses(cfg.seconds, 3, newTracer(false), o, func(p pass) error {
			return local.runFor(time.Duration(localShare * float64(p.wall)))
		})
		if err != nil {
			return nil, err
		}
		setArtifactEndToEnd(o, ps)
		guardCounts(o, name, simCounts(ps[0].work))
		return o, local.finish()
	}

	// Traced run: the same passes untraced and then traced, for the
	// tracing overhead, and the ladder.
	plain, err := sys.runPasses(cfg.seconds/2, 1, newTracer(false), o, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	traced, err := sys.runPasses(cfg.seconds/2, 1, tr, o, nil)
	if err != nil {
		return nil, err
	}
	o.metrics.set("trace.overhead_frac", artifactWall(traced).Seconds()/artifactWall(plain).Seconds()-1, "fraction")
	setArtifactLayers(o, traced)
	guardCounts(o, name, simCounts(traced[0].work))
	if err := runLadder(cfg, tr, o, nil, true); err != nil {
		return nil, err
	}
	return o, finishTrace(cfg, name, tr, o)
}

func runPaper(cfg config) (*outcome, error) {
	return runArtifactWorkload(cfg, "paper", cfg.inputs.paperOrder, goldenHash(cfg.root))
}
