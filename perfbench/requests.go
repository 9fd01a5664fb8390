package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"multicore/internal/experiments"
	"multicore/internal/sweepd"
)

// localLoop is the single-cell request path without the service: a
// closed loop of `mcbench -sweep` style requests through sweepd.RunLocal
// on one in-process experiments.Runner. A cold request computes a cell
// nobody computed; a warm request asks for a cell the runner already
// holds. The paper and scale workloads take their latency numbers here,
// in short bursts between their passes so the samples span the whole
// run rather than one second of it; comparing them with the service
// workload's shows what the coordinator, the store and the journal add.
// The loop writes no files: on a file system that discards freed blocks,
// one run's file churn slows the next run's file operations, which the
// service workload measures on purpose and these workloads must not.
type localLoop struct {
	r       *experiments.Runner
	cold    []sweepd.Grid
	picks   []int
	got     []sweepd.CellResult
	coldLat []time.Duration
	warmLat []time.Duration
	o       *outcome
}

// localShare is the fraction of each pass's time spent on requests after
// it.
const localShare = 0.05

func newLocalLoop(cfg config, o *outcome) *localLoop {
	return &localLoop{
		r:    experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1}),
		cold: cfg.inputs.cold, picks: cfg.inputs.warmPicks, o: o,
	}
}

// cellResult is one single-cell sweep's result.
func cellResult(results map[string]sweepd.CellResult, g sweepd.Grid) (sweepd.CellResult, error) {
	cells := g.Cells()
	if len(cells) != 1 {
		return sweepd.CellResult{}, fmt.Errorf("grid %s has %d cells, want 1", g, len(cells))
	}
	res, ok := results[cells[0].Key()]
	if !ok {
		return sweepd.CellResult{}, fmt.Errorf("no result for %s", cells[0].Key())
	}
	return res, nil
}

func (l *localLoop) request(g sweepd.Grid) (sweepd.CellResult, time.Duration, error) {
	var res map[string]sweepd.CellResult
	d := timeIt(func() { res = sweepd.RunLocal(l.r, g, 1) })
	cr, err := cellResult(res, g)
	return cr, d, err
}

// pair makes one cold request and one warm request for a cell computed
// earlier in the loop.
func (l *localLoop) pair() error {
	i := len(l.got)
	if i == len(l.cold) {
		return fmt.Errorf("ran out of cold cells after %d", i)
	}
	res, d, err := l.request(l.cold[i])
	if err != nil {
		return err
	}
	l.got = append(l.got, res)
	l.coldLat = append(l.coldLat, d)

	j := l.picks[i] % (i + 1)
	res, d, err = l.request(l.cold[j])
	if err != nil {
		return err
	}
	l.warmLat = append(l.warmLat, d)
	l.o.attempted += 2
	if res.Fingerprint != l.got[j].Fingerprint {
		l.o.failed++
		l.o.fail("warm %s: fingerprint %s, cold run gave %s", l.cold[j], res.Fingerprint, l.got[j].Fingerprint)
	}
	return nil
}

// runFor makes request pairs for at least d, and at least one pair,
// after collecting the garbage of whatever ran before.
func (l *localLoop) runFor(d time.Duration) error {
	runtime.GC()
	start := time.Now()
	for {
		if err := l.pair(); err != nil {
			return err
		}
		if time.Since(start) >= d {
			return nil
		}
	}
}

// finish tops the loop up to minSamples pairs, reports the latencies,
// and checks every cold result against a serial run of the same cell on
// a fresh runner.
func (l *localLoop) finish() error {
	for len(l.got) < minSamples {
		if err := l.pair(); err != nil {
			return err
		}
	}
	setLatency(l.o, "cold", l.coldLat)
	setLatency(l.o, "warm", l.warmLat)
	ref := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1})
	for i, got := range l.got {
		g := l.cold[i]
		want, err := cellResult(sweepd.RunLocal(ref, g, 1), g)
		if err != nil {
			return err
		}
		if got.Status != sweepd.StatusOK || got.Fingerprint != want.Fingerprint {
			l.o.failed++
			l.o.fail("cold %s: %s %s, serial run gave %s %s", g, got.Status, got.Fingerprint, want.Status, want.Fingerprint)
		}
	}
	return nil
}
