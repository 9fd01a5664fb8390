package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"multicore/internal/sim"
)

// activity is a snapshot of the process-wide engine counters plus the
// runtime's allocation and CPU accounting. Deltas of two snapshots
// attribute work to whatever ran between them.
type activity struct {
	events, flows, settles, spawns uint64
	mallocs                        uint64
	gcCPU, totalCPU                float64 // seconds
}

func snapshot() activity {
	var a activity
	a.events, a.flows, a.settles, a.spawns = sim.Activity()
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}
	metrics.Read(s)
	a.gcCPU = s[0].Value.Float64()
	a.totalCPU = s[1].Value.Float64()
	a.mallocs = s[2].Value.Uint64() + s[3].Value.Uint64()
	return a
}

func (a activity) sub(b activity) activity {
	return activity{
		events: a.events - b.events, flows: a.flows - b.flows,
		settles: a.settles - b.settles, spawns: a.spawns - b.spawns,
		mallocs: a.mallocs - b.mallocs,
		gcCPU:   a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
	}
}

func (a activity) add(b activity) activity {
	return activity{
		events: a.events + b.events, flows: a.flows + b.flows,
		settles: a.settles + b.settles, spawns: a.spawns + b.spawns,
		mallocs: a.mallocs + b.mallocs,
		gcCPU:   a.gcCPU + b.gcCPU, totalCPU: a.totalCPU + b.totalCPU,
	}
}

// setSim reports the sim layer's counts and ratios for work w that took
// wall host time.
func setSim(m metricSet, w activity, wall time.Duration) {
	m.set("sim.events", float64(w.events), "count")
	m.set("sim.flows", float64(w.flows), "count")
	m.set("sim.settles", float64(w.settles), "count")
	m.set("sim.spawns", float64(w.spawns), "count")
	if w.events > 0 {
		m.set("sim.ns_per_event", float64(wall.Nanoseconds())/float64(w.events), "ns")
		m.set("sim.allocs_per_event", float64(w.mallocs)/float64(w.events), "allocs/event")
	}
	if w.totalCPU > 0 {
		m.set("sim.gc_cpu_frac", w.gcCPU/w.totalCPU, "fraction")
	}
}

// simCounts is the part of an activity delta that only a model change
// can move.
func simCounts(w activity) map[string]uint64 {
	return map[string]uint64{
		"sim.events": w.events, "sim.flows": w.flows,
		"sim.settles": w.settles, "sim.spawns": w.spawns,
	}
}

// heapPeak samples the live Go heap every few milliseconds while a
// measured phase runs and keeps the largest value.
type heapPeak struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func heapNow() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapPeak collects garbage first, so the peak belongs to the phase
// and not to what ran before it.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), peak: heapNow()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.peak = max(h.peak, heapNow())
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	h.done.Wait()
	h.peak = max(h.peak, heapNow())
	return float64(h.peak) / (1 << 20)
}

// timeIt runs fn and returns its host time.
func timeIt(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}
