package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// mallocsDuring counts heap allocations performed by fn.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// steadyStateAllocs runs workload at two scales and returns the allocation
// count attributable to the extra iterations, cancelling out fixed setup
// costs (engine, procs, goroutines, slice warm-up).
func steadyStateAllocs(small, large int, workload func(iters int)) uint64 {
	a := mallocsDuring(func() { workload(small) })
	b := mallocsDuring(func() { workload(large) })
	if b <= a {
		return 0
	}
	return b - a
}

// TestEventScheduleZeroAlloc: pushing and popping the typed events (resume,
// flow-check) must not allocate once the heap's backing array is warm, and
// Engine.At with a preallocated closure must not either.
func TestEventScheduleZeroAlloc(t *testing.T) {
	e := NewEngine()
	p := &Proc{eng: e}
	// Warm the heap storage.
	for i := 0; i < 64; i++ {
		e.scheduleResume(1, p)
	}
	for len(e.queue) > 0 {
		e.queue.pop()
	}
	if n := testing.AllocsPerRun(200, func() {
		e.scheduleResume(1, p)
		e.queue.pop()
	}); n != 0 {
		t.Errorf("schedule/pop of a resume event allocates %v per cycle, want 0", n)
	}
	fn := func() {}
	if n := testing.AllocsPerRun(200, func() {
		e.At(1, fn)
		e.queue.pop()
	}); n != 0 {
		t.Errorf("At/pop with a hoisted closure allocates %v per cycle, want 0", n)
	}
}

// TestSleepPingPongZeroAlloc: a process sleeping in a loop — the schedule,
// handoff, block, resume cycle — must not allocate in steady state.
func TestSleepPingPongZeroAlloc(t *testing.T) {
	workload := func(iters int) {
		e := NewEngine()
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < iters; i++ {
				p.Sleep(1e-9)
			}
		})
		e.Run()
	}
	if extra := steadyStateAllocs(2000, 20000, workload); extra > 100 {
		t.Errorf("18000 extra sleep cycles allocated %d times, want ~0", extra)
	}
}

// TestWaitQueueChurnZeroAlloc: sustained Wait/WakeOne cycles must reuse the
// ring's backing storage instead of allocating per cycle.
func TestWaitQueueChurnZeroAlloc(t *testing.T) {
	workload := func(iters int) {
		e := NewEngine()
		var q WaitQueue
		e.Spawn("waiter", func(p *Proc) {
			for i := 0; i < iters; i++ {
				q.Wait(p, "churn")
			}
		})
		e.Spawn("waker", func(p *Proc) {
			for woken := 0; woken < iters; {
				if q.WakeOne(e) {
					woken++
				}
				p.Sleep(1e-9)
			}
		})
		e.Run()
	}
	if extra := steadyStateAllocs(2000, 20000, workload); extra > 100 {
		t.Errorf("18000 extra wait/wake cycles allocated %d times, want ~0", extra)
	}
}

// TestFlowChurnAllocsBounded: a transfer cycle allocates nothing in
// steady state — the Flow object itself recycles through the network's
// arena (Transfer owns and releases it), and the settle/fill/completion
// machinery runs entirely on recycled scratch.
func TestFlowChurnAllocsBounded(t *testing.T) {
	workload := func(iters int) {
		e := NewEngine()
		r := NewResource("mc", 1e9)
		path := []*Resource{r}
		e.Spawn("mover", func(p *Proc) {
			for i := 0; i < iters; i++ {
				p.Transfer("t", 1e3, path, 0)
			}
		})
		e.Run()
	}
	const small, large = 1000, 5000
	extra := steadyStateAllocs(small, large, workload)
	perCycle := float64(extra) / float64(large-small)
	if perCycle > 0.05 {
		t.Errorf("flow start/finish cycle allocates %.2f times, want ~0 (arena-recycled)", perCycle)
	}
}

// TestWaitQueueStorageBounded: the head-indexed ring must keep its backing
// array at a small multiple of the live waiter count under sustained churn,
// instead of growing with the total number of Wait calls.
func TestWaitQueueStorageBounded(t *testing.T) {
	e := NewEngine()
	var q WaitQueue
	const live, cycles = 4, 5000
	for i := 0; i < live; i++ {
		e.Spawn("w", func(p *Proc) {
			for j := 0; j < cycles; j++ {
				q.Wait(p, "cycle")
			}
		})
	}
	e.Spawn("waker", func(p *Proc) {
		for woken := 0; woken < live*cycles; {
			if q.WakeOne(e) {
				woken++
			} else {
				p.Sleep(1e-9)
			}
		}
	})
	e.Run()
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d waiters left", q.Len())
	}
	if c := cap(q.waiters); c > 4*live+8 {
		t.Errorf("backing storage grew to %d slots for %d live waiters over %d cycles",
			c, live, live*cycles)
	}
}

// BenchmarkEventSchedule measures the typed schedule+pop cycle.
func BenchmarkEventSchedule(b *testing.B) {
	e := NewEngine()
	p := &Proc{eng: e}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.scheduleResume(1, p)
		e.queue.pop()
	}
}

// BenchmarkProcHandoff measures a full block/resume round trip: one
// zero-length sleep per iteration.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("pingpong", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkSettleCoalesce measures a 16-flow fan-out admitted at one
// timestamp — a collective's pattern. Lazy settling runs one component
// discovery + fill per batch instead of one per flow.
func BenchmarkSettleCoalesce(b *testing.B) {
	e := NewEngine()
	n := e.net
	res := make([]*Resource, 4)
	for i := range res {
		res[i] = NewResource(fmt.Sprintf("r%d", i), 1e9)
	}
	for i := 0; i < b.N; i++ {
		at := float64(i) * 1e-3
		e.At(at, func() {
			for k := 0; k < 16; k++ {
				n.Start("fan", 1e3, res[k%len(res):k%len(res)+1], 0)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkComponentDrain measures retiring flows one at a time out of a
// wide shared component (~64 flows over one resource): the completion scan,
// in-place removal, and component refill.
func BenchmarkComponentDrain(b *testing.B) {
	e := NewEngine()
	n := e.net
	r := []*Resource{NewResource("shared", 1e9)}
	for i := 0; i < b.N; i++ {
		at := float64(i) * 1e-6
		bytes := 1e3 + float64(i%64)*8
		e.At(at, func() { n.Start("drain", bytes, r, 0) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// TestSameInstantLaneZeroAlloc: events scheduled for the current instant
// go through the same-instant lane, whose storage is reused once it
// drains, so bursts of same-instant events allocate nothing in steady
// state.
func TestSameInstantLaneZeroAlloc(t *testing.T) {
	workload := func(iters int) {
		e := NewEngine()
		noop := func() {}
		bursts := 0
		var burst func()
		burst = func() {
			for i := 0; i < 16; i++ {
				e.At(e.now, noop)
			}
			if bursts++; bursts < iters {
				e.At(e.now+1e-9, burst)
			}
		}
		e.At(0, burst)
		e.Run()
	}
	if extra := steadyStateAllocs(1000, 10000, workload); extra > 100 {
		t.Errorf("9000 extra bursts of 16 same-instant events allocated %d times, want ~0", extra)
	}
}

// BenchmarkSettleLargeComponent measures completion-driven refills of one
// 4,096-flow component, the ext-scale shape: every flow crosses two
// adjacent links of one shared ring, and each completion restarts its
// flow, so every operation re-fills the whole ring twice (after the
// retirement and after the restart) while the restarts scramble the
// admission order around the ring.
func BenchmarkSettleLargeComponent(b *testing.B) {
	const size = 4096
	e := NewEngine()
	n := e.net
	ring := make([]*Resource, size)
	for i := range ring {
		ring[i] = NewResource(fmt.Sprintf("link%d", i), 1e9)
	}
	paths := make([][]*Resource, size)
	for i := range paths {
		paths[i] = []*Resource{ring[i], ring[(i+1)%size]}
	}
	left, starts := b.N, 0
	var start func(i int)
	start = func(i int) {
		starts++
		// 7919 is coprime with size, so volumes are distinct across the
		// ring and completions never coincide.
		bytes := 1e5 * (1 + float64(starts*7919%size)/size)
		n.Start("halo", bytes, paths[i], 0).OnDone(n, func() {
			if left--; left > 0 {
				start(i)
				return
			}
			if left == 0 {
				// Let the rest of the ring finish in one completion pass.
				b.StopTimer()
				for _, f := range n.flows {
					f.remaining = 0
				}
			}
		})
	}
	for i := 0; i < size; i++ {
		start(i)
	}
	n.flush()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkScheduleSameInstant measures an event that schedules its
// successor for the current instant while 6,000 later events wait in the
// heap, the depth ext-scale runs at.
func BenchmarkScheduleSameInstant(b *testing.B) {
	e := NewEngine()
	noop := func() {}
	for i := 0; i < 6000; i++ {
		e.At(1+float64(i)*1e-6, noop)
	}
	left := b.N
	var step func()
	step = func() {
		if left--; left > 0 {
			e.At(e.now, step)
			return
		}
		b.StopTimer()
	}
	e.At(0, step)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
