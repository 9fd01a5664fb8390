// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine with a fluid-flow network for modeling bandwidth
// contention.
//
// Processes are coroutines: exactly one process executes at a time, and
// control transfers between the scheduler and a process by a direct
// iter.Pull coroutine switch (no channels, no trip through the Go
// scheduler), so simulations are fully deterministic given the same
// inputs. The package therefore needs a Go 1.23 or newer toolchain. Time
// is a float64 in seconds; simultaneous events fire in the order they
// were scheduled. Future events wait in a binary heap; events scheduled
// for the current instant skip it and wait in a FIFO lane, which drains
// after the heap's events due at that instant.
//
// Bandwidth-shared activities (memory streams, message copies) are modeled
// as flows over paths of capacity-limited resources. Rates are assigned by
// max-min fairness (progressive filling) and resettled whenever the flow
// set changes, which reproduces contention effects such as two cores sharing
// one memory controller. Each resource keeps its flows in admission order,
// which fixes the floating-point order of every rate sum without sorting.
package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// ModelVersion names the simulation model's semantic generation. It is
// baked into persistent result-store keys (internal/store), so bump it
// whenever an engine or machine-model change alters simulated results —
// the same events that require regenerating engine_golden.json.
const ModelVersion = "mc-sim/3"

// BlockedProc describes one process stuck at deadlock detection time: its
// name and the wait label it blocked on (e.g. "recv from 3").
type BlockedProc struct {
	Name string
	Wait string
}

// DeadlockError is returned by RunContext when the event heap drains while
// processes are still blocked: no event can ever wake them, so the
// simulation would otherwise sit in a silent hang. Blocked lists the stuck
// processes sorted by name, each with the label of the wait it is parked
// on, which is usually enough to identify the protocol bug (two ranks in
// head-to-head rendezvous sends, a Recv with no matching Send, ...).
type DeadlockError struct {
	Time    float64
	Live    int
	Blocked []BlockedProc
}

func (e *DeadlockError) Error() string {
	names := make([]string, len(e.Blocked))
	for i, b := range e.Blocked {
		names[i] = fmt.Sprintf("%s (%s)", b.Name, b.Wait)
	}
	return fmt.Sprintf("sim: deadlock at t=%g: %d live processes, blocked: %v",
		e.Time, e.Live, names)
}

// CanceledError is returned by RunContext when the run's context is
// canceled (SIGINT) or its deadline passes (per-cell wall-clock timeout).
// It wraps the context error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) distinguish the two.
type CanceledError struct {
	Time  float64 // simulated time reached when the run stopped
	Cause error   // the context's error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run aborted at t=%g: %v", e.Time, e.Cause)
}

func (e *CanceledError) Unwrap() error { return e.Cause }

// ctxCheckStride is how many events RunContext processes between context
// polls: frequent enough that timeouts bite within microseconds of real
// time, rare enough that the poll never shows up in profiles.
const ctxCheckStride = 1024

// Engine is a discrete-event simulator instance. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now   float64
	seq   uint64
	queue eventHeap

	// lane holds the events scheduled for the current instant, in
	// schedule order from laneHead on. They bypass the heap: every heap
	// event due at the same instant was scheduled before the clock got
	// there, so draining the heap's share first and the lane after it
	// keeps (time, seq) order.
	lane     []event
	laneHead int

	// live holds every spawned, unfinished process; Proc.live is each
	// one's index, so retiring is a swap-remove. The deadlock report and
	// abort walk it.
	live []*Proc

	// killing is set by abort: woken processes unwind via a procKilled
	// panic instead of resuming their bodies, so cancellation and
	// deadlock detection release every coroutine instead of leaking
	// parked workers for the life of the process.
	killing bool

	// idleWorkers are parked coroutines from finished processes, reused by
	// Spawn so steady-state process churn creates no new coroutines.
	idleWorkers []*worker

	// freeLight recycles finished lightweight processes (SpawnCont) so
	// helper churn — one isend/irecv helper per message at 10k+ ranks —
	// allocates no Proc in steady state. Only used while detailed
	// observation is off: the observer retains every spawned Proc.
	freeLight []*Proc

	net *FlowNet

	// Always-on activity counters (see Stats).
	statEvents  uint64
	statFlows   uint64
	statSettles uint64
	statSpawns  uint64

	// obs enables detailed observation when non-nil (EnableObservation).
	obs *observer

	// MaxTime aborts the run if the clock passes it (guards against
	// runaway simulations in tests). Zero means no limit.
	MaxTime float64
}

// NewEngine creates an empty simulation.
func NewEngine() *Engine {
	e := &Engine{}
	e.net = newFlowNet(e)
	return e
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Net returns the engine's flow network.
func (e *Engine) Net() *FlowNet { return e.net }

// eventKind discriminates the typed events stored by value in the heap.
// The typed kinds cover the two hot schedules — waking a process and
// checking the flow network for completions — so neither allocates; evFunc
// is the generic fallback behind Engine.At.
type eventKind uint8

const (
	evFunc      eventKind = iota // run fire()
	evResume                     // hand control to proc
	evFlowCheck                  // flow completion check, valid iff gen matches
)

type event struct {
	at   float64
	seq  uint64
	kind eventKind
	proc *Proc  // evResume
	gen  uint64 // evFlowCheck
	fire func() // evFunc
}

// eventHeap is a typed binary min-heap ordered by (time, schedule seq).
// It is hand-rolled rather than built on container/heap so pushes and
// pops stay monomorphic, and it stores events by value: the backing array
// is recycled across pushes, so steady-state scheduling never allocates.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = event{} // release the proc/fire references in the vacated slot
	q = q[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// schedule stamps ev with (t, next seq) and enqueues it: on the lane if
// it is due now, on the heap otherwise. Scheduling in the past or at a
// NaN timestamp panics: the former violates causality, the latter
// corrupts the event heap's ordering (every comparison against NaN is
// false) and would silently break determinism.
func (e *Engine) schedule(t float64, ev event) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", t, e.now))
	}
	e.seq++
	ev.at, ev.seq = t, e.seq
	if t == e.now {
		e.lane = append(e.lane, ev)
		return
	}
	e.queue.push(ev)
}

// At schedules fn to run at absolute simulated time t.
func (e *Engine) At(t float64, fn func()) {
	e.schedule(t, event{kind: evFunc, fire: fn})
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// scheduleResume schedules p to be handed control at time t without
// allocating a closure.
func (e *Engine) scheduleResume(t float64, p *Proc) {
	e.schedule(t, event{kind: evResume, proc: p})
}

// Proc is a simulated process. Its methods must only be called from within
// the process's own body function.
//
// A Proc has one of two backings. Coroutine-backed processes (Spawn) run
// arbitrary re-entrant bodies that block mid-call-stack on a pooled
// worker coroutine; control transfers by coroutine switch. Lightweight
// processes (SpawnCont) have no stack at all: their body is a chain of
// explicit continuations that the scheduler invokes inline, so blocking
// costs one closure instead of a stack plus two coroutine switches per
// resume. Both backings share the same wake paths (scheduleResume,
// WaitQueue, flow waiters), observation states, and deadlock reporting.
type Proc struct {
	eng  *Engine
	name string
	w    *worker // the worker running a coroutine-backed body
	done bool

	// wait labels the wait the process is parked on ("" while running);
	// deadlock reports print it. live is the index in Engine.live.
	wait string
	live int

	// light marks a continuation-backed process; cont is the armed
	// continuation the next resume will invoke (nil while running).
	// start is the body's entry point until its first resume, kept as a
	// bare func(*Proc) so spawning never allocates a wrapper closure.
	light bool
	cont  func()
	start func(*Proc)

	// Observation state (only touched when the engine's observer is
	// active): current state, when it was entered, and accumulated
	// seconds per state.
	state      procState
	stateSince float64
	stateTimes [numProcStates]float64
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.eng.now }

// procKilled is the panic value used to unwind a blocked process during
// abort; the worker loop swallows it and recycles the coroutine.
type procKilled struct{}

// runBody executes a process body, absorbing the procKilled unwind that
// abort injects into blocked processes. Any other panic propagates: it
// surfaces from the coroutine switch on the scheduler goroutine, where
// RunContext's recover releases the engine and re-raises it to the
// caller's isolation layer.
func runBody(p *Proc, body func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(r)
			}
		}
	}()
	body(p)
}

// Spawn creates a process that will begin executing body at the current
// simulated time (or at time 0 if the simulation has not started).
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	var w *worker
	if n := len(e.idleWorkers); n > 0 {
		w = e.idleWorkers[n-1]
		e.idleWorkers[n-1] = nil
		e.idleWorkers = e.idleWorkers[:n-1]
	} else {
		w = e.newWorker()
	}
	p := &Proc{eng: e, name: name, w: w, start: body}
	w.p = p
	e.admit(p)
	return p
}

// admit registers a new process as live and schedules its start event.
func (e *Engine) admit(p *Proc) {
	p.live = len(e.live)
	e.live = append(e.live, p)
	e.statSpawns++
	if e.obs != nil {
		p.state = stateBlockedQueue // parked until the start event fires
		p.stateSince = e.now
		e.obs.procs = append(e.obs.procs, p)
	}
	e.scheduleResume(e.now, p)
}

// retire marks p finished and drops it from the live set.
func (e *Engine) retire(p *Proc) {
	if e.obs != nil {
		e.procStateChange(p, stateBlockedQueue)
	}
	p.done = true
	last := e.live[len(e.live)-1]
	e.live[p.live] = last
	last.live = p.live
	e.live[len(e.live)-1] = nil
	e.live = e.live[:len(e.live)-1]
}

// SpawnCont creates a lightweight, continuation-backed process that will
// begin executing start at the current simulated time. The body must be
// written in continuation-passing style: instead of blocking, it arms the
// next step with SleepThen, WaitThen, WaitFlowThen, or TransferThen and
// returns. When a step returns without arming a continuation the process
// is finished. Scheduling order is identical to Spawn — the start event
// consumes the same sequence number — so converting a process between
// backings never reorders a simulation.
func (e *Engine) SpawnCont(name string, start func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.freeLight); n > 0 && e.obs == nil {
		p = e.freeLight[n-1]
		e.freeLight[n-1] = nil
		e.freeLight = e.freeLight[:n-1]
		*p = Proc{eng: e, light: true}
	} else {
		p = &Proc{eng: e, light: true}
	}
	p.name = name
	p.start = start
	e.admit(p)
	return p
}

// finishLight retires a completed lightweight process, mirroring the tail
// of the worker loop for coroutine-backed processes.
func (e *Engine) finishLight(p *Proc) {
	e.retire(p)
	if e.obs == nil {
		e.freeLight = append(e.freeLight, p)
	}
}

// resume hands control to p and waits until it blocks or finishes.
func (e *Engine) resume(p *Proc) {
	if p.done {
		panic("sim: resuming finished process " + p.name)
	}
	p.wait = ""
	if e.obs != nil {
		e.procStateChange(p, stateRunning)
	}
	if p.light {
		if f := p.start; f != nil {
			p.start = nil
			f(p)
		} else {
			k := p.cont
			p.cont = nil
			k()
		}
		if p.cont == nil {
			e.finishLight(p)
		}
		return
	}
	p.w.next()
}

// park records a lightweight process as blocked and arms k as the step to
// run when it is next resumed. It is the continuation-backed analogue of
// block.
func (p *Proc) park(kind procState, why string, k func()) {
	if k == nil {
		panic("sim: lightweight process " + p.name + " parked without a continuation")
	}
	e := p.eng
	p.wait = why
	if e.obs != nil {
		e.procStateChange(p, kind)
	}
	p.cont = k
}

// block yields control back to the scheduler and waits to be woken. The
// kind classifies the wait for observation; why labels it in deadlock
// reports.
func (p *Proc) block(kind procState, why string) {
	e := p.eng
	if e.killing {
		// A dying process tried to block again while unwinding (e.g. a
		// deferred cleanup sleeping); re-panic rather than park forever.
		panic(procKilled{})
	}
	p.wait = why
	if e.obs != nil {
		e.procStateChange(p, kind)
	}
	// yield reports false only if the worker was stopped under a parked
	// body, which abort never does; unwind rather than run on.
	if !p.w.yield(struct{}{}) || e.killing {
		panic(procKilled{})
	}
}

// Sleep advances the process by d seconds of simulated time. Negative or
// zero durations still yield to the scheduler at the current time, which
// preserves event ordering for zero-cost operations. A NaN duration
// panics: NaN compares false against everything, so it would slip past
// the causality check in schedule and corrupt event ordering undiagnosed.
func (p *Proc) Sleep(d float64) {
	if math.IsNaN(d) {
		panic(fmt.Sprintf("sim: process %s sleeping NaN seconds at t=%g", p.name, p.eng.now))
	}
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.scheduleResume(e.now+d, p)
	p.block(stateSleeping, "sleep")
}

// SleepThen advances the process by d seconds and then runs k. On a
// lightweight process it arms k as the continuation and returns
// immediately; on a goroutine-backed process it sleeps inline and calls k
// on the same stack. Either way the schedule sequence is identical to
// Sleep, so protocol code written against the *Then primitives simulates
// byte-identically on both backings.
func (p *Proc) SleepThen(d float64, k func()) {
	if !p.light {
		p.Sleep(d)
		k()
		return
	}
	if math.IsNaN(d) {
		panic(fmt.Sprintf("sim: process %s sleeping NaN seconds at t=%g", p.name, p.eng.now))
	}
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.scheduleResume(e.now+d, p)
	p.park(stateSleeping, "sleep", k)
}

// Run executes events until the queue is empty. It panics if processes
// remain blocked when no event can wake them (a deadlock) so that protocol
// bugs in workloads surface immediately. Sweeps that must survive bad
// cells use RunContext instead and receive the deadlock as a structured
// error.
func (e *Engine) Run() {
	if err := e.RunContext(context.Background()); err != nil {
		panic(err)
	}
}

// RunContext executes events until the queue is empty, the context is
// canceled (or its deadline passes), or a deadlock is detected. It returns
// nil on a clean drain, *CanceledError on cancellation, and *DeadlockError
// when the event heap empties while processes are still blocked — the
// watchdog that turns a would-be silent hang into a diagnosis naming the
// blocked processes and their wait labels.
//
// On any return the engine has released every coroutine it created;
// a non-nil error leaves the simulation state unusable (create a fresh
// engine per run, as every caller in this repository already does).
//
// Between the last event of a timestamp and the first event of the next,
// the loop flushes any pending flow-network changes: admissions
// accumulated at the current time are settled and filled in one batch
// (see FlowNet.flush).
func (e *Engine) RunContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return e.cancel(err)
	}
	// A panic on the scheduler side (an event callback, a lightweight
	// process's continuation, the flow network) or in a process body
	// (re-raised by the coroutine switch) must not strand the engine's
	// parked coroutines: release them, then let the panic propagate to
	// the caller's isolation layer.
	defer func() {
		if r := recover(); r != nil {
			e.abort()
			panic(r)
		}
	}()
	for {
		heapDue := len(e.queue) > 0 && e.queue[0].at == e.now
		laneDue := e.laneHead < len(e.lane)
		if e.net.dirty && !heapDue && !laneDue {
			e.net.flush()
			continue // the flush schedules the next completion event
		}
		// Heap events due now precede the lane (see Engine.lane).
		var ev event
		if laneDue && !heapDue {
			ev = e.lane[e.laneHead]
			e.lane[e.laneHead] = event{} // release the proc/fire references
			if e.laneHead++; e.laneHead == len(e.lane) {
				e.lane, e.laneHead = e.lane[:0], 0
			}
		} else if len(e.queue) > 0 {
			ev = e.queue.pop()
		} else {
			break
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		if e.MaxTime > 0 && e.now > e.MaxTime {
			panic(fmt.Sprintf("sim: exceeded MaxTime %g", e.MaxTime))
		}
		e.statEvents++
		if e.statEvents%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return e.cancel(err)
			}
		}
		switch ev.kind {
		case evResume:
			e.resume(ev.proc)
		case evFlowCheck:
			e.net.completionCheck(ev.gen)
		default:
			ev.fire()
		}
	}
	if len(e.live) > 0 {
		// With the heap drained, every live process is parked on a wait.
		blocked := make([]BlockedProc, len(e.live))
		for i, p := range e.live {
			blocked[i] = BlockedProc{Name: p.name, Wait: p.wait}
		}
		sort.Slice(blocked, func(i, j int) bool { return blocked[i].Name < blocked[j].Name })
		err := &DeadlockError{Time: e.now, Live: len(e.live), Blocked: blocked}
		e.abort()
		return err
	}
	e.shutdown()
	return nil
}

// cancel aborts a canceled run and wraps the context error.
func (e *Engine) cancel(cause error) error {
	err := &CanceledError{Time: e.now, Cause: cause}
	e.abort()
	return err
}

// abort unwinds every live process and releases all worker coroutines.
// The pending events are dropped, then each live process is resumed with
// killing set: a body parked in block() unwinds via procKilled, and a
// never-started body is skipped, so the live set drains to zero without
// running any further simulation.
func (e *Engine) abort() {
	e.killing = true
	e.queue, e.lane, e.laneHead = nil, nil, 0
	for n := len(e.live); n > 0; n = len(e.live) {
		e.kill(e.live[n-1])
	}
	e.shutdown()
}

// kill unwinds one live process. Coroutine-backed processes unwind via
// the procKilled panic; lightweight processes have no stack to unwind, so
// dropping the armed continuation retires them directly.
func (e *Engine) kill(p *Proc) {
	if p.light {
		p.cont = nil
		p.start = nil
		e.finishLight(p)
		return
	}
	p.w.next()
	if !p.done { // its coroutine already died with a body panic
		e.retire(p)
	}
}

// shutdown releases the idle worker coroutines so engines do not pin
// goroutines after their run completes, and folds the engine's activity
// counters into the process-wide totals.
func (e *Engine) shutdown() {
	for i, w := range e.idleWorkers {
		w.stop()
		e.idleWorkers[i] = nil
	}
	e.idleWorkers = e.idleWorkers[:0]
	e.publishActivity()
}

// WaitQueue is a FIFO of blocked processes, the building block for
// higher-level synchronization (mailboxes, barriers, locks).
//
// It is a head-indexed ring over one backing slice: WakeOne advances head
// instead of re-slicing, and Wait compacts the live tail back to the front
// once the dead prefix dominates, so sustained Wait/WakeOne churn reuses
// constant storage instead of crawling through the backing array. After a
// burst, the backing array is released once the queue drains if it dwarfs
// the high-watermark of the era that follows — a queue that once held 10k
// waiters must not pin 10k slots for the engine's lifetime.
type WaitQueue struct {
	waiters []*Proc
	head    int
	// maxLive is the largest Len() observed since the queue last went
	// empty; it is the shrink heuristic's estimate of steady-state demand.
	maxLive int
}

// shrinkMinCap is the capacity below which a drained queue never releases
// its backing array: reallocating tiny slices would defeat the zero-alloc
// steady state for the common small queues (mailboxes, barriers).
const shrinkMinCap = 64

// maybeShrink releases an oversized backing array once the queue is
// empty. Called only at empty transitions.
func (q *WaitQueue) maybeShrink() {
	if cap(q.waiters) >= shrinkMinCap && q.maxLive < cap(q.waiters)/4 {
		q.waiters = nil
	}
	q.maxLive = 0
}

// enqueue appends p, compacting the dead prefix when it dominates.
func (q *WaitQueue) enqueue(p *Proc) {
	if q.head > 0 && q.head*2 >= len(q.waiters) {
		n := copy(q.waiters, q.waiters[q.head:])
		for i := n; i < len(q.waiters); i++ {
			q.waiters[i] = nil
		}
		q.waiters = q.waiters[:n]
		q.head = 0
	}
	q.waiters = append(q.waiters, p)
	if live := len(q.waiters) - q.head; live > q.maxLive {
		q.maxLive = live
	}
}

// Wait blocks the calling process until another process wakes it.
func (q *WaitQueue) Wait(p *Proc, why string) {
	q.enqueue(p)
	p.block(stateBlockedQueue, why)
}

// WaitThen enqueues the process and runs k once another process wakes it:
// the continuation form of Wait, usable from either backing (see
// Proc.SleepThen for the dispatch contract).
func (q *WaitQueue) WaitThen(p *Proc, why string, k func()) {
	if !p.light {
		q.Wait(p, why)
		k()
		return
	}
	q.enqueue(p)
	p.park(stateBlockedQueue, why, k)
}

// WakeOne wakes the oldest waiter, if any, at the current time.
// It returns true if a process was woken.
func (q *WaitQueue) WakeOne(e *Engine) bool {
	if q.head == len(q.waiters) {
		return false
	}
	p := q.waiters[q.head]
	// Nil the vacated slot: advancing head alone would pin the woken
	// process in the backing array for the queue's lifetime.
	q.waiters[q.head] = nil
	q.head++
	if q.head == len(q.waiters) {
		q.waiters = q.waiters[:0]
		q.head = 0
		q.maybeShrink()
	}
	e.scheduleResume(e.now, p)
	return true
}

// WakeAll wakes every waiter in FIFO order at the current time.
func (q *WaitQueue) WakeAll(e *Engine) {
	for i := q.head; i < len(q.waiters); i++ {
		e.scheduleResume(e.now, q.waiters[i])
		q.waiters[i] = nil
	}
	q.waiters = q.waiters[:0]
	q.head = 0
	q.maybeShrink()
}

// Len reports the number of blocked processes.
func (q *WaitQueue) Len() int { return len(q.waiters) - q.head }

// almostZero is the byte threshold below which a flow counts as complete;
// it absorbs float64 rounding from incremental settling.
const almostZero = 1e-6
