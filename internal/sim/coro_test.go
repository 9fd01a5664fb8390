package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to fall back to base and
// fails the test if it does not.
func settleGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, want <= %d", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// spawnMixed populates e with coroutine-backed and lightweight processes
// that exchange wake-ups through q, so both backings are live at once.
func spawnMixed(e *Engine, q *WaitQueue, n int) {
	for i := 0; i < n; i++ {
		e.Spawn("co", func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Sleep(1)
				q.WakeOne(e)
			}
		})
		e.SpawnCont("light", func(p *Proc) {
			q.WaitThen(p, "queue", func() { p.SleepThen(1, func() {}) })
		})
	}
}

// TestSpawnBodyPanicRecoverable: a panic in a coroutine-backed body
// surfaces on the goroutine that called Run, where a deferred recover
// sees the original value, instead of crashing the process from a worker
// goroutine.
func TestSpawnBodyPanicRecoverable(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) { p.Sleep(1); panic("x") })
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != "x" {
		t.Fatalf("recovered %v, want the body's panic value \"x\"", got)
	}
	settleGoroutines(t, base, "body panic")
}

// TestNoGoroutineLeaks: whatever way a run ends — clean drain, deadlock,
// cancellation, or a body panic — every coroutine the engine created is
// released, with coroutine-backed and lightweight processes mixed.
func TestNoGoroutineLeaks(t *testing.T) {
	t.Run("drain", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEngine()
		var q WaitQueue
		spawnMixed(e, &q, 8)
		if err := e.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, base, "clean drain")
	})

	t.Run("deadlock", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEngine()
		var q, stuck WaitQueue
		spawnMixed(e, &q, 4)
		e.Spawn("zeta", func(p *Proc) { p.Sleep(1); stuck.Wait(p, "recv from 1") })
		e.SpawnCont("alpha", func(p *Proc) { stuck.WaitThen(p, "rendezvous to 0", func() {}) })
		e.Spawn("mid", func(p *Proc) { stuck.Wait(p, "barrier") })
		err := e.RunContext(context.Background())
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("got %v, want *DeadlockError", err)
		}
		const want = "sim: deadlock at t=5: 3 live processes, blocked: " +
			"[alpha (rendezvous to 0) mid (barrier) zeta (recv from 1)]"
		if err.Error() != want {
			t.Fatalf("report:\n got %s\nwant %s", err, want)
		}
		settleGoroutines(t, base, "deadlock")
	})

	t.Run("cancel", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEngine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var q WaitQueue
		spawnMixed(e, &q, 4)
		e.Spawn("parked", func(p *Proc) { q.Wait(p, "never") })
		e.Spawn("spinner", func(p *Proc) {
			for {
				p.Sleep(1)
			}
		})
		e.At(100, cancel)
		err := e.RunContext(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		settleGoroutines(t, base, "cancel")
	})

	t.Run("panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEngine()
		var q WaitQueue
		spawnMixed(e, &q, 4)
		e.Spawn("parked", func(p *Proc) { q.Wait(p, "never") })
		e.Spawn("bad", func(p *Proc) { p.Sleep(2); panic("boom") })
		var got any
		func() {
			defer func() { got = recover() }()
			e.RunContext(context.Background())
		}()
		if got != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", got)
		}
		settleGoroutines(t, base, "body panic")
	})
}
