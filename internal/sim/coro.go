//go:build go1.23

package sim

import "iter"

// worker is a pooled coroutine that runs coroutine-backed process bodies
// one after another. Its iter.Pull sequence loops over bodies, so process
// churn creates no new coroutines. Resuming the bound process is one
// switch into the worker (next); blocking is one switch back (yield). A
// body's panic is re-raised by next on the scheduler goroutine.
type worker struct {
	p     *Proc // the process the worker is bound to (set by Spawn)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func (e *Engine) newWorker() *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			p := w.p
			body := p.start
			p.start = nil
			if !e.killing { // a kill before first resume skips the body entirely
				runBody(p, body)
			}
			w.p = nil
			e.retire(p)
			e.idleWorkers = append(e.idleWorkers, w)
			if !yield(struct{}{}) { // stopped by shutdown
				return
			}
		}
	})
	return w
}
