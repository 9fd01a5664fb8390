package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"multicore/internal/affinity"
	"multicore/internal/fault"
	"multicore/internal/report"
	"multicore/internal/sim"
	"multicore/internal/store"
)

// The paper's evaluation is a grid of independent cells — every
// (system, ranks, scheme, workload) combination owns a private simulation
// engine — so tables can execute their cells on a worker pool and collect
// results by index, keeping the emitted artifacts byte-identical to a
// serial run. A Runner owns the pool plus a per-run result cache that
// deduplicates cells shared by several artifacts (e.g. Table 13 and
// Table 14 analyze the same POP runs), and optionally a persistent
// on-disk store so interrupted sweeps resume instead of restarting.

// Options configures a Runner. The zero value gives the historical
// defaults: GOMAXPROCS-wide parallelism, in-memory caching only, no
// per-cell timeout, no tracing.
type Options struct {
	// Parallelism bounds the number of cells simulating concurrently
	// across all tables; < 1 means GOMAXPROCS.
	Parallelism int
	// Store, when non-nil, persists every completed cell and serves
	// repeat runs from disk (mcbench -store).
	Store *store.Store
	// Resume re-runs cells whose stored status is "error" instead of
	// reporting the recorded failure (mcbench -resume).
	Resume bool
	// CellTimeout bounds each cell's wall-clock simulation time; zero
	// disables the bound. A cell that exceeds it reports a
	// *sim.CanceledError instead of stalling the sweep.
	CellTimeout time.Duration
	// TraceDir, when non-empty, writes one Chrome trace file per cell
	// routed through runJob (mcbench -trace).
	TraceDir string
	// Faults, when non-nil, injects the plan's deterministic perturbations
	// into every cell (mcbench -faults). The canonical plan string and its
	// seed join the store key, so perturbed results never alias clean ones.
	Faults *fault.Plan
	// Retries bounds re-attempts of a cell that fails with a transient
	// error (fault.IsTransient); zero disables retrying. Deterministic
	// failures — panics, deadlocks, infeasible placements — are never
	// retried.
	Retries int
	// RetryBackoff is the base delay before the first retry; it doubles
	// per attempt with deterministic seeded jitter. Zero retries
	// immediately.
	RetryBackoff time.Duration
}

// Runner executes experiments: it owns the worker pool, the in-process
// cell cache, the optional persistent store, and the cancellation
// context. Independent Runners share nothing, so tests and mcbench's
// per-experiment -json timing mode get isolation by constructing fresh
// ones.
type Runner struct {
	ctx context.Context

	mu           sync.Mutex
	opts         Options
	cache        map[CellKey]*cacheEntry
	traceWritten map[string]bool
	errs         []error

	cellsRun  atomic.Int64
	storeHits atomic.Int64
}

// NewRunner builds a runner. A nil ctx means context.Background(); the
// sweep stops claiming new cells and aborts in-flight engines when ctx
// is canceled.
func NewRunner(ctx context.Context, opts Options) *Runner {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		ctx:          ctx,
		opts:         opts,
		cache:        map[CellKey]*cacheEntry{},
		traceWritten: map[string]bool{},
	}
}

// Context returns the runner's cancellation context.
func (r *Runner) Context() context.Context { return r.ctx }

// Run executes one experiment at the given scale. A panic anywhere in
// the experiment body is captured as an error — one broken artifact must
// not kill the rest of a sweep. When the runner's context is canceled
// the partial tables are discarded and the context error is returned, so
// callers never emit half-computed artifacts.
func (r *Runner) Run(e Experiment, s Scale) (tables []*report.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: %s panicked: %v", e.ID, p)
		}
	}()
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	tables = e.Run(r, s)
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	return tables, nil
}

func (r *Runner) parallelism() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opts.Parallelism
}

// SetTraceDir enables per-cell trace capture into dir; "" disables.
func (r *Runner) SetTraceDir(dir string) {
	r.mu.Lock()
	r.opts.TraceDir = dir
	r.traceWritten = map[string]bool{}
	r.mu.Unlock()
}

// CellsRun reports how many cells were actually simulated (store hits
// and in-process cache hits excluded).
func (r *Runner) CellsRun() int { return int(r.cellsRun.Load()) }

// StoreHits reports how many cells were served from the persistent
// store without simulating.
func (r *Runner) StoreHits() int { return int(r.storeHits.Load()) }

// CellErrors returns the distinct non-infeasible cell failures recorded
// so far (bounded; tables render such cells as ERR, this keeps the
// messages). Cancellation errors are not recorded — they describe the
// sweep stopping, not a cell failing.
func (r *Runner) CellErrors() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]error, len(r.errs))
	copy(out, r.errs)
	return out
}

const maxRecordedErrs = 32

func (r *Runner) noteErr(err error) {
	if isCanceled(err) {
		return
	}
	r.mu.Lock()
	if len(r.errs) < maxRecordedErrs {
		r.errs = append(r.errs, err)
	}
	r.mu.Unlock()
}

func (r *Runner) store() *store.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opts.Store
}

func (r *Runner) resume() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opts.Resume
}

// Faults returns the runner's fault plan, nil when unperturbed.
func (r *Runner) Faults() *fault.Plan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opts.Faults
}

func (r *Runner) retryPolicy() (int, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opts.Retries, r.opts.RetryBackoff
}

// jobContext derives the context one cell simulates under: the runner's
// context, bounded by the per-cell wall-clock timeout when configured.
func (r *Runner) jobContext() (context.Context, context.CancelFunc) {
	r.mu.Lock()
	d := r.opts.CellTimeout
	r.mu.Unlock()
	if d > 0 {
		return context.WithTimeout(r.ctx, d)
	}
	return r.ctx, func() {}
}

// workerPanic carries a worker goroutine's panic to the caller.
type workerPanic struct{ v any }

// parMap evaluates fn(0..n-1) on the runner's worker pool and returns
// the results in index order. With parallelism 1 it degenerates to a
// plain loop on the calling goroutine. A panicking fn re-panics on the
// caller (Runner.Run converts that into an experiment error). When the
// runner's context is canceled workers stop claiming indices — the
// partial results are discarded by Runner.Run, so the holes are never
// rendered.
func parMap[T any](r *Runner, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	workers := r.parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			if r.ctx.Err() != nil {
				break
			}
			out[i] = fn(i)
		}
		return out
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64

		panicOnce sync.Once
		panicked  *workerPanic
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if r.ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							// Exhaust the index feed first, so other
							// workers stop claiming cells instead of
							// simulating the rest of the grid before the
							// re-panic. A lock-free store cannot be held
							// off by workers contending for the feed.
							next.Store(int64(n))
							panicOnce.Do(func() { panicked = &workerPanic{v: p} })
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked.v)
	}
	return out
}

// CellKey identifies one simulated cell for the result cache and the
// persistent store. Workload must encode every run parameter beyond the
// placement coordinates (kernel, problem class, step count, ...); two
// cells with equal keys must be byte-for-byte the same simulation.
type CellKey struct {
	Workload string
	System   string
	Ranks    int
	Scheme   affinity.Scheme
	Scale    Scale
}

func (k CellKey) String() string {
	return fmt.Sprintf("%s/%s/r%d/%s/%s", k.Workload, k.System, k.Ranks, k.Scheme, k.Scale)
}

// storeKey maps the in-process key to the persistent store's identity.
// sim.ModelVersion participates so entries from an older engine
// generation never alias current results; the runner's fault plan (its
// canonical string and seed) participates so perturbed results never
// alias clean ones.
func (r *Runner) storeKey(k CellKey) store.Key {
	sk := store.Key{
		Workload: k.Workload,
		System:   k.System,
		Ranks:    k.Ranks,
		Scheme:   k.Scheme.String(),
		Scale:    k.Scale.String(),
		Model:    sim.ModelVersion,
	}
	if plan := r.Faults(); plan != nil {
		sk.Faults = plan.String()
		sk.FaultSeed = plan.Seed()
	}
	return sk
}

type cacheEntry struct {
	once sync.Once
	val  any
	err  error
}

func (r *Runner) entry(key CellKey) *cacheEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cache[key]
	if !ok {
		e = &cacheEntry{}
		r.cache[key] = e
	}
	return e
}

// runCell memoizes fn by key for the life of the runner, consulting the
// persistent store first when one is configured. Concurrent callers of
// the same key block until the first finishes, so duplicate cells
// simulate exactly once even under the parallel executor. A panicking
// fn is captured as the cell's error (and recorded in the store) rather
// than unwinding the sweep.
//
// T must round-trip through encoding/json unchanged for stored results
// to reproduce byte-identical tables; float64s and structs of exported
// float64 fields do.
func runCell[T any](r *Runner, key CellKey, fn func() (T, error)) (T, error) {
	e := r.entry(key)
	e.once.Do(func() {
		e.val, e.err = computeCell(r, key, fn)
	})
	if e.err != nil {
		var zero T
		return zero, e.err
	}
	v, ok := e.val.(T)
	if !ok {
		panic(fmt.Sprintf("experiments: cell %+v cached as %T, requested as different type", key, e.val))
	}
	return v, nil
}

func computeCell[T any](r *Runner, key CellKey, fn func() (T, error)) (any, error) {
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	st := r.store()
	sk := r.storeKey(key)
	if st != nil {
		if v, err, served := loadCell[T](r, st, key, sk); served {
			return v, err
		}
	}
	v, err := runWithRetries(r, key, fn)
	r.cellsRun.Add(1)
	if err != nil && !isInfeasible(err) {
		r.noteErr(err)
	}
	if st != nil {
		r.persistCell(sk, v, err)
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// loadCell serves a cell from the persistent store. served=false means
// a miss (absent, corrupt, or an error entry being retried under
// -resume) and the caller must simulate.
func loadCell[T any](r *Runner, st *store.Store, key CellKey, sk store.Key) (any, error, bool) {
	ent, err := st.Get(sk)
	if err != nil {
		// Schema mismatch or tampered entry: surface it, don't guess.
		r.noteErr(err)
		return nil, err, true
	}
	if ent == nil {
		return nil, nil, false
	}
	switch ent.Status {
	case store.StatusOK:
		var v T
		if err := json.Unmarshal(ent.Value, &v); err != nil {
			return nil, nil, false // undecodable value: re-run the cell
		}
		r.storeHits.Add(1)
		return v, nil, true
	case store.StatusInfeasible:
		r.storeHits.Add(1)
		return nil, &affinity.ErrInfeasible{Scheme: key.Scheme, Ranks: key.Ranks, System: key.System}, true
	case store.StatusError:
		if r.resume() {
			return nil, nil, false // -resume retries recorded failures
		}
		r.storeHits.Add(1)
		err := fmt.Errorf("experiments: cell %s failed in an earlier run (re-run with -resume to retry): %s", key, ent.Error)
		r.noteErr(err)
		return nil, err, true
	}
	return nil, nil, false // unknown status: treat as a miss
}

// persistCell records a completed cell. Cancellation and timeout
// outcomes are never persisted — they depend on wall-clock conditions,
// not on the cell — so the cell re-runs next time.
func (r *Runner) persistCell(sk store.Key, v any, err error) {
	st := r.store()
	var perr error
	switch {
	case err == nil:
		perr = st.Put(sk, v)
	case isInfeasible(err):
		perr = st.PutInfeasible(sk)
	case isCanceled(err):
		return
	default:
		perr = st.PutError(sk, err.Error())
	}
	if perr != nil {
		r.noteErr(perr)
	}
}

// runWithRetries attempts a cell up to 1+Retries times. Only transient
// failures (fault.IsTransient) are retried: injected chaos and flaky
// resources depend on the attempt, while panics, deadlocks, and
// infeasible placements are properties of the cell and repeat
// identically. Between attempts it backs off exponentially from
// RetryBackoff with deterministic seeded jitter — reproducible given the
// plan seed, but decorrelated across cells so a sweep's retries don't
// stampede. Cancellation cuts the backoff short. When the budget is
// exhausted the last transient error is returned: the cell renders as
// ERR and is recorded once, exactly like any other failed cell.
func runWithRetries[T any](r *Runner, key CellKey, fn func() (T, error)) (T, error) {
	plan := r.Faults()
	retries, backoff := r.retryPolicy()
	cell := key.String()
	var seed int64
	if plan != nil {
		seed = plan.Seed()
	}
	var v T
	var err error
	for attempt := 0; ; attempt++ {
		v, err = runAttempt(r, key, plan, cell, attempt, fn)
		if err == nil || !fault.IsTransient(err) || isCanceled(err) || attempt >= retries {
			return v, err
		}
		if backoff > 0 {
			d := time.Duration(float64(backoff) * math.Pow(2, float64(attempt)) *
				fault.BackoffJitter(seed, cell, attempt))
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-r.ctx.Done():
				t.Stop()
				var zero T
				return zero, r.ctx.Err()
			}
		}
	}
}

// runAttempt is one try at a cell: the fault plan may inject a transient
// failure for this (cell, attempt) before the simulation runs.
func runAttempt[T any](r *Runner, key CellKey, plan *fault.Plan, cell string, attempt int, fn func() (T, error)) (T, error) {
	if plan != nil {
		if ferr := plan.CellError(cell, attempt); ferr != nil {
			var zero T
			return zero, ferr
		}
	}
	return runIsolated(key, fn)
}

// runIsolated invokes fn, converting a panic into an error so one
// broken cell renders as ERR instead of killing the sweep.
func runIsolated[T any](key CellKey, fn func() (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: cell %s panicked: %v", key, p)
		}
	}()
	return fn()
}

func isInfeasible(err error) bool {
	var inf *affinity.ErrInfeasible
	return errors.As(err, &inf)
}

// isCanceled reports whether err describes the sweep being stopped (ctx
// cancellation, a cell deadline, or an engine abort) rather than the
// cell itself failing.
func isCanceled(err error) bool {
	var ce *sim.CanceledError
	return errors.As(err, &ce) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
