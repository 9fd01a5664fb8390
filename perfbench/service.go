package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"multicore/internal/analytic"
	"multicore/internal/experiments"
	"multicore/internal/schema"
	"multicore/internal/sweepd"
)

// The service workload runs the sweep service in-process: a durable
// coordinator (journal in a private state directory) on a loopback
// listener, two workers with one slot each sharing a private store, and
// one client. It runs in rounds, each on a fresh service so that every
// round starts from the same state: the client submits one screened bulk
// sweep at priority 0, then runs a closed loop of single-cell sweeps at
// priority 9, alternating a cold cell (never computed: lease, simulate,
// store put, journal append) with a warm one (finalized by the bulk
// sweep and dropped from the coordinator's memory, so a worker serves it
// from the store). Rounds repeat until the measurement time is used.

const (
	serviceWorkers = 2
	// serviceLease makes the coordinator's janitor run every 500ms, and
	// serviceRetention lets it drop each finished sweep at its next run,
	// so a warm request reaches a worker and the store instead of the
	// coordinator's memory of a recent sweep.
	serviceLease     = 2 * time.Second
	serviceRetention = time.Millisecond
	// roundPairs is each round's number of cold and of warm requests: a
	// fixed amount of work, so a round's counts are exact and its
	// journal compacts at the same points in every round.
	roundPairs = 1000
)

// service is one running coordinator with its workers.
type service struct {
	coord   *sweepd.Coordinator
	srv     *http.Server
	served  chan error
	base    string
	workers []*sweepd.Worker
	cancel  context.CancelFunc
	running sync.WaitGroup
}

// startService brings a coordinator and n workers up in dir and returns
// once every worker has registered.
func startService(dir string, n int) (*service, error) {
	c, err := sweepd.NewCoordinator(sweepd.CoordinatorOptions{
		StateDir:       filepath.Join(dir, "state"),
		Lease:          serviceLease,
		SweepRetention: serviceRetention,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{coord: c, srv: &http.Server{Handler: c.Handler()}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), cancel: cancel}
	go func() { s.served <- s.srv.Serve(ln) }()
	for i := 0; i < n; i++ {
		w, err := sweepd.NewWorker(sweepd.WorkerOptions{
			Coordinator: s.base, Store: filepath.Join(dir, "store"),
			Name: fmt.Sprintf("w%d", i), Parallelism: 1,
		})
		if err != nil {
			s.stop()
			return nil, err
		}
		s.workers = append(s.workers, w)
		s.running.Add(1)
		go func() {
			defer s.running.Done()
			w.Run(ctx)
		}()
	}
	if err := s.waitFor(func(st sweepd.Status) bool { return st.Workers == n }); err != nil {
		s.stop()
		return nil, fmt.Errorf("waiting for %d workers: %v", n, err)
	}
	return s, nil
}

// stop shuts the workers down, then the listener, then the coordinator,
// and waits for each.
func (s *service) stop() {
	s.cancel()
	s.running.Wait()
	s.srv.Close()
	<-s.served
	s.coord.Close()
}

func (s *service) status() (sweepd.Status, error) {
	var st sweepd.Status
	resp, err := http.Get(s.base + sweepd.PathStatus)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitFor polls the coordinator's status until ok holds, for at most
// ten seconds.
func (s *service) waitFor(ok func(sweepd.Status) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.status()
		if err == nil && ok(st) {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("status %+v", st)
			}
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (s *service) workerStats() (simulated, storeHits int) {
	for _, w := range s.workers {
		a, b := w.Stats()
		simulated += a
		storeHits += b
	}
	return simulated, storeHits
}

// sweep submits g and collects its results. It returns the time to the
// first result and to the summary.
func (s *service) sweep(ctx context.Context, g sweepd.Grid, screen bool, priority int, client string) (map[string]sweepd.CellResult, *sweepd.Summary, time.Duration, time.Duration, error) {
	var mu sync.Mutex
	results := map[string]sweepd.CellResult{}
	var first time.Duration
	start := time.Now()
	sum, err := sweepd.Submit(ctx, s.base, sweepd.SweepRequest{
		SchemaVersion: schema.Version, Grid: g, Screen: screen, Priority: priority, Client: client,
	}, func(r sweepd.CellResult) {
		mu.Lock()
		defer mu.Unlock()
		if len(results) == 0 {
			first = time.Since(start)
		}
		results[r.Cell.Key()] = r
	})
	total := time.Since(start)
	mu.Lock()
	defer mu.Unlock()
	return results, sum, first, total, err
}

// bulkReference runs the bulk grid through the serial two-tier path:
// screening, then every promoted cell simulated in-process one at a
// time. Every distributed result must carry the same fingerprint.
func bulkReference(g sweepd.Grid) map[string]sweepd.CellResult {
	r := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1})
	ref, _ := sweepd.RunScreened(r, analytic.New(), g, sweepd.ScreenOptions{}, 1)
	return ref
}

// checkBulk compares a bulk sweep with the serial reference and counts
// its cells as attempted and its errors and divergences as failed.
func checkBulk(o *outcome, got, ref map[string]sweepd.CellResult, sum *sweepd.Summary) {
	o.attempted += len(ref)
	bad := 0
	for k, want := range ref {
		if g, ok := got[k]; !ok || g.Fingerprint != want.Fingerprint || g.Status == sweepd.StatusError {
			bad++
		}
	}
	if bad > 0 || len(got) != len(ref) {
		o.fail("bulk sweep: %d of %d cells differ from the serial run (%d results)", bad, len(ref), len(got))
	}
	if sum.Divergent != 0 || sum.Errors != 0 {
		o.fail("bulk sweep: %d divergent, %d errors", sum.Divergent, sum.Errors)
	}
	o.failed += max(bad, sum.Divergent+sum.Errors)
}

// warmPool lists the bulk sweep's simulated cells as single-cell grids,
// in the order the seed's picks give them. Cycling through it reuses a
// cell only after every other one, long after its sweep was dropped.
func warmPool(bulk map[string]sweepd.CellResult, picks []int) []sweepd.Grid {
	var cells []sweepd.CellSpec
	for _, r := range bulk {
		if r.Status == sweepd.StatusOK && r.Promoted {
			cells = append(cells, r.Cell)
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key() < cells[j].Key() })
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return picks[order[a]%len(picks)] < picks[order[b]%len(picks)] })
	pool := make([]sweepd.Grid, len(cells))
	for i, k := range order {
		c := cells[k]
		pool[i] = sweepd.Grid{Workloads: []string{c.Workload}, Systems: []string{c.System}, Ranks: []int{c.Ranks},
			Schemes: []string{c.Scheme}, Scale: c.Scale, Class: c.Class, Steps: c.Steps, N: c.N}
	}
	return pool
}

// loop is the closed loop's record: each request's grid, result and
// latency.
type loop struct {
	coldGrids, warmGrids []sweepd.Grid
	coldRes, warmRes     []sweepd.CellResult
	coldLat, warmLat     []time.Duration
}

// closedLoop alternates cold and warm single-cell sweeps, one pair per
// cold cell.
func (s *service) closedLoop(cold, pool []sweepd.Grid, tr *tracer) (*loop, error) {
	l := &loop{}
	one := func(g sweepd.Grid, name string) (sweepd.CellResult, time.Duration, error) {
		id := tr.begin("sweepd", name, 0)
		res, _, _, d, err := s.sweep(context.Background(), g, false, sweepd.MaxPriority, "interactive")
		tr.end(id)
		if err != nil {
			return sweepd.CellResult{}, d, err
		}
		r, err := cellResult(res, g)
		return r, d, err
	}
	for i := range cold {
		r, d, err := one(cold[i], "sweepd.Submit/cold")
		if err != nil {
			return nil, err
		}
		l.coldGrids, l.coldRes, l.coldLat = append(l.coldGrids, cold[i]), append(l.coldRes, r), append(l.coldLat, d)
		w := pool[i%len(pool)]
		r, d, err = one(w, "sweepd.Submit/warm")
		if err != nil {
			return nil, err
		}
		l.warmGrids, l.warmRes, l.warmLat = append(l.warmGrids, w), append(l.warmRes, r), append(l.warmLat, d)
	}
	return l, nil
}

// check compares every cold result with a serial in-process run of the
// same cell and every warm result with the bulk reference.
func (l *loop) check(o *outcome, ref map[string]sweepd.CellResult) error {
	serial := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1})
	for i, g := range l.coldGrids {
		want, err := cellResult(sweepd.RunLocal(serial, g, 1), g)
		if err != nil {
			return err
		}
		o.attempted++
		if got := l.coldRes[i]; got.Status != sweepd.StatusOK || got.Fingerprint != want.Fingerprint {
			o.failed++
			o.fail("cold %s: %s %s, serial run gave %s %s", g, got.Status, got.Fingerprint, want.Status, want.Fingerprint)
		}
	}
	for i, g := range l.warmGrids {
		o.attempted++
		want := ref[g.Cells()[0].Key()]
		if got := l.warmRes[i]; got.Fingerprint != want.Fingerprint {
			o.failed++
			o.fail("warm %s: fingerprint %s, serial run gave %s", g, got.Fingerprint, want.Fingerprint)
		}
	}
	return nil
}

// dropped waits until the coordinator has dropped every finished sweep.
func (s *service) dropped() error {
	return s.waitFor(func(st sweepd.Status) bool { return st.Sweeps == 0 })
}

// round is one service lifetime's measurements.
type round struct {
	wall  time.Duration // bulk sweep, Submit to summary
	first time.Duration // bulk sweep, Submit to first result
	peak  float64       // MiB over the whole round
	work  activity      // engine work of the bulk sweep
	sum   *sweepd.Summary
	hits  int // store hits during the closed loop
	loop  *loop
}

// runRound runs one bulk sweep and roundPairs request pairs on s, which
// must be fresh, and checks every result against the serial reference.
func runRound(s *service, in inputs, next int, ref map[string]sweepd.CellResult, tr *tracer, o *outcome) (round, error) {
	var r round
	h := startHeapPeak()
	a0 := snapshot()
	id := tr.begin("sweepd", "sweepd.Submit/bulk", 0)
	got, sum, first, wall, err := s.sweep(context.Background(), in.bulk, true, 0, "bulk")
	tr.end(id)
	if err != nil {
		return r, fmt.Errorf("bulk sweep: %v", err)
	}
	r.work, r.sum, r.first, r.wall = snapshot().sub(a0), sum, first, wall
	// Waiting for the janitor to drop the bulk sweep is not a request.
	if err := s.dropped(); err != nil {
		return r, err
	}
	_, hits0 := s.workerStats()
	r.loop, err = s.closedLoop(in.cold[next:next+roundPairs], warmPool(got, in.warmPicks), tr)
	if err != nil {
		return r, err
	}
	_, hits1 := s.workerStats()
	r.hits = hits1 - hits0
	r.peak = h.finish()
	checkBulk(o, got, ref, sum)
	return r, r.loop.check(o, ref)
}

func runService(cfg config) (*outcome, error) {
	o := newOutcome()
	in := cfg.inputs
	dirs := 0
	start := func() (*service, time.Duration, error) {
		// The previous service's files go first, flushed, so that every
		// round starts on the same file system state: freeing blocks costs
		// discards that would otherwise land in the middle of a round.
		if dirs > 0 {
			os.RemoveAll(filepath.Join(cfg.work, fmt.Sprintf("service-%d", dirs)))
			syscall.Sync()
		}
		dirs++
		dir := filepath.Join(cfg.work, fmt.Sprintf("service-%d", dirs))
		var s *service
		var err error
		d := timeIt(func() { s, err = startService(dir, serviceWorkers) })
		return s, d, err
	}
	// The serial reference every distributed result must match; computed
	// before anything is timed.
	ref := bulkReference(in.bulk)
	var setups []float64
	var s *service
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.stop()
		}
		runtime.GC()
		var d time.Duration
		var err error
		if s, d, err = start(); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		if s != nil {
			s.stop()
		}
	}()

	// rounds runs rounds until budget is used, at least one, each after
	// the first of the run on a fresh service.
	next := 0
	rounds := func(budget time.Duration, tr *tracer) ([]round, error) {
		var rs []round
		t0 := time.Now()
		for len(rs) == 0 || time.Since(t0) < budget {
			if next+roundPairs > len(in.cold) {
				return nil, fmt.Errorf("ran out of cold cells after %d rounds", len(rs))
			}
			if next > 0 {
				s.stop()
				var err error
				if s, _, err = start(); err != nil {
					return nil, err
				}
			}
			r, err := runRound(s, in, next, ref, tr, o)
			if err != nil {
				return nil, err
			}
			next += roundPairs
			rs = append(rs, r)
		}
		return rs, nil
	}

	if !cfg.traced {
		o.metrics.set("setup_s", median(setups), "s")
		o.details["setup_s.samples"] = setups
		rs, err := rounds(cfg.seconds, newTracer(false))
		if err != nil {
			return nil, err
		}
		// Each round's numbers, then their median over rounds: a host
		// stall that slows one round moves the median little.
		var walls, peaks []float64
		var p50s, p90s [2][]float64
		for _, r := range rs {
			walls = append(walls, r.wall.Seconds())
			peaks = append(peaks, r.peak)
			for k, lat := range [2][]time.Duration{r.loop.coldLat, r.loop.warmLat} {
				p50, p90, err := tail(lat)
				if err != nil {
					return nil, err
				}
				p50s[k], p90s[k] = append(p50s[k], p50), append(p90s[k], p90)
			}
		}
		o.metrics.set("wall_s", median(walls), "s")
		o.metrics.set("cells_per_s", float64(rs[0].sum.Cells)/median(walls), "1/s")
		o.metrics.set("peak_heap_mib", median(peaks), "MiB")
		for k, name := range []string{"cold", "warm"} {
			o.metrics.set(name+"_p50_ms", median(p50s[k]), "ms")
			o.details[name+"_p90_ms"] = median(p90s[k])
		}
		o.details["rounds"] = len(rs)
		o.details["requests_per_round"] = roundPairs
		guardCounts(o, "service", bulkCounts(rs[0].work, rs[0].sum))
		return o, nil
	}

	// Traced run: one untraced round for the tracing overhead, then one
	// traced round, then the ladder.
	plain, err := rounds(0, newTracer(false))
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	traced, err := rounds(0, tr)
	if err != nil {
		return nil, err
	}
	r := traced[0]
	o.metrics.set("trace.overhead_frac", r.wall.Seconds()/plain[0].wall.Seconds()-1, "fraction")
	setSim(o.metrics, r.work, r.wall)
	setSweep(o.metrics, r.sum, r.first)
	o.metrics.set("sweepd.store_hits", float64(r.hits), "count")
	guardCounts(o, "service", bulkCounts(r.work, r.sum))
	if err := runLadder(cfg, tr, o, ref, false); err != nil {
		return nil, err
	}
	return o, finishTrace(cfg, "service", tr, o)
}

// bulkCounts is the bulk sweep's exact work: what the engine did and
// what screening decided.
func bulkCounts(w activity, sum *sweepd.Summary) map[string]uint64 {
	c := simCounts(w)
	c["sweepd.screened"] = uint64(sum.Screened)
	c["sweepd.promoted"] = uint64(sum.Promoted)
	c["sweepd.simulated"] = uint64(sum.Simulated)
	return c
}

// setSweep reports a screened sweep's counts and its time to first
// result.
func setSweep(m metricSet, sum *sweepd.Summary, first time.Duration) {
	m.set("sweepd.first_result_ms", float64(first)/float64(time.Millisecond), "ms")
	m.set("sweepd.simulated", float64(sum.Simulated), "count")
	m.set("sweepd.screened", float64(sum.Screened), "count")
	m.set("sweepd.promoted", float64(sum.Promoted), "count")
	m.set("sweepd.divergent", float64(sum.Divergent), "count")
}

// post sends one JSON request of the coordinator's worker protocol.
func post(client *http.Client, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hresp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 1024))
		return fmt.Errorf("%s: %s: %s", url, hresp.Status, bytes.TrimSpace(msg))
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(hresp.Body).Decode(resp)
}

// leaseRung times the coordinator alone: the benchmark registers as a
// worker on a coordinator with no other workers, submits the screened
// bulk sweep, and completes each leased cell with its serial result, so
// one poll→complete round trip is service time with no simulation in
// it. When the workload has no sweep of its own, the rung's sweep also
// gives the sweepd counts and the time to first result.
func (l *ladder) leaseRung() error {
	s, err := startService(filepath.Join(l.cfg.work, "lease-rung"), 0)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	type submitted struct {
		got   map[string]sweepd.CellResult
		sum   *sweepd.Summary
		first time.Duration
		err   error
	}
	done := make(chan submitted, 1)
	go func() {
		got, sum, first, _, err := s.sweep(ctx, l.cfg.inputs.bulk, true, 0, "ladder")
		done <- submitted{got, sum, first, err}
	}()
	rtt, err := l.lease(s)
	if err != nil {
		cancel() // the sweep will not complete: stop waiting for it
	}
	sub := <-done
	cancel()
	s.stop()
	if err != nil {
		return err
	}
	if sub.err != nil {
		return fmt.Errorf("lease rung sweep: %v", sub.err)
	}
	checkBulk(l.o, sub.got, l.bulkRef, sub.sum)
	l.o.metrics.set("sweepd.lease_rtt_us", median(durationsIn(rtt, time.Microsecond)), "us")
	if l.rungCounts {
		setSweep(l.o.metrics, sub.sum, sub.first)
		l.o.metrics.set("sweepd.store_hits", float64(sub.sum.StoreHits), "count")
	}
	return nil
}

// lease registers on s as a worker and completes every promoted cell of
// the bulk grid with its serial result, timing each poll→complete round
// trip.
func (l *ladder) lease(s *service) ([]time.Duration, error) {
	client := &http.Client{Timeout: time.Minute}
	var reg sweepd.RegisterResponse
	if err := post(client, s.base+sweepd.PathRegister, sweepd.RegisterRequest{SchemaVersion: schema.Version, Name: "ladder"}, &reg); err != nil {
		return nil, err
	}
	promoted := 0
	for _, r := range l.bulkRef {
		if r.Promoted {
			promoted++
		}
	}
	var rtt []time.Duration
	for empty := 0; len(rtt) < promoted; {
		id := l.tr.begin("sweepd", "sweepd.lease", l.root)
		t0 := time.Now()
		var pr sweepd.PollResponse
		if err := post(client, s.base+sweepd.PathPoll, sweepd.PollRequest{Worker: reg.Worker, WaitMillis: 1000}, &pr); err != nil {
			return nil, err
		}
		if pr.Assignment == nil {
			l.tr.end(id)
			// Only before the sweep is queued can a poll find nothing.
			if empty++; empty == 10 {
				return nil, fmt.Errorf("lease rung: no cell to lease after %d of %d", len(rtt), promoted)
			}
			continue
		}
		res, ok := l.bulkRef[pr.Assignment.Cell.Key()]
		if !ok {
			return nil, fmt.Errorf("lease rung: leased cell %s is not in the reference", pr.Assignment.Cell.Key())
		}
		res.Simulated = true
		if err := post(client, s.base+sweepd.PathComplete, sweepd.CompleteRequest{
			Worker: reg.Worker, ID: pr.Assignment.ID, Attempt: pr.Assignment.Attempt, Result: res,
		}, nil); err != nil {
			return nil, err
		}
		rtt = append(rtt, time.Since(t0))
		l.tr.end(id)
	}
	return rtt, nil
}
