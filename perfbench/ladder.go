package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"multicore/internal/affinity"
	"multicore/internal/analytic"
	"multicore/internal/core"
	"multicore/internal/experiments"
	"multicore/internal/machine"
	"multicore/internal/mpi"
	"multicore/internal/sim"
	"multicore/internal/store"
	"multicore/internal/sweepd"
	"multicore/internal/sweepd/journal"
	"multicore/internal/topology"
	"multicore/internal/workload"
)

// The ladder times each layer on its own through its public API, in
// every traced run whatever the workload, so a change in a workload's
// end-to-end numbers can be traced to the rung that moved:
//
//	L0 sim: process handoff, event scheduling, flow settling
//	L1 machine: resource-path construction
//	L2 mpi and core: point-to-point and collective operations
//	then one cell (experiments), screening (analytic), the store, the
//	journal and one lease round trip on the coordinator (sweepd).
//
// Every rung does a fixed amount of work, so its counts are exact.

// spanned runs fn inside a span and returns its host time.
func spanned(tr *tracer, layer, name string, parent int, fn func()) time.Duration {
	id := tr.begin(layer, name, parent)
	d := timeIt(fn)
	tr.end(id)
	return d
}

// ladder carries what the rungs share: the serial reference results of
// the bulk grid, computed once per run.
type ladder struct {
	cfg     config
	tr      *tracer
	o       *outcome
	root    int
	bulkRef map[string]sweepd.CellResult
	// rungCounts says the lease rung's sweep supplies the sweepd counts
	// and the time to first result: the workload has no sweep of its own.
	rungCounts bool
}

// runLadder runs every rung. bulkRef is the serial reference of the bulk
// grid when the workload already computed it, else nil.
func runLadder(cfg config, tr *tracer, o *outcome, bulkRef map[string]sweepd.CellResult, rungCounts bool) error {
	if bulkRef == nil {
		bulkRef = bulkReference(cfg.inputs.bulk)
	}
	l := &ladder{cfg: cfg, tr: tr, o: o, bulkRef: bulkRef, rungCounts: rungCounts}
	l.root = tr.begin("bench", "ladder", 0)
	defer tr.end(l.root)
	l.simRung()
	l.machineRung()
	for _, rung := range []func() error{l.mpiRung, l.cellRung, l.analyticRung, l.storeRung, l.journalRung, l.leaseRung} {
		if err := rung(); err != nil {
			return err
		}
	}
	return nil
}

// simRung is L0: a process ping-pong on two WaitQueues (each iteration
// is two handoffs), self-rescheduling events at a heap depth of 64, and
// flows started over a ring of resources at half its capacity, each
// flow sharing both of its resources with its neighbours.
func (l *ladder) simRung() {
	const iters = 100000
	e := sim.NewEngine()
	var qa, qb sim.WaitQueue
	e.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			qb.Wait(p, "pong")
			qa.WakeOne(e)
		}
	})
	e.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			for !qb.WakeOne(e) {
				p.Sleep(0)
			}
			qa.Wait(p, "ping")
		}
	})
	d := spanned(l.tr, "sim", "sim.Engine.Run/handoff", l.root, e.Run)
	l.o.metrics.set("sim.handoff_ns", float64(d.Nanoseconds())/(2*iters), "ns")

	const chains, events = 64, 1000000
	e = sim.NewEngine()
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired <= events-chains {
			e.At(e.Now()+1e-9, tick)
		}
	}
	d = spanned(l.tr, "sim", "sim.Engine.At", l.root, func() {
		for i := 0; i < chains; i++ {
			e.At(float64(i)*1e-12, tick)
		}
		e.Run()
	})
	l.o.metrics.set("sim.schedule_ns", float64(d.Nanoseconds())/float64(fired), "ns")

	const flows = 20000
	e = sim.NewEngine()
	net := e.Net()
	res := make([]*sim.Resource, 4)
	for i := range res {
		res[i] = sim.NewResource(fmt.Sprintf("r%d", i), 1e9)
	}
	for i := 0; i < flows; i++ {
		path := []*sim.Resource{res[i%4], res[(i+1)%4]}
		bytes := 1e3 + float64(i%16)*64
		e.At(float64(i)*1e-6, func() { net.Start("settle", bytes, path, 0) })
	}
	a0 := snapshot()
	d = spanned(l.tr, "sim", "sim.FlowNet.Start", l.root, e.Run)
	if w := snapshot().sub(a0); w.settles > 0 {
		l.o.metrics.set("sim.settle_us", float64(d.Microseconds())/float64(w.settles), "us")
	}
}

// machineRung is L1: ReadPath, WritePath and CopyPath over every (core,
// source node, destination node) on longs and epyc2x4.
func (l *ladder) machineRung() {
	var ms []*machine.Machine
	for _, name := range []string{"longs", "epyc2x4"} {
		ms = append(ms, machine.New(sim.NewEngine(), machine.Lookup(name)))
	}
	const reps = 20
	calls := 0
	a0 := snapshot()
	d := spanned(l.tr, "machine", "machine.Path", l.root, func() {
		for r := 0; r < reps; r++ {
			for _, m := range ms {
				topo := m.Topo()
				for c := 0; c < topo.NumCores(); c++ {
					core := topology.CoreID(c)
					for s := 0; s < topo.NumSockets; s++ {
						src := topology.SocketID(s)
						m.ReadPath(core, src)
						m.WritePath(core, src)
						for t := 0; t < topo.NumSockets; t++ {
							m.CopyPath(core, src, topology.SocketID(t))
						}
						calls += 2 + topo.NumSockets
					}
				}
			}
		}
	})
	w := snapshot().sub(a0)
	l.o.metrics.set("machine.path_ns", float64(d.Nanoseconds())/float64(calls), "ns")
	l.o.metrics.set("machine.path_allocs", float64(w.mallocs)/float64(calls), "allocs/path")
}

// mpiRung is L2: host time per MPI operation, each kind run as one
// core.Run job: eager and rendezvous ping-pong between two ranks on
// tiger, and allreduce over 8 ranks on one Longs node and over 64 ranks
// on four.
func (l *ladder) mpiRung() error {
	pingPong := func(iters int, bytes float64) func(*mpi.Rank) {
		return func(r *mpi.Rank) {
			for i := 0; i < iters; i++ {
				if r.ID() == 0 {
					r.Send(1, bytes)
					r.Recv(1)
				} else {
					r.Recv(0)
					r.Send(0, bytes)
				}
			}
		}
	}
	allreduce := func(iters int) func(*mpi.Rank) {
		return func(r *mpi.Rank) {
			for i := 0; i < iters; i++ {
				r.Allreduce(8)
			}
		}
	}
	rungs := []struct {
		metric string
		job    core.Job
		body   func(*mpi.Rank)
		ops    int
	}{
		{"mpi.eager_us", core.Job{System: "tiger", Ranks: 2}, pingPong(2000, 1024), 4000},
		{"mpi.rendezvous_us", core.Job{System: "tiger", Ranks: 2}, pingPong(500, 1<<20), 1000},
		{"mpi.allreduce8_us", core.Job{System: "longs", Ranks: 8}, allreduce(500), 500},
		{"mpi.allreduce64_us", core.Job{System: "longs", Ranks: 16, Nodes: 4, Net: mpi.RapidArray()}, allreduce(100), 100},
	}
	messages := 0
	for _, rg := range rungs {
		rg.job.Impl = mpi.MPICH2()
		var res *mpi.Result
		var err error
		d := spanned(l.tr, "core", "core.Run/"+rg.metric, l.root, func() { res, err = core.Run(rg.job, rg.body) })
		if err != nil {
			return fmt.Errorf("%s: %v", rg.metric, err)
		}
		messages += res.Messages
		l.o.metrics.set(rg.metric, float64(d.Nanoseconds())/1e3/float64(rg.ops), "us")
	}
	l.o.metrics.set("mpi.messages", float64(messages), "count")
	guardCounts(l.o, "ladder", map[string]uint64{"mpi.messages": uint64(messages)})
	return nil
}

// cellSpec resolves a single-cell grid to RunWorkloadCell's arguments.
func cellSpec(g sweepd.Grid) (workload.Spec, string, int, affinity.Scheme, error) {
	c := g.Cells()[0]
	spec, err := workload.ParseSpec(c.Workload)
	if err != nil {
		return spec, "", 0, 0, err
	}
	spec.Class, spec.Steps, spec.N = c.Class, c.Steps, c.N
	scheme, err := affinity.ParseScheme(c.Scheme)
	return spec, c.System, c.Ranks, scheme, err
}

// rungCells is how many cold cells the cell rung simulates.
const rungCells = 500

// cellRung times RunWorkloadCell on the cold cells, serially in-process
// with no store: one cell's simulation cost, with no service around it.
func (l *ladder) cellRung() error {
	r := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1})
	var lat []time.Duration
	for _, g := range l.cfg.inputs.cold[:rungCells] {
		spec, system, ranks, scheme, err := cellSpec(g)
		if err != nil {
			return err
		}
		var cerr error
		lat = append(lat, spanned(l.tr, "experiments", "experiments.RunWorkloadCell", l.root, func() {
			_, cerr = r.RunWorkloadCell(spec, system, ranks, scheme, experiments.Quick)
		}))
		if cerr != nil {
			return fmt.Errorf("cell %s: %v", g, cerr)
		}
	}
	p50, p90, err := tail(lat)
	if err != nil {
		return fmt.Errorf("cell rung: %v", err)
	}
	l.o.metrics.set("experiments.cell_ms_p50", p50, "ms")
	l.o.metrics.set("experiments.cell_ms_p90", p90, "ms")
	return nil
}

// analyticRung prices the bulk grid: warm Estimator.Cell calls, and
// ScreenGrid with a cold estimator.
func (l *ladder) analyticRung() error {
	g := l.cfg.inputs.bulk
	cells := g.Cells()
	type args struct {
		spec   workload.Spec
		system string
		ranks  int
		scheme affinity.Scheme
	}
	as := make([]args, len(cells))
	for i, c := range cells {
		spec, err := workload.ParseSpec(c.Workload)
		if err != nil {
			return err
		}
		scheme, err := affinity.ParseScheme(c.Scheme)
		if err != nil {
			return err
		}
		as[i] = args{spec, c.System, c.Ranks, scheme}
	}
	e := analytic.New()
	for _, a := range as {
		e.Cell(a.spec, a.system, a.ranks, a.scheme) // warm the estimator's caches
	}
	const reps = 20
	d := spanned(l.tr, "analytic", "analytic.Estimator.Cell", l.root, func() {
		for r := 0; r < reps; r++ {
			for _, a := range as {
				e.Cell(a.spec, a.system, a.ranks, a.scheme)
			}
		}
	})
	l.o.metrics.set("analytic.cell_ns", float64(d.Nanoseconds())/float64(reps*len(as)), "ns")

	var secs []float64
	var decisions []sweepd.ScreenDecision
	for r := 0; r < 9; r++ {
		d := spanned(l.tr, "analytic", "sweepd.ScreenGrid", l.root, func() {
			decisions = sweepd.ScreenGrid(analytic.New(), g, sweepd.ScreenOptions{})
		})
		secs = append(secs, d.Seconds())
	}
	promoted := 0
	for _, d := range decisions {
		if d.Promote {
			promoted++
		}
	}
	l.o.metrics.set("analytic.screen_cells_per_s", float64(len(decisions))/median(secs), "1/s")
	l.o.metrics.set("analytic.promoted_frac", float64(promoted)/float64(len(decisions)), "fraction")
	return nil
}

// storeRung times Get on absent keys, Put, and Get on present keys.
func (l *ladder) storeRung() error {
	st, err := store.Open(filepath.Join(l.cfg.work, "store-rung"))
	if err != nil {
		return err
	}
	const n = 300
	var miss, put, hit []time.Duration
	for i := 0; i < n; i++ {
		k := store.Key{Workload: fmt.Sprintf("daxpy[n=%d]", i+1), System: "tiger", Ranks: 1,
			Scheme: "default", Scale: "quick", Model: sim.ModelVersion}
		var e *store.Entry
		var gerr, perr error
		miss = append(miss, spanned(l.tr, "store", "store.Get/miss", l.root, func() { e, gerr = st.Get(k) }))
		if gerr != nil || e != nil {
			return fmt.Errorf("store rung: miss on %v gave %v, %v", k, e, gerr)
		}
		put = append(put, spanned(l.tr, "store", "store.Put", l.root, func() { perr = st.Put(k, 1.0/float64(i+1)) }))
		if perr != nil {
			return perr
		}
		hit = append(hit, spanned(l.tr, "store", "store.Get/hit", l.root, func() { e, gerr = st.Get(k) }))
		if gerr != nil || e == nil {
			return fmt.Errorf("store rung: hit on %v gave %v, %v", k, e, gerr)
		}
	}
	l.o.metrics.set("store.get_miss_us", median(durationsIn(miss, time.Microsecond)), "us")
	l.o.metrics.set("store.put_us", median(durationsIn(put, time.Microsecond)), "us")
	l.o.metrics.set("store.get_hit_us", median(durationsIn(hit, time.Microsecond)), "us")
	return nil
}

// journalRung appends records the size of a coordinator's cell
// finalization and syncs every 64 of them, as the coordinator does.
func (l *ladder) journalRung() error {
	j, _, _, err := journal.Open(filepath.Join(l.cfg.work, "journal-rung"))
	if err != nil {
		return err
	}
	err = l.journalAppends(j)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
}

func (l *ladder) journalAppends(j *journal.Journal) error {
	payload := []byte(`{"t":"final","id":"daxpy[n=4194305]/longs/r2/default/quick","res":{"cell":{"workload":"daxpy","n":4194305,"system":"longs","ranks":2,"scheme":"default","scale":"quick"},"status":"ok","seconds":0.012345678901234,"fingerprint":"0123456789abcdef","worker":"w-0001","simulated":true,"attempt":1}}`)
	const appends, every = 2048, 64
	var app, syn []time.Duration
	for i := 0; i < appends; i++ {
		var aerr error
		app = append(app, spanned(l.tr, "journal", "journal.Append", l.root, func() { aerr = j.Append(payload) }))
		if aerr != nil {
			return aerr
		}
		if (i+1)%every == 0 {
			var serr error
			syn = append(syn, spanned(l.tr, "journal", "journal.Sync", l.root, func() { serr = j.Sync() }))
			if serr != nil {
				return serr
			}
		}
	}
	l.o.metrics.set("journal.append_us", median(durationsIn(app, time.Microsecond)), "us")
	l.o.metrics.set("journal.sync_ms", median(durationsIn(syn, time.Millisecond)), "ms")
	return nil
}
