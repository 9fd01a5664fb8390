package core

import (
	"math"
	"runtime"
	"testing"

	"multicore/internal/mpi"
)

// ringHalo is the scale smoke workload: a few steps of compute plus a
// shift around the rank ring — the halo-exchange skeleton of the paper's
// stencil kernels, cheap enough that 10k ranks simulate in seconds.
func ringHalo(steps int, bytes float64) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		n := r.Size()
		right, left := (r.ID()+1)%n, (r.ID()+n-1)%n
		for s := 0; s < steps; s++ {
			r.Compute(1e6, 0.9)
			r.Sendrecv(right, bytes, left)
		}
	}
}

// scaleJob is a Longs cluster sized to total ranks (16 ranks per node).
func scaleJob(totalRanks int) Job {
	return Job{
		System: "longs",
		Ranks:  16,
		Nodes:  totalRanks / 16,
		Net:    mpi.RapidArray(),
		Impl:   mpi.MPICH2(),
	}
}

// fingerprint reduces a result to the values a scale regression would
// disturb: the exact makespan bits plus traffic totals.
func fingerprint(res *mpi.Result) [3]uint64 {
	return [3]uint64{math.Float64bits(res.Time), uint64(res.Messages), math.Float64bits(res.Bytes)}
}

// TestScaleSmoke10kRanks: a 10240-rank Longs-cluster ring halo must
// complete, reproduce bit-identically across runs, and stay within a flat
// per-rank memory budget — the engine scale-up contract. Skipped under
// -short.
func TestScaleSmoke10kRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-rank smoke test skipped in -short mode")
	}
	const totalRanks = 10240

	// Sample the footprint mid-run, from inside rank 0's last step: every
	// rank process is alive, helpers and flows are churning — the point a
	// per-rank memory regression is visible. (Measuring after Run would
	// miss it: workers and their stacks are released at shutdown.)
	var mid runtime.MemStats
	body := func(r *mpi.Rank) {
		n := r.Size()
		right, left := (r.ID()+1)%n, (r.ID()+n-1)%n
		for s := 0; s < 3; s++ {
			r.Compute(1e6, 0.9)
			r.Sendrecv(right, 4096, left)
			if s == 2 && r.ID() == 0 {
				runtime.ReadMemStats(&mid)
			}
		}
	}
	res, err := Run(scaleJob(totalRanks), body)
	if err != nil {
		t.Fatalf("10k-rank cell failed: %v", err)
	}

	if res.Time <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if got := res.Stats.Spawns; got < totalRanks {
		t.Errorf("spawned %d processes, want >= %d ranks", got, totalRanks)
	}

	// Flat memory: O(ranks) with a small constant. Each rank body still
	// owns a goroutine (user bodies are arbitrary synchronous code), so
	// ~4KB/rank of stack is inherent; helpers, messages, and flows ride
	// the continuation/arena paths and add heap measured in hundreds of
	// bytes per rank plus uncollected garbage. Today the cell sits around
	// 10KB/rank mid-run; 32KB/rank is loose enough for GC-timing noise
	// yet fails fast if helpers regress to goroutines (stack blow-up) or
	// spawn/teardown starts allocating per message.
	perRank := (mid.HeapAlloc + mid.StackInuse) / totalRanks
	t.Logf("mid-run footprint %d B/rank: heap %d B/rank + stacks %d B/rank",
		perRank, mid.HeapAlloc/totalRanks, mid.StackInuse/totalRanks)
	if perRank > 32*1024 {
		t.Errorf("mid-run footprint %d B/rank (heap %d MB + stacks %d MB), want <= 32KB/rank",
			perRank, mid.HeapAlloc>>20, mid.StackInuse>>20)
	}
	if stackPerRank := mid.StackInuse / totalRanks; stackPerRank > 12*1024 {
		t.Errorf("mid-run stacks %d B/rank, want <= 12KB/rank (one goroutine per rank, none per helper)",
			stackPerRank)
	}

	// Determinism: a second run must produce the same bits.
	base := fingerprint(res)
	again, err := Run(scaleJob(totalRanks), ringHalo(3, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(again) != base {
		t.Errorf("serial rerun fingerprint %v, want %v", fingerprint(again), base)
	}
}
