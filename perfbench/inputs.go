package main

import (
	"math/rand"

	"multicore/internal/sweepd"
)

// inputs is everything a workload runs on, generated from the seed
// before any workload code sees it: the order of the paper artifacts,
// the bulk sweep grid (its axes permuted, its cell set fixed so the
// exact counts do not depend on the seed), the cold single-cell
// requests and the picks of warm cells.
type inputs struct {
	paperOrder []string
	bulk       sweepd.Grid
	cold       []sweepd.Grid // one cell each, every cell distinct
	warmPicks  []int         // indexes, taken modulo the warm pool's size
}

// paperSet is the paper workload's artifacts: table2 and fig11 are the
// largest CPU sinks at quick scale, fig8 and ablate-collectives add
// collectives and placement, numa-stream the modern NUMA ladders.
var paperSet = []string{"table2", "fig11", "fig8", "ablate-collectives", "numa-stream"}

// bulkGrid is the service workload's bulk sweep: cheap kernels (well
// under a millisecond to a few milliseconds per cell) on every
// registered machine, so the service path rather than simulation
// dominates. Screening settles the infeasible and clearly ranked cells
// and promotes the rest to simulation.
func bulkGrid() sweepd.Grid {
	ranks := make([]int, 16)
	for i := range ranks {
		ranks[i] = i + 1
	}
	return sweepd.Grid{
		Workloads: []string{"stream", "daxpy", "dgemm", "fft", "ptrans", "lmbench"},
		Systems:   []string{"tiger", "dmz", "longs", "epyc2x4", "hybrid16"},
		Ranks:     ranks,
		Schemes:   []string{"default", "localalloc", "membind", "2mpi-localalloc", "2mpi-membind", "interleave"},
		Scale:     "quick",
	}
}

// coldShapes are the (system, ranks) shapes of cold cells. Each shape
// appears equally often in every seed's request stream, so the latency
// distribution depends on the seed only through the order.
var coldShapes = []struct {
	system string
	ranks  int
}{
	{"dmz", 1}, {"dmz", 2}, {"longs", 1}, {"longs", 2}, {"longs", 4}, {"epyc2x4", 1}, {"epyc2x4", 2}, {"epyc2x4", 4},
}

// maxCold bounds the cold requests one run can make; a closed loop at
// about a millisecond per request stays far below it.
const maxCold = 40000

// coldBaseN is the DAXPY vector length cold cells start from: each cold
// cell adds a distinct offset, which makes it a cell nobody computed.
const coldBaseN = 1 << 22

func generate(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{paperOrder: append([]string(nil), paperSet...), bulk: bulkGrid()}
	shuffle(rng, in.paperOrder)
	shuffle(rng, in.bulk.Workloads)
	shuffle(rng, in.bulk.Systems)
	shuffle(rng, in.bulk.Ranks)
	shuffle(rng, in.bulk.Schemes)

	offsets := rng.Perm(1 << 20)[:maxCold]
	// Shapes are dealt in shuffled rounds, so every prefix of the stream
	// is balanced across shapes to within one round.
	shapes := make([]int, 0, maxCold+len(coldShapes))
	for len(shapes) < maxCold {
		round := rng.Perm(len(coldShapes))
		shapes = append(shapes, round...)
	}
	in.cold = make([]sweepd.Grid, maxCold)
	for i := range in.cold {
		sh := coldShapes[shapes[i]]
		in.cold[i] = sweepd.Grid{
			Workloads: []string{"daxpy"}, Systems: []string{sh.system},
			Ranks: []int{sh.ranks}, Schemes: []string{"default"},
			Scale: "quick", N: coldBaseN + 1 + offsets[i],
		}
	}
	in.warmPicks = make([]int, maxCold)
	for i := range in.warmPicks {
		in.warmPicks[i] = rng.Intn(1 << 30)
	}
	return in
}

func shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
