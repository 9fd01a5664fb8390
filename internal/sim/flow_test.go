package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refFill is the reference rate assignment: one global progressive-filling
// pass over every active flow, the straightforward map-based algorithm the
// incremental component-restricted implementation must reproduce.
func refFill(flows []*Flow) map[*Flow]float64 {
	type rstate struct {
		avail  float64
		active int
	}
	state := map[*Resource]*rstate{}
	for _, f := range flows {
		for _, r := range f.path {
			s, ok := state[r]
			if !ok {
				s = &rstate{avail: r.Cap}
				state[r] = s
			}
			s.active++
		}
	}
	rates := map[*Flow]float64{}
	unfrozen := append([]*Flow(nil), flows...)
	sort.Slice(unfrozen, func(i, j int) bool { return unfrozen[i].seq < unfrozen[j].seq })
	level := 0.0
	for len(unfrozen) > 0 {
		inc := math.Inf(1)
		for _, f := range unfrozen {
			if f.ceiling > 0 {
				if d := f.ceiling - level; d < inc {
					inc = d
				}
			}
			for _, r := range f.path {
				if s := state[r]; s.active > 0 {
					if d := s.avail / float64(s.active); d < inc {
						inc = d
					}
				}
			}
		}
		if math.IsInf(inc, 1) {
			for _, f := range unfrozen {
				rates[f] = math.Inf(1)
			}
			break
		}
		if inc < 0 {
			inc = 0
		}
		level += inc
		for _, s := range state {
			s.avail -= inc * float64(s.active)
			if s.avail < 0 {
				s.avail = 0
			}
		}
		next := unfrozen[:0]
		for _, f := range unfrozen {
			frozen := false
			if f.ceiling > 0 && level >= f.ceiling*(1-1e-12) {
				frozen = true
			}
			if !frozen {
				for _, r := range f.path {
					if state[r].avail <= 1e-9*r.Cap {
						frozen = true
						break
					}
				}
			}
			rates[f] = level
			if frozen {
				for _, r := range f.path {
					state[r].active--
				}
			} else {
				next = append(next, f)
			}
		}
		if len(next) == len(unfrozen) {
			break
		}
		unfrozen = next
	}
	return rates
}

// TestIncrementalMatchesReference drives randomized overlapping flow sets
// through the engine and checks, at every admission and at random probe
// times, that the incrementally-maintained rates equal a from-scratch
// progressive filling over the whole active set.
func TestIncrementalMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := e.net
		nRes := 2 + rng.Intn(6)
		res := make([]*Resource, nRes)
		for i := range res {
			res[i] = NewResource(fmt.Sprintf("r%d", i), 50+rng.Float64()*500)
		}
		check := func(when string) {
			// Admissions are settled lazily; flush so the incremental
			// rates are current before comparing against the reference.
			if n.dirty {
				n.flush()
			}
			ref := refFill(n.flows)
			for _, f := range n.flows {
				want := ref[f]
				if math.IsInf(want, 1) != math.IsInf(f.rate, 1) {
					t.Fatalf("seed %d %s: flow %d rate=%v ref=%v", seed, when, f.seq, f.rate, want)
				}
				if math.IsInf(want, 1) {
					continue
				}
				if diff := math.Abs(f.rate - want); diff > 1e-9*(1+want) {
					t.Fatalf("seed %d %s: flow %d rate=%v ref=%v (diff %v)",
						seed, when, f.seq, f.rate, want, diff)
				}
			}
		}
		nFlows := 5 + rng.Intn(20)
		for i := 0; i < nFlows; i++ {
			start := rng.Float64() * 3
			bytes := 10 + rng.Float64()*500
			pathLen := rng.Intn(4)
			path := make([]*Resource, pathLen)
			for j := range path {
				path[j] = res[rng.Intn(nRes)]
			}
			ceiling := 0.0
			if rng.Intn(3) == 0 {
				ceiling = 20 + rng.Float64()*200
			}
			b, p, c := bytes, path, ceiling
			e.At(start, func() {
				n.Start("x", b, p, c)
				check("after start")
			})
		}
		// Probe between admissions and completions too.
		for i := 0; i < 10; i++ {
			e.At(rng.Float64()*4, func() { check("probe") })
		}
		e.Run()
		if len(n.flows) != 0 {
			t.Fatalf("seed %d: %d flows never completed", seed, len(n.flows))
		}
	}
}

// benchFlows schedules staggered flows over a 16-resource ladder of link
// resources; volume controls the offered load and therefore how many flows
// overlap at once (it must keep the network below saturation, or the
// backlog — and the component size — grows with b.N).
func benchFlows(b *testing.B, volume float64) {
	e := NewEngine()
	n := e.net
	res := make([]*Resource, 16)
	for i := range res {
		res[i] = NewResource(fmt.Sprintf("l%d", i), 1e9)
	}
	for i := 0; i < b.N; i++ {
		start := float64(i) * 1e-6
		lo := i % (len(res) - 4)
		path := res[lo : lo+4]
		e.At(start, func() { n.Start("x", volume, path, 0) })
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkFlowNetStart admits flows under heavy overlap (~75% network
// load): the cost of component discovery + filling on a loaded network.
func BenchmarkFlowNetStart(b *testing.B) { benchFlows(b, 3e3) }

// BenchmarkFlowNetChurn cycles flows with light overlap: the steady-state
// admit/complete path.
func BenchmarkFlowNetChurn(b *testing.B) { benchFlows(b, 5e2) }

// TestFlowListsStayOrderedUnderChurn drives randomized churn — admissions,
// completions, restarts from completion callbacks, capacity changes,
// ceilings, empty paths, and paths that cross one resource twice — and
// checks after every flush that each resource's flow list is in strict
// admission order, that every slot index points at its own crossing, and
// that the last fill's rates and used rates equal refFill's bit for bit.
func TestFlowListsStayOrderedUnderChurn(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := e.net
		res := make([]*Resource, 2+rng.Intn(5))
		for i := range res {
			res[i] = NewResource(fmt.Sprintf("r%d", i), 50+rng.Float64()*500)
		}
		randPath := func() []*Resource {
			path := make([]*Resource, rng.Intn(4))
			for j := range path {
				path[j] = res[rng.Intn(len(res))]
			}
			if len(path) > 0 && rng.Intn(4) == 0 {
				path = append(path, path[0]) // cross the first resource twice
			}
			return path
		}
		check := func(when string) {
			if n.dirty {
				n.flush()
			}
			for _, r := range res {
				for i, fr := range r.flows {
					if fr.f.path[fr.pi] != r || fr.f.slots[fr.pi] != int32(i) {
						t.Fatalf("seed %d %s: %s.flows[%d] (flow %d crossing %d) has a stale slot %d",
							seed, when, r.Name, i, fr.f.seq, fr.pi, fr.f.slots[fr.pi])
					}
					if i > 0 {
						prev := r.flows[i-1]
						if prev.f.seq > fr.f.seq || prev.f.seq == fr.f.seq && prev.pi >= fr.pi {
							t.Fatalf("seed %d %s: %s.flows out of admission order at %d: (%d,%d) before (%d,%d)",
								seed, when, r.Name, i, prev.f.seq, prev.pi, fr.f.seq, fr.pi)
						}
					}
				}
			}
			for _, f := range n.flows {
				for k, r := range f.path {
					if fr := r.flows[f.slots[k]]; fr.f != f || int(fr.pi) != k {
						t.Fatalf("seed %d %s: flow %d crossing %d not at its slot", seed, when, f.seq, k)
					}
				}
			}
			ref := refFill(n.compFlows)
			for _, f := range n.compFlows {
				if math.Float64bits(f.rate) != math.Float64bits(ref[f]) {
					t.Fatalf("seed %d %s: flow %d rate=%v ref=%v", seed, when, f.seq, f.rate, ref[f])
				}
			}
			byseq := append([]*Flow(nil), n.compFlows...)
			sort.Slice(byseq, func(i, j int) bool { return byseq[i].seq < byseq[j].seq })
			for _, r := range n.fillRes {
				want := 0.0
				for _, f := range byseq {
					for _, r2 := range f.path {
						if r2 == r {
							want += ref[f]
						}
					}
				}
				if math.Float64bits(r.usedRate) != math.Float64bits(want) {
					t.Fatalf("seed %d %s: %s usedRate=%v, admission-order sum %v", seed, when, r.Name, r.usedRate, want)
				}
			}
		}
		restarts := 30
		var start func()
		start = func() {
			ceiling := 0.0
			if rng.Intn(3) == 0 {
				ceiling = 20 + rng.Float64()*200
			}
			f := n.Start("x", 10+rng.Float64()*500, randPath(), ceiling)
			check("after start")
			f.OnDone(n, func() {
				check("after completion")
				if restarts > 0 {
					restarts--
					e.After(float64(rng.Intn(2))*rng.Float64(), start)
				}
			})
		}
		for i := 0; i < 5+rng.Intn(20); i++ {
			e.At(rng.Float64()*3, start)
		}
		for i := 0; i < 5; i++ {
			r := res[rng.Intn(len(res))]
			c := 50 + rng.Float64()*500
			e.At(rng.Float64()*4, func() {
				n.SetCapacity(r, c)
				check("after capacity change")
			})
		}
		for i := 0; i < 10; i++ {
			e.At(rng.Float64()*5, func() { check("probe") })
		}
		e.Run()
		if len(n.flows) != 0 {
			t.Fatalf("seed %d: %d flows never completed", seed, len(n.flows))
		}
	}
}
