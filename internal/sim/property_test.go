package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestFlowConservation: every byte admitted to the network is eventually
// served by every resource on its path (counting duplicate occurrences),
// and no resource exceeds its capacity-time budget.
func TestFlowConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		nRes := 2 + rng.Intn(4)
		res := make([]*Resource, nRes)
		for i := range res {
			res[i] = NewResource("r", 50+rng.Float64()*200)
		}
		type load struct {
			bytes float64
			path  []*Resource
		}
		expected := map[*Resource]float64{}
		nFlows := 1 + rng.Intn(8)
		for i := 0; i < nFlows; i++ {
			bytes := 10 + rng.Float64()*1000
			pathLen := 1 + rng.Intn(nRes)
			path := make([]*Resource, pathLen)
			for j := range path {
				path[j] = res[rng.Intn(nRes)]
			}
			for _, r := range path {
				expected[r] += bytes
			}
			delay := rng.Float64() * 2
			ceiling := 0.0
			if rng.Intn(3) == 0 {
				ceiling = 20 + rng.Float64()*100
			}
			p := path
			b := bytes
			c := ceiling
			e.Spawn("w", func(pr *Proc) {
				pr.Sleep(delay)
				pr.Transfer("x", b, p, c)
			})
		}
		e.Run()
		now := e.Now()
		for _, r := range res {
			want := expected[r]
			if math.Abs(r.BytesServed()-want) > 1e-6*(1+want) {
				return false
			}
			// Served bytes cannot exceed capacity * elapsed time.
			if r.BytesServed() > r.Cap*now*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMakespanLowerBound: the simulated makespan can never beat the
// per-resource bandwidth bound max_r(totalBytes_r / cap_r).
func TestMakespanLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r1 := NewResource("a", 100+rng.Float64()*100)
		r2 := NewResource("b", 100+rng.Float64()*100)
		var t1, t2 float64
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			b := 50 + rng.Float64()*500
			both := rng.Intn(2) == 0
			bb := b
			e.Spawn("w", func(p *Proc) {
				if both {
					p.Transfer("x", bb, []*Resource{r1, r2}, 0)
				} else {
					p.Transfer("x", bb, []*Resource{r1}, 0)
				}
			})
			t1 += b
			if both {
				t2 += b
			}
		}
		e.Run()
		bound := math.Max(t1/r1.Cap, t2/r2.Cap)
		return e.Now() >= bound*(1-1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRatesRespectCeilings: no flow ever runs above its ceiling.
func TestRatesRespectCeilings(t *testing.T) {
	e := NewEngine()
	r := NewResource("r", 1000)
	const ceiling = 70.0
	const bytes = 700.0
	var end float64
	e.Spawn("w", func(p *Proc) {
		p.Transfer("x", bytes, []*Resource{r}, ceiling)
		end = p.Now()
	})
	e.Run()
	if end < bytes/ceiling-1e-9 {
		t.Fatalf("flow finished at %v, faster than its ceiling allows (%v)", end, bytes/ceiling)
	}
}

// TestEventOrderMatchesTimeSeqSort: with many ties — events scheduled for
// the current instant, for instants already holding earlier-scheduled
// events, and for shared future instants — every event fires in the order
// a reference sort by (time, schedule order) gives.
func TestEventOrderMatchesTimeSeqSort(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type key struct {
			at float64
			id int
		}
		var scheduled []key
		var fired []int
		var schedule func(at float64)
		schedule = func(at float64) {
			id := len(scheduled)
			scheduled = append(scheduled, key{at, id})
			e.At(at, func() {
				fired = append(fired, id)
				for c := rng.Intn(4); c > 0 && len(scheduled) < 5000; c-- {
					if rng.Intn(2) == 0 {
						schedule(e.Now())
					} else {
						schedule(e.Now() + float64(1+rng.Intn(3)))
					}
				}
			})
		}
		for i := 0; i < 200; i++ {
			schedule(float64(rng.Intn(5)))
		}
		e.Run()
		sort.Slice(scheduled, func(i, j int) bool {
			if scheduled[i].at != scheduled[j].at {
				return scheduled[i].at < scheduled[j].at
			}
			return scheduled[i].id < scheduled[j].id
		})
		if len(fired) != len(scheduled) {
			t.Fatalf("seed %d: %d events fired, %d scheduled", seed, len(fired), len(scheduled))
		}
		for i, k := range scheduled {
			if fired[i] != k.id {
				t.Fatalf("seed %d: event %d fired %d-th, want event %d (t=%g)", seed, fired[i], i, k.id, k.at)
			}
		}
	}
}
