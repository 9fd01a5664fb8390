package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 means refused
	}{
		{100, 0.90, 90},
		{99, 0.90, 0},
		{110, 0.90, 99},
		{20, 0.50, 10},
		{19, 0.50, 0},
		{1000, 0.99, 990},
		{999, 0.99, 0},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", 100*tc.p, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", 100*tc.p, tc.n, got, err, tc.want)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("p%g of %d samples has %d beyond it", 100*tc.p, tc.n, beyond)
		}
	}
}

func TestSetLatencyRefusesShortTails(t *testing.T) {
	o := newOutcome()
	setLatency(o, "x", make([]time.Duration, 99))
	if _, ok := o.metrics["x_p50_ms"]; ok || len(o.problems) == 0 {
		t.Fatalf("99 samples: metrics %v, problems %v; want a failed check", o.metrics, o.problems)
	}
	o = newOutcome()
	setLatency(o, "x", make([]time.Duration, 100))
	if _, ok := o.metrics["x_p50_ms"]; !ok || o.details["x_p90_ms"] == nil || len(o.problems) != 0 {
		t.Fatalf("100 samples: metrics %v, details %v, problems %v; want p50 and p90 reported", o.metrics, o.details, o.problems)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g", m)
	}
}
