package main

import (
	"testing"
	"time"
)

// A span's self time is its duration minus the part of its interval its
// children cover; overlapping children count once, and the part of a
// child outside its parent does not count.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "experiments", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Layer: "experiments", Start: 20 * ms, End: 40 * ms}, // overlaps 2
		{ID: 4, Parent: 1, Layer: "sweepd", Start: 90 * ms, End: 120 * ms},     // runs past 1
		{ID: 5, Parent: 2, Layer: "sim", Start: 12 * ms, End: 14 * ms},
		{ID: 6, Parent: 1, Layer: "store", Start: 50 * ms, End: -1}, // never closed
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 100*ms - 30*ms - 10*ms, // 10..40 and 90..100 covered
		2: 20*ms - 2*ms,
		3: 20 * ms,
		4: 30 * ms,
		5: 2 * ms,
	} {
		if got := self[id]; got != want {
			t.Errorf("span %d self time = %v, want %v", id, got, want)
		}
	}
	if _, ok := self[6]; ok {
		t.Errorf("open span 6 has a self time")
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("sim", "x", 0)
	tr.end(id)
	if id != 0 || len(tr.spans) != 0 {
		t.Fatalf("disabled tracer returned id %d and kept %d spans", id, len(tr.spans))
	}
	tr = newTracer(true)
	root := tr.begin("bench", "root", 0)
	child := tr.begin("sim", "child", root)
	tr.end(child)
	tr.end(root)
	spans := tr.all()
	if len(spans) != 2 || spans[child-1].Parent != root || spans[child-1].End < spans[child-1].Start {
		t.Fatalf("enabled tracer kept %+v", spans)
	}
}
