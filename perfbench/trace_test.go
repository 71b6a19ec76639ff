package main

import (
	"testing"
	"time"
)

func sp(id, parent int, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		sp(0, -1, 0, 100), // root
		sp(1, 0, 10, 30),  // child
		sp(2, 0, 20, 50),  // overlaps child 1: union 10..50
		sp(3, 0, 70, 80),  // disjoint
		sp(4, 1, 12, 18),  // grandchild, inside child 1
		sp(5, -1, 0, 40),  // another root without children
		sp(6, 0, 95, 130), // sticks out of the root: only 95..100 counts
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - (40 + 10 + 5), 20 - 6, 30, 10, 6, 40, 35}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self[%d] = %v, want %v", i, self[i], w)
		}
	}
}

func TestSelfTimeOfNestedIdenticalChildIsZero(t *testing.T) {
	self := selfTimes([]span{sp(0, -1, 5, 25), sp(1, 0, 5, 25), sp(2, 0, 5, 25)})
	if self[0] != 0 || self[1] != 20 || self[2] != 20 {
		t.Errorf("self = %v, want [0 20 20]", self)
	}
}

func TestUnaccountedCountsOnlyEnclosingSpans(t *testing.T) {
	spans := []span{
		sp(0, -1, 0, 100), sp(1, 0, 0, 75), // 25% of the root uncovered
		sp(2, -1, 0, 1000),                      // a leaf root: not an enclosing span
		sp(3, -1, 200, 300), sp(4, 3, 200, 300), // fully covered
	}
	if got := unaccountedPct(spans); got != 12.5 {
		t.Errorf("unaccountedPct = %v, want 12.5 (25 of 200)", got)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id, nil)
	if id != -1 || tr.timed("y", func() {}) < 0 {
		t.Error("a nil tracer handed out span IDs")
	}
}

func TestTracerRecordsParentsAndRuntimeDeltas(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1)
	kid := tr.begin("kid", root)
	_ = make([]byte, 1<<20)
	tr.end(kid, map[string]float64{"k": 1})
	tr.end(root, nil)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Attrs["k"] != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	if _, ok := spans[0].Attrs["runtime.alloc_bytes"]; !ok {
		t.Error("closed span lacks its allocation delta")
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Error("child interval escapes its parent")
	}
}
