package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000) // 1..1000
	for _, c := range []struct {
		pm   int
		want float64
	}{{500, 500}, {990, 990}, {999, 999}, {1000, 1000}, {1, 1}} {
		if got := percentile(xs, c.pm); got != c.want {
			t.Errorf("p%d of 1..1000 = %v, want %v", c.pm, got, c.want)
		}
	}
	// Small counts round the rank up: p50 of four samples is the 2nd.
	if got := percentile(seq(4), 500); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 500)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{10000, 999}, // p99.9 leaves exactly 10 beyond
		{9999, 990},  // ... 9 beyond, so p99
		{1000, 990},  // p99 leaves exactly 10 beyond
		{999, 950},
		{200, 950},
		{199, 900},
		{100, 900},
		{40, 750},
		{20, 500},
		{19, 0}, // even the median leaves only 9 beyond
	} {
		if got := tailPerMille(c.n); got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
		if pm := tailPerMille(c.n); pm > 0 && beyond(c.n, pm) < 10 {
			t.Errorf("n=%d: p%d leaves %d beyond", c.n, pm, beyond(c.n, pm))
		}
	}
}

func TestSummarizeFallsBackToTheTailRule(t *testing.T) {
	d := summarize(seq(500), 990)
	if d.TailPM != 950 || d.Tail != 475 || d.Median != 250 || d.N != 500 {
		t.Errorf("summarize(1..500, p99) = %+v, want p95 = 475, median 250", d)
	}
	d = summarize(seq(2000), 990)
	if d.TailPM != 990 || d.Tail != 1980 {
		t.Errorf("summarize(1..2000, p99) = %+v, want p99 = 1980", d)
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if xs[0] != 3 {
		t.Error("median sorted its input in place")
	}
}
