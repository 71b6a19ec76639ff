package main

import (
	"math"
	"slices"
	"time"
)

// Percentiles are written in per-mille (990 = p99) so the rank arithmetic
// stays in integers: no float rounding decides which sample is "the p99".
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// rank returns the 1-based nearest-rank position of per-mille pm among n
// sorted samples: the smallest r with r/n >= pm/1000.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples strictly above the pm-th percentile's rank.
func beyond(n, pm int) int { return n - rank(n, pm) }

// percentile returns the nearest-rank pm-th per-mille of sorted samples.
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), pm)-1]
}

// tailPerMille is the tail rule: the highest percentile of tailLadder that
// leaves at least ten samples beyond it, or 0 when even the median does not.
func tailPerMille(n int) int {
	for _, pm := range tailLadder {
		if beyond(n, pm) >= 10 {
			return pm
		}
	}
	return 0
}

// median of unsorted values (the lower middle for an even count, so it is
// always an observed value).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 500)
}

// dist summarizes one timing: median, a named tail percentile and the
// sample count behind them.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// TailPM is the percentile (per-mille) the tail was taken at; Tail its
	// value. A requested tail the samples cannot support falls back to the
	// tail rule, and TailPM says so.
	TailPM int     `json:"tail_pm"`
	Tail   float64 `json:"tail"`
}

// summarize sorts a copy of xs and reports the median and the wantPM tail,
// lowered to the tail rule's percentile when n is too small for wantPM.
func summarize(xs []float64, wantPM int) dist {
	s := slices.Clone(xs)
	slices.Sort(s)
	d := dist{N: len(s), Median: percentile(s, 500), TailPM: wantPM}
	if beyond(len(s), wantPM) < 10 {
		d.TailPM = tailPerMille(len(s))
	}
	if d.TailPM > 0 {
		d.Tail = percentile(s, d.TailPM)
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
