package main

import (
	"cmp"
	"encoding/json"
	"os"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// span is one timed call perfbench made into a layer. Start and End are
// offsets from the tracer's origin; Parent is -1 for a root span. Attrs
// carries what the call reported about itself (core.Timings stage clocks,
// counts) plus this process's allocation and GC deltas over the span.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`

	alloc0, gc0 uint64
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so measured code calls it
// unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: runtimeSamples[0]}, {Name: runtimeSamples[1]}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// begin opens a span under parent (-1 for none) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	a, g := readRuntime()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.origin), alloc0: a, gc0: g})
	return id
}

// end closes span id, attaching attrs and the runtime deltas.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	a, g := readRuntime()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	if attrs == nil {
		attrs = map[string]float64{}
	}
	attrs["runtime.alloc_bytes"] = float64(a - s.alloc0)
	attrs["runtime.gc_cycles"] = float64(g - s.gc0)
	s.Attrs = attrs
}

// timed runs f under a root span and returns its wall time.
func (t *tracer) timed(name string, f func()) time.Duration {
	sp := t.begin(name, -1)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(sp, nil)
	return d
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns, per span ID, its duration minus the part of its
// interval covered by its children. Overlapping children are counted once
// (the union of their intervals), and child time outside the parent's
// interval is ignored, so self time is never negative.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to p's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// unaccountedPct is the share of all enclosing spans (spans with at least
// one child) that their children leave uncovered, in percent.
func unaccountedPct(spans []span) float64 {
	self := selfTimes(spans)
	hasKids := make(map[int]bool)
	for _, s := range spans {
		if s.Parent >= 0 {
			hasKids[s.Parent] = true
		}
	}
	var selfSum, durSum time.Duration
	for i, s := range spans {
		if hasKids[s.ID] {
			selfSum += self[i]
			durSum += s.dur()
		}
	}
	if durSum == 0 {
		return 0
	}
	return 100 * float64(selfSum) / float64(durSum)
}

// durations collects the span durations (ms) per span name.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(s.dur()))
	}
	return out
}

// writeSpans stores the spans as JSON at path.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
