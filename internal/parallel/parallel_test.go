package parallel

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewDefaults(t *testing.T) {
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS", got)
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers() = %d, want GOMAXPROCS", got)
	}
	if got := Sequential().Workers(); got != 1 {
		t.Errorf("Sequential().Workers() = %d, want 1", got)
	}
}

func TestPartitionsCoverExactly(t *testing.T) {
	f := func(n uint8, w uint8) bool {
		e := New(int(w%16) + 1)
		spans := e.Partitions(int(n))
		covered := 0
		prev := 0
		for _, s := range spans {
			if s.Lo != prev || s.Hi <= s.Lo {
				return false
			}
			covered += s.Len()
			prev = s.Hi
		}
		return covered == int(n) && (int(n) == 0) == (len(spans) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionsBalanced(t *testing.T) {
	e := New(4)
	spans := e.Partitions(10)
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	sizes := []int{spans[0].Len(), spans[1].Len(), spans[2].Len(), spans[3].Len()}
	if !reflect.DeepEqual(sizes, []int{3, 3, 2, 2}) {
		t.Errorf("sizes = %v, want [3 3 2 2]", sizes)
	}
}

func TestForVisitsEachOnce(t *testing.T) {
	for _, w := range []int{1, 2, 7, 32} {
		e := New(w)
		n := 1000
		var visits [1000]int32
		if err := e.ForCtx(context.Background(), n, func(i int) error {
			atomic.AddInt32(&visits[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, v)
			}
		}
	}
}

func TestForZeroAndOne(t *testing.T) {
	e := New(8)
	called := 0
	count := func(i int) error {
		called += i + 1
		return nil
	}
	if err := e.ForCtx(context.Background(), 0, count); err != nil || called != 0 {
		t.Error("ForCtx(0) must not call fn")
	}
	if err := e.ForCtx(context.Background(), 1, count); err != nil || called != 1 {
		t.Error("ForCtx(1) must call fn(0) once")
	}
}

func TestMapOrder(t *testing.T) {
	e := New(5)
	got, err := MapCtx(context.Background(), e, 10, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapSpansPartitionOrder(t *testing.T) {
	e := New(4)
	got, err := MapSpansCtx(context.Background(), e, 100, func(s Span) (int, error) { return s.Lo, nil })
	if err != nil || !reflect.DeepEqual(got, []int{0, 25, 50, 75}) {
		t.Errorf("MapSpans results out of partition order: %v", got)
	}
}

func TestConcurrentBarrier(t *testing.T) {
	e := New(4)
	var a, b, c atomic.Int32
	store := func(v *atomic.Int32, x int32) func(context.Context) error {
		return func(context.Context) error {
			v.Store(x)
			return nil
		}
	}
	err := e.ConcurrentCtx(context.Background(), store(&a, 1), store(&b, 2), store(&c, 3))
	if err != nil || a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Error("ConcurrentCtx did not run all stages before returning")
	}
	if err := e.ConcurrentCtx(context.Background(), store(&a, 10)); err != nil || a.Load() != 10 {
		t.Error("ConcurrentCtx single stage")
	}
}

func TestReduce(t *testing.T) {
	got := Reduce([]int{1, 2, 3, 4}, func(a, b int) int { return a + b })
	if got != 10 {
		t.Errorf("Reduce = %d, want 10", got)
	}
	if got := Reduce(nil, func(a, b int) int { return a + b }); got != 0 {
		t.Errorf("Reduce(nil) = %d, want zero value", got)
	}
	if got := Reduce([]int{7}, func(a, b int) int { return a + b }); got != 7 {
		t.Errorf("Reduce(single) = %d, want 7", got)
	}
}

func TestSums(t *testing.T) {
	if SumInts([]int{1, 2, 3}) != 6 {
		t.Error("SumInts")
	}
	if SumFloats([]float64{0.5, 1.5}) != 2.0 {
		t.Error("SumFloats")
	}
}

// GroupByCtx must produce sequential order regardless of worker count.
func TestGroupByDeterministic(t *testing.T) {
	n := 500
	reference := groupBy(t, Sequential(), n, emitMod7)
	for _, w := range []int{2, 3, 8, 16} {
		got := groupBy(t, New(w), n, emitMod7)
		if !reflect.DeepEqual(got, reference) {
			t.Fatalf("GroupBy with %d workers differs from sequential", w)
		}
	}
}

// groupBy runs GroupByCtx to completion, failing the test on an error.
func groupBy(t *testing.T, e *Engine, n int, emit func(i int, yield func(int, int))) map[int][]int {
	t.Helper()
	got, err := GroupByCtx(context.Background(), e, n, emit)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func emitMod7(i int, yield func(int, int)) {
	yield(i%7, i)
	if i%2 == 0 {
		yield(100+i%3, i)
	}
}

func TestGroupByEmpty(t *testing.T) {
	got, err := GroupByCtx(context.Background(), New(4), 0, func(i int, yield func(string, int)) { yield("x", i) })
	if err != nil || len(got) != 0 {
		t.Errorf("GroupBy(0 rows) = %v, want empty", got)
	}
}

func TestCountByMatchesSequential(t *testing.T) {
	n := 1000
	emit := func(i int, yield func(string)) {
		if i%3 == 0 {
			yield("fizz")
		}
		if i%5 == 0 {
			yield("buzz")
		}
	}
	ref, err := CountByCtx(context.Background(), Sequential(), n, emit)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 9} {
		got, err := CountByCtx(context.Background(), New(w), n, emit)
		if err != nil || !reflect.DeepEqual(got, ref) {
			t.Fatalf("CountBy with %d workers = %v, want %v", w, got, ref)
		}
	}
	if ref["fizz"] != 334 || ref["buzz"] != 200 {
		t.Errorf("counts = %v", ref)
	}
}

// Property: ForCtx over any n touches the sum correctly for any worker count.
func TestForSumProperty(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		size := int(n % 2048)
		e := New(int(w%8) + 1)
		var sum atomic.Int64
		err := e.ForCtx(context.Background(), size, func(i int) error {
			sum.Add(int64(i))
			return nil
		})
		return err == nil && sum.Load() == int64(size)*int64(size-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
