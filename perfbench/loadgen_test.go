package main

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestDueOffsetIsDriftFree(t *testing.T) {
	for _, qps := range []int{1, 3, 7, 1000, 2500, 3333} {
		if got := dueOffset(qps, qps); got != time.Second {
			t.Errorf("qps=%d: request %d due at %v, want exactly 1s", qps, qps, got)
		}
		if got := dueOffset(10*qps, qps); got != 10*time.Second {
			t.Errorf("qps=%d: request %d due at %v, want exactly 10s", qps, 10*qps, got)
		}
		for i := 1; i < 2*qps && i < 5000; i++ {
			gap := dueOffset(i, qps) - dueOffset(i-1, qps)
			ideal := time.Second / time.Duration(qps)
			if gap < ideal || gap > ideal+1 {
				t.Fatalf("qps=%d: gap before request %d is %v, want %v (+1ns rounding)", qps, i, gap, ideal)
			}
		}
	}
	if dueOffset(0, 1000) != 0 {
		t.Error("the first request is due at the step start")
	}
}

func TestStepCountCoversTheStep(t *testing.T) {
	for _, c := range []struct {
		qps  int
		dur  time.Duration
		want int
	}{
		{1000, time.Second, 1000},
		{1000, 6 * time.Second, 6000},
		{1500, 666666666 * time.Nanosecond, 1000},
		{3, time.Second, 3},
		{3, 1500 * time.Millisecond, 5}, // due at 0, 1/3, 2/3, 1, 4/3 s
	} {
		n := stepCount(c.qps, c.dur)
		if n != c.want {
			t.Errorf("stepCount(%d, %v) = %d, want %d", c.qps, c.dur, n, c.want)
		}
		// Every counted request is due inside the step, the next one is not.
		if dueOffset(n-1, c.qps) >= c.dur || dueOffset(n, c.qps) < c.dur {
			t.Errorf("stepCount(%d, %v) = %d does not end the schedule at the step's end", c.qps, c.dur, n)
		}
	}
}

func TestPlanIsFixedBySeed(t *testing.T) {
	a := planQueries(rand.New(rand.NewSource(7)), 4000, 0.5, 64)
	b := planQueries(rand.New(rand.NewSource(7)), 4000, 0.5, 64)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed produced two different request sequences")
	}
	replays := 0
	for _, q := range a {
		if q.pool < 0 || q.pool >= 64 {
			t.Fatalf("pool index %d out of range", q.pool)
		}
		if q.kind == kindReplay {
			replays++
		}
	}
	if replays < 1800 || replays > 2200 {
		t.Errorf("%d replays in 4000 at share 0.5", replays)
	}
	for _, q := range planQueries(rand.New(rand.NewSource(7)), 100, 1, 64) {
		if q.kind != kindReplay {
			t.Fatal("replay share 1 planned a new-entity query")
		}
	}
}

func TestCandidatesJSONCutsTheArray(t *testing.T) {
	body := []byte(`{"pair":"p","uri":"e1:1","candidates":[{"uri":"e2:1","rule":"R1","score":1,"reciprocal":true}],"elapsed_us":12}` + "\n")
	want := `[{"uri":"e2:1","rule":"R1","score":1,"reciprocal":true}]`
	if got := string(candidatesJSON(body)); got != want {
		t.Errorf("candidatesJSON = %s, want %s", got, want)
	}
	if got := string(candidatesJSON([]byte(`{"pair":"p","candidates":[],"elapsed_us":3}`))); got != "[]" {
		t.Errorf("empty ranking = %q, want []", got)
	}
	if candidatesJSON([]byte(`{"error":{"code":"x"}}`)) != nil {
		t.Error("an error envelope has no candidates")
	}
}
