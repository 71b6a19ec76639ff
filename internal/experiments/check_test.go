package experiments

import (
	"path/filepath"
	"strings"
	"testing"
)

func baseReport() *BenchReport {
	return &BenchReport{
		Date: "2026-01-01", Scale: 0.25,
		Results: []BenchResult{{
			Dataset:      "Restaurant",
			StatisticsMS: 40, BlockingMS: 20, GraphMS: 30,
			GraphBetaMS: 18, GraphGammaMS: 11, MatchingMS: 4, TotalMS: 100,
			Matches: 50, F1: 0.93,
			ShardRuns:  []ShardRun{{Shards: 8, TotalMS: 110, Matches: 50}},
			WorkerRuns: []WorkerRun{{Workers: 4, TotalMS: 40, Matches: 50}},
			QueryRuns:  []QueryRun{{Queries: 1000, SubstrateMS: 90, P50US: 100, P95US: 300, P99US: 800}},
			LoadRuns: []LoadRun{
				{Clients: 4, Queries: 2000, QPS: 9000, P50US: 300, P95US: 900, P99US: 1500},
				{Clients: 16, Queries: 2000, QPS: 12000, P50US: 800, P95US: 2400, P99US: 4000},
			},
		}},
	}
}

func TestCheckBenchPassesWithinTolerance(t *testing.T) {
	base := baseReport()
	cur := baseReport()
	// 1.9× everywhere is within the 2× gate.
	cur.Results[0].StatisticsMS *= 1.9
	cur.Results[0].TotalMS *= 1.9
	cur.Results[0].ShardRuns[0].TotalMS *= 1.9
	if err := CheckBench(cur, base, 2.0); err != nil {
		t.Errorf("within-tolerance report failed the gate: %v", err)
	}
}

func TestCheckBenchFailsOnStageRegression(t *testing.T) {
	base := baseReport()
	cur := baseReport()
	cur.Results[0].GraphMS = base.Results[0].GraphMS*2 + 1
	err := CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "graph stage") {
		t.Errorf("2×+ graph regression not caught: %v", err)
	}
}

// The graph sub-stages are gated individually: a β blowup hiding inside a
// still-tolerable aggregate graph time must fail.
func TestCheckBenchFailsOnGraphSubStageRegression(t *testing.T) {
	base := baseReport()
	cur := baseReport()
	cur.Results[0].GraphBetaMS = base.Results[0].GraphBetaMS*2 + 1
	err := CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "graph/beta stage") {
		t.Errorf("2×+ graph/beta regression not caught: %v", err)
	}
	cur = baseReport()
	// γ baseline (11ms) just above the floor: 2×+ fails.
	cur.Results[0].GraphGammaMS = 23
	err = CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "graph/gamma stage") {
		t.Errorf("2×+ graph/gamma regression not caught: %v", err)
	}
}

// Worker runs are gated like shard runs: a parallel-scaling blowup fails
// against the matching baseline entry, and the match count must reproduce
// the primary run's.
func TestCheckBenchGatesWorkerRuns(t *testing.T) {
	base := baseReport()
	cur := baseReport()
	cur.Results[0].WorkerRuns[0].TotalMS = 99 // > 2 × max(40, floor)
	err := CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "workers=4 total") {
		t.Errorf("worker-run regression not caught: %v", err)
	}
	cur = baseReport()
	cur.Results[0].WorkerRuns[0].Matches = 49
	err = CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "determinism") {
		t.Errorf("worker-run match divergence not caught: %v", err)
	}
	cur = baseReport()
	cur.Results[0].WorkerRuns = nil
	err = CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "workers=4 present in baseline") {
		t.Errorf("missing worker run not caught: %v", err)
	}
	// Matching is by the REQUESTED count: an all-cores (0) baseline entry
	// from a 1-core box must match an all-cores current entry from a 4-core
	// box — the resolved counts are informational only.
	base = baseReport()
	base.Results[0].WorkerRuns[0] = WorkerRun{Workers: 0, ResolvedWorkers: 1, TotalMS: 40, Matches: 50}
	cur = baseReport()
	cur.Results[0].WorkerRuns[0] = WorkerRun{Workers: 0, ResolvedWorkers: 4, TotalMS: 35, Matches: 50}
	if err := CheckBench(cur, base, 2.0); err != nil {
		t.Errorf("all-cores worker runs with different resolved counts failed the gate: %v", err)
	}
}

func TestCheckBenchFloorsNoiseFloorStages(t *testing.T) {
	base := baseReport()
	cur := baseReport()
	// Matching baseline (4ms) is below the 10ms floor, so it is held to
	// tolerance × floor: a blip to 19ms (under 2×10) is jitter and passes...
	cur.Results[0].MatchingMS = 19
	if err := CheckBench(cur, base, 2.0); err != nil {
		t.Errorf("sub-floor stage jitter failed the gate: %v", err)
	}
	// ...but blowing past the floored threshold is a real regression.
	cur.Results[0].MatchingMS = 40
	err := CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "matching stage") {
		t.Errorf("sub-floor stage blowup not caught: %v", err)
	}
}

// Query-latency percentiles are gated like stage timings (relative to the
// floored baseline) plus an absolute p99 ceiling.
func TestCheckBenchGatesQueryRuns(t *testing.T) {
	base := baseReport()
	cur := baseReport()
	// p50 baseline (100µs) sits below the 500µs floor: a blip under 2×500
	// is jitter and passes…
	cur.Results[0].QueryRuns[0].P50US = 900
	if err := CheckBench(cur, base, 2.0); err != nil {
		t.Errorf("sub-floor query jitter failed the gate: %v", err)
	}
	// …but blowing past the floored threshold fails.
	cur = baseReport()
	cur.Results[0].QueryRuns[0].P95US = 1100 // > 2 × max(300, 500)
	err := CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "query p95") {
		t.Errorf("query p95 regression not caught: %v", err)
	}
	// p99 above the floor gates against its own baseline.
	cur = baseReport()
	cur.Results[0].QueryRuns[0].P99US = 1700 // > 2 × 800
	err = CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "query p99") {
		t.Errorf("query p99 regression not caught: %v", err)
	}
	// The absolute ceiling holds even when the relative gate would pass.
	base = baseReport()
	base.Results[0].QueryRuns[0].P99US = 4000
	cur = baseReport()
	cur.Results[0].QueryRuns[0].P99US = 5500 // < 2 × 4000, > 5000
	err = CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "ceiling") {
		t.Errorf("query p99 ceiling not enforced: %v", err)
	}
	// A baseline query run must not silently vanish from the current report.
	cur = baseReport()
	cur.Results[0].QueryRuns = nil
	err = CheckBench(cur, baseReport(), 2.0)
	if err == nil || !strings.Contains(err.Error(), "query run present in baseline") {
		t.Errorf("missing query run not caught: %v", err)
	}
}

// The server-path load runs gate their p99 per concurrency level, with the
// same floored-baseline discipline; qps and the lower percentiles are
// recorded but never gated.
func TestCheckBenchGatesLoadRuns(t *testing.T) {
	base := baseReport()
	cur := baseReport()
	// clients=4 p99 baseline (1500µs) sits below the 2000µs floor: anything
	// under 2×2000 is jitter and passes…
	cur.Results[0].LoadRuns[0].P99US = 3900
	if err := CheckBench(cur, base, 2.0); err != nil {
		t.Errorf("sub-floor load-run jitter failed the gate: %v", err)
	}
	// …past the floored threshold it fails, naming the concurrency level.
	cur = baseReport()
	cur.Results[0].LoadRuns[0].P99US = 4100 // > 2 × max(1500, 2000)
	err := CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "serve clients=4 p99") {
		t.Errorf("load-run p99 regression not caught: %v", err)
	}
	// clients=16 gates against its own (above-floor) baseline entry.
	cur = baseReport()
	cur.Results[0].LoadRuns[1].P99US = 8100 // > 2 × 4000
	err = CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "serve clients=16 p99") {
		t.Errorf("clients=16 p99 regression not caught: %v", err)
	}
	// Throughput and the lower percentiles are informational: a qps drop or
	// p50 wobble alone never fails the gate.
	cur = baseReport()
	cur.Results[0].LoadRuns[0].QPS = 10
	cur.Results[0].LoadRuns[0].P50US = 1900
	if err := CheckBench(cur, base, 2.0); err != nil {
		t.Errorf("ungated load-run fields failed the gate: %v", err)
	}
	// A baseline concurrency level must not silently vanish.
	cur = baseReport()
	cur.Results[0].LoadRuns = cur.Results[0].LoadRuns[:1]
	err = CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "load run clients=16 present in baseline") {
		t.Errorf("missing load run not caught: %v", err)
	}
}

// Snapshot runs gate the write and the cold open→first-query wall, each
// against its own baseline floored at snapFloorMS.
func TestCheckBenchGatesSnapshotRuns(t *testing.T) {
	withSnap := func(write, open float64) *BenchReport {
		r := baseReport()
		r.Results[0].SnapshotRuns = []SnapshotRun{{WriteMS: write, OpenMS: open, RebuildMS: 400, SpeedupX: 400 / open}}
		return r
	}
	base := withSnap(100, 2)
	// Within tolerance, and an open under the floored threshold, passes.
	if err := CheckBench(withSnap(190, 9.9), base, 2.0); err != nil {
		t.Errorf("within-tolerance snapshot run failed the gate: %v", err)
	}
	// A write past its baseline × tolerance fails, naming the write.
	err := CheckBench(withSnap(210, 2), base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "snapshot write 210.00ms") {
		t.Errorf("snapshot write regression not caught: %v", err)
	}
	// A sub-floor write baseline is floored: 9.9ms against a 1ms baseline is
	// jitter under 2 × 5ms, 10.1ms is not.
	small := withSnap(1, 2)
	if err := CheckBench(withSnap(9.9, 2), small, 2.0); err != nil {
		t.Errorf("sub-floor snapshot write jitter failed the gate: %v", err)
	}
	if err := CheckBench(withSnap(10.1, 2), small, 2.0); err == nil || !strings.Contains(err.Error(), "snapshot write") {
		t.Errorf("floored snapshot write regression not caught: %v", err)
	}
	// The open→first-query wall keeps its own gate.
	err = CheckBench(withSnap(100, 10.1), base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "snapshot open→first-query") {
		t.Errorf("snapshot open regression not caught: %v", err)
	}
	// A baseline snapshot run must not silently vanish.
	err = CheckBench(baseReport(), base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "snapshot run present in baseline") {
		t.Errorf("missing snapshot run not caught: %v", err)
	}
}

func TestCheckBenchFailsOnF1Drop(t *testing.T) {
	base := baseReport()
	cur := baseReport()
	cur.Results[0].F1 = base.Results[0].F1 - 0.2
	err := CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "F1") {
		t.Errorf("F1 drop not caught: %v", err)
	}
}

func TestCheckBenchFailsOnShardMismatch(t *testing.T) {
	base := baseReport()
	cur := baseReport()
	cur.Results[0].ShardRuns[0].Matches = 49
	err := CheckBench(cur, base, 2.0)
	if err == nil || !strings.Contains(err.Error(), "determinism") {
		t.Errorf("sharded match-count divergence not caught: %v", err)
	}
}

func TestCheckBenchFailsOnScaleOrDatasetMismatch(t *testing.T) {
	base := baseReport()
	cur := baseReport()
	cur.Scale = 0.5
	if err := CheckBench(cur, base, 2.0); err == nil {
		t.Error("scale mismatch not caught")
	}
	cur = baseReport()
	cur.Results = nil
	if err := CheckBench(cur, base, 2.0); err == nil {
		t.Error("missing dataset not caught")
	}
	if err := CheckBench(cur, base, 0.5); err == nil {
		t.Error("tolerance <= 1 not rejected")
	}
}

func TestBenchReportJSONRoundTrip(t *testing.T) {
	base := baseReport()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := base.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBench(got, base, 2.0); err != nil {
		t.Errorf("round-tripped report failed its own gate: %v", err)
	}
	if len(got.Results) != 1 || got.Results[0].ShardRuns[0].Shards != 8 {
		t.Errorf("round trip lost data: %+v", got)
	}
}

// The smallest preset end to end: Bench with a shard sweep produces shard
// runs whose match counts equal the primary run, and the report passes a
// self-check.
func TestBenchWithShardSweep(t *testing.T) {
	s, err := NewSuite(Options{ScaleFactor: 0.2, Datasets: []string{"Restaurant"}})
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Bench(1, []int{1, 4}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	r := report.Results[0]
	if len(r.ShardRuns) != 2 {
		t.Fatalf("shard runs = %+v, want 2", r.ShardRuns)
	}
	for _, sr := range r.ShardRuns {
		if sr.Matches != r.Matches {
			t.Errorf("shards=%d matches %d != primary run %d", sr.Shards, sr.Matches, r.Matches)
		}
	}
	if len(r.WorkerRuns) != 1 {
		t.Fatalf("worker runs = %+v, want 1", r.WorkerRuns)
	}
	if r.WorkerRuns[0].Matches != r.Matches {
		t.Errorf("worker run matches %d != primary %d", r.WorkerRuns[0].Matches, r.Matches)
	}
	if len(r.QueryRuns) != 1 {
		t.Fatalf("query runs = %+v, want 1", r.QueryRuns)
	}
	if qr := r.QueryRuns[0]; qr.Queries < 1000 || qr.P99US <= 0 || qr.P50US > qr.P99US {
		t.Errorf("implausible query run: %+v", qr)
	}
	if len(r.LoadRuns) != len(benchLoadClients) {
		t.Fatalf("load runs = %+v, want one per concurrency level %v", r.LoadRuns, benchLoadClients)
	}
	for i, lr := range r.LoadRuns {
		if lr.Clients != benchLoadClients[i] || lr.Queries != benchLoadQueryCount ||
			lr.QPS <= 0 || lr.P50US <= 0 || lr.P50US > lr.P99US {
			t.Errorf("implausible load run: %+v", lr)
		}
	}
	if err := CheckBench(report, report, 2.0); err != nil {
		t.Errorf("report failed self-check: %v", err)
	}
}
