package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// checkFloorMS is the noise floor for stage timings: sub-10ms measurements
// are dominated by scheduler and allocator noise, not by algorithmic
// regressions. A stage whose baseline sits below the floor is held to
// tolerance × floor instead of tolerance × baseline — sub-floor jitter can
// never fail the gate, but a fast stage that blows past the floor by the
// full tolerance (an algorithmic regression) still does.
const checkFloorMS = 10.0

// Query-latency gate constants: percentiles whose baseline sits below
// queryFloorUS are judged against the floor (same rationale as checkFloorMS),
// and p99 is additionally held to an ABSOLUTE ceiling — a per-entity query
// must stay interactive regardless of what the baseline recorded.
const (
	queryFloorUS  = 500.0
	queryP99CapUS = 5000.0
)

// loadFloorUS is the noise floor for the server-path latency percentiles:
// under concurrent clients on a shared CI box, sub-2ms tails are scheduler
// and transport noise, so a load-run p99 fails only past
// max(baseline, loadFloorUS) × tolerance.
const loadFloorUS = 2000.0

// Snapshot-path gate constants: the snapshot write and the cold
// open→first-query wall are each judged against
// max(baseline, snapFloorMS) × tolerance like every other timing,
// and the warm-start claim itself must not regress — every dataset whose
// BASELINE snapshot run beat the rebuild path by snapMinSpeedup× counts as
// a witness of the claim, and the current run must reproduce it on at
// least snapMinDatasets of them (all of them if the baseline has fewer),
// so a format change can never quietly demote the snapshot to "a slower
// rebuild". Gating only baseline witnesses keeps tiny-scale runs — where
// a rebuild is itself a few milliseconds and no 10× gap exists to defend —
// self-consistent.
const (
	snapFloorMS     = 5.0
	snapMinSpeedup  = 10.0
	snapMinDatasets = 2
)

// ReadBenchJSON loads a benchmark report written by BenchReport.WriteJSON —
// the committed baseline the CI regression gate compares against.
func ReadBenchJSON(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	return &r, nil
}

// CheckBench compares a freshly measured report against a committed
// baseline and returns an error listing every regression found. The gate is
// deliberately generous — it exists to catch algorithmic blowups, not CI
// machine jitter:
//
//   - a per-stage timing fails when the current time exceeds
//     max(baseline, checkFloorMS) × maxRatio, so sub-floor stages are judged
//     against the noise floor rather than ignored outright;
//   - sharded total timings are held to the same rule against their own
//     baseline entry (matched by shard count), and worker-run totals against
//     theirs (matched by worker count) — the parallel-scaling watch;
//   - effectiveness must not silently degrade: F1 may drop at most 0.05
//     absolute, and every sharded and worker run must reproduce the primary
//     run's match count (the byte-identity contract);
//   - the reports must be comparable at all: same scale, and every baseline
//     dataset present in the current report.
//
// A nil return means the gate passes.
func CheckBench(cur, base *BenchReport, maxRatio float64) error {
	if maxRatio <= 1 {
		return fmt.Errorf("experiments: check tolerance %g must exceed 1", maxRatio)
	}
	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	if cur.Scale != base.Scale {
		failf("scale mismatch: current %g vs baseline %g (refresh the baseline or pass -scale %g)",
			cur.Scale, base.Scale, base.Scale)
	} else {
		// Tally of the snapshot warm-start claim across datasets (see the
		// snapshot-run block below and the check after the loop).
		var snapGated, snapFast int
		for _, b := range base.Results {
			c := findResult(cur, b.Dataset)
			if c == nil {
				failf("%s: present in baseline but not in current run", b.Dataset)
				continue
			}
			stages := []struct {
				name      string
				base, cur float64
			}{
				{"statistics", b.StatisticsMS, c.StatisticsMS},
				{"stats/attributes", b.StatsAttributesMS, c.StatsAttributesMS},
				{"stats/relations", b.StatsRelationsMS, c.StatsRelationsMS},
				{"stats/topneighbors", b.StatsTopNeighborsMS, c.StatsTopNeighborsMS},
				{"blocking", b.BlockingMS, c.BlockingMS},
				{"blocking/name", b.BlockingNameMS, c.BlockingNameMS},
				{"blocking/token", b.BlockingTokenMS, c.BlockingTokenMS},
				{"graph", b.GraphMS, c.GraphMS},
				{"graph/beta", b.GraphBetaMS, c.GraphBetaMS},
				{"graph/gamma", b.GraphGammaMS, c.GraphGammaMS},
				{"matching", b.MatchingMS, c.MatchingMS},
				{"total", b.TotalMS, c.TotalMS},
			}
			for _, st := range stages {
				if eb := max(st.base, checkFloorMS); st.cur > eb*maxRatio {
					failf("%s: %s stage %.1fms exceeds %.1fms baseline (floored to %.1fms) ×%.1f tolerance",
						b.Dataset, st.name, st.cur, st.base, eb, maxRatio)
				}
			}
			if c.F1 < b.F1-0.05 {
				failf("%s: F1 %.3f dropped more than 0.05 below baseline %.3f", b.Dataset, c.F1, b.F1)
			}
			for _, bs := range b.ShardRuns {
				cs := findShardRun(c, bs.Shards)
				if cs == nil {
					failf("%s: shards=%d present in baseline but not in current run", b.Dataset, bs.Shards)
					continue
				}
				if eb := max(bs.TotalMS, checkFloorMS); cs.TotalMS > eb*maxRatio {
					failf("%s: shards=%d total %.1fms exceeds %.1fms baseline (floored to %.1fms) ×%.1f tolerance",
						b.Dataset, bs.Shards, cs.TotalMS, bs.TotalMS, eb, maxRatio)
				}
			}
			for _, cs := range c.ShardRuns {
				if cs.Matches != c.Matches {
					failf("%s: shards=%d produced %d matches, the primary run produced %d (determinism broken)",
						b.Dataset, cs.Shards, cs.Matches, c.Matches)
				}
			}
			// Worker runs are matched by the REQUESTED count (0 = all
			// cores), never the resolved one, so a baseline recorded on an
			// N-core box still gates a run on an M-core box.
			for _, bw := range b.WorkerRuns {
				cw := findWorkerRun(c, bw.Workers)
				if cw == nil {
					failf("%s: workers=%s present in baseline but not in current run",
						b.Dataset, workersLabel(bw.Workers, bw.ResolvedWorkers))
					continue
				}
				if eb := max(bw.TotalMS, checkFloorMS); cw.TotalMS > eb*maxRatio {
					failf("%s: workers=%s total %.1fms exceeds %.1fms baseline (floored to %.1fms) ×%.1f tolerance",
						b.Dataset, workersLabel(bw.Workers, cw.ResolvedWorkers), cw.TotalMS, bw.TotalMS, eb, maxRatio)
				}
			}
			for _, cw := range c.WorkerRuns {
				if cw.Matches != c.Matches {
					failf("%s: workers=%s produced %d matches, primary run produced %d (determinism broken)",
						b.Dataset, workersLabel(cw.Workers, cw.ResolvedWorkers), cw.Matches, c.Matches)
				}
			}
			// Query-path latency: relative to baseline (floored) like every
			// stage, plus the absolute p99 ceiling.
			if len(b.QueryRuns) > 0 {
				if len(c.QueryRuns) == 0 {
					failf("%s: query run present in baseline but not in current run", b.Dataset)
				} else {
					bq, cq := b.QueryRuns[0], c.QueryRuns[0]
					percentiles := []struct {
						name      string
						base, cur float64
					}{
						{"p50", bq.P50US, cq.P50US},
						{"p95", bq.P95US, cq.P95US},
						{"p99", bq.P99US, cq.P99US},
					}
					for _, pc := range percentiles {
						if eb := max(pc.base, queryFloorUS); pc.cur > eb*maxRatio {
							failf("%s: query %s %.0fµs exceeds %.0fµs baseline (floored to %.0fµs) ×%.1f tolerance",
								b.Dataset, pc.name, pc.cur, pc.base, eb, maxRatio)
						}
					}
					if cq.P99US > queryP99CapUS {
						failf("%s: query p99 %.0fµs exceeds the absolute %.0fµs ceiling",
							b.Dataset, cq.P99US, queryP99CapUS)
					}
				}
			}
			// Snapshot runs: the write and the cold open→first-query wall
			// against their own floored baselines; the speedup requirement is
			// tallied across datasets below.
			if len(b.SnapshotRuns) > 0 {
				if len(c.SnapshotRuns) == 0 {
					failf("%s: snapshot run present in baseline but not in current run", b.Dataset)
				} else {
					bs, cs := b.SnapshotRuns[0], c.SnapshotRuns[0]
					if eb := max(bs.WriteMS, snapFloorMS); cs.WriteMS > eb*maxRatio {
						failf("%s: snapshot write %.2fms exceeds %.2fms baseline (floored to %.1fms) ×%.1f tolerance",
							b.Dataset, cs.WriteMS, bs.WriteMS, eb, maxRatio)
					}
					if eb := max(bs.OpenMS, snapFloorMS); cs.OpenMS > eb*maxRatio {
						failf("%s: snapshot open→first-query %.2fms exceeds %.2fms baseline (floored to %.1fms) ×%.1f tolerance",
							b.Dataset, cs.OpenMS, bs.OpenMS, eb, maxRatio)
					}
					if bs.SpeedupX >= snapMinSpeedup {
						snapGated++
						if cs.SpeedupX >= snapMinSpeedup {
							snapFast++
						}
					}
				}
			}
			// Server-path load runs: the p99 tail is gated per concurrency
			// level against its own baseline entry, floored like every other
			// latency. Throughput is recorded but not gated — qps on a shared
			// runner measures the machine, the tail measures the code.
			for _, bl := range b.LoadRuns {
				cl := findLoadRun(c, bl.Clients)
				if cl == nil {
					failf("%s: load run clients=%d present in baseline but not in current run",
						b.Dataset, bl.Clients)
					continue
				}
				if eb := max(bl.P99US, loadFloorUS); cl.P99US > eb*maxRatio {
					failf("%s: serve clients=%d p99 %.0fµs exceeds %.0fµs baseline (floored to %.0fµs) ×%.1f tolerance",
						b.Dataset, bl.Clients, cl.P99US, bl.P99US, eb, maxRatio)
				}
			}
		}
		if want := min(snapMinDatasets, snapGated); snapGated > 0 && snapFast < want {
			failf("snapshot warm start beat the rebuild path by ≥%.0f× on only %d of %d gated datasets (need %d)",
				snapMinSpeedup, snapFast, snapGated, want)
		}
	}
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("experiments: bench check failed:\n  %s", strings.Join(fails, "\n  "))
}

func findResult(r *BenchReport, dataset string) *BenchResult {
	for i := range r.Results {
		if r.Results[i].Dataset == dataset {
			return &r.Results[i]
		}
	}
	return nil
}

func findShardRun(r *BenchResult, shards int) *ShardRun {
	for i := range r.ShardRuns {
		if r.ShardRuns[i].Shards == shards {
			return &r.ShardRuns[i]
		}
	}
	return nil
}

func findWorkerRun(r *BenchResult, workers int) *WorkerRun {
	for i := range r.WorkerRuns {
		if r.WorkerRuns[i].Workers == workers {
			return &r.WorkerRuns[i]
		}
	}
	return nil
}

func findLoadRun(r *BenchResult, clients int) *LoadRun {
	for i := range r.LoadRuns {
		if r.LoadRuns[i].Clients == clients {
			return &r.LoadRuns[i]
		}
	}
	return nil
}
