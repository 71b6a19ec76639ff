// Command experiments regenerates the tables and figures of the MinoanER
// paper's evaluation (§6) on the synthetic benchmark presets.
//
// Usage:
//
//	experiments -all                  # everything (Tables 1–4, Figures 2, 5, 6)
//	experiments -table 3              # one table
//	experiments -figure 2 -csv f2.csv # one figure, plus raw CSV points
//	experiments -scale 0.2            # shrink datasets 5× for a quick run
//	experiments -datasets Restaurant,YAGO-IMDb
//	experiments -bench                # per-stage timings → BENCH_<date>.json
//	experiments -bench -reps 5 -benchout perf.json
//	experiments -bench -shards 1,8    # + sharded-execution data points
//	experiments -bench -parworkers 0  # + a workers=GOMAXPROCS data point
//	experiments -bench -scale 0.25 -check BENCH_baseline.json
//	                                  # CI regression gate: fail on >2× stage
//	                                  # regression against the committed baseline
//	experiments -bench -datasets Rexa-DBLP -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                  # pprof CPU/heap profiles of one preset run
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"minoaner/internal/experiments"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate one table (1–4)")
		figure    = flag.Int("figure", 0, "regenerate one figure (2, 5 or 6)")
		all       = flag.Bool("all", false, "regenerate every table and figure")
		scale     = flag.Float64("scale", 1.0, "dataset scale factor")
		workers   = flag.Int("workers", 0, "parallel workers (0 = all cores)")
		datasets  = flag.String("datasets", "", "comma-separated preset names (default: all four)")
		csvPath   = flag.String("csv", "", "write Figure 2 points as CSV to this path")
		bench     = flag.Bool("bench", false, "run the per-stage pipeline benchmark and write a BENCH JSON report")
		reps      = flag.Int("reps", 3, "benchmark repetitions per dataset (with -bench)")
		benchout  = flag.String("benchout", "", "benchmark report path (default BENCH_<date>.json)")
		shardsCSV = flag.String("shards", "", "comma-separated E1 shard counts (Config.ShardCount) to benchmark the pipeline at (with -bench)")
		parCSV    = flag.String("parworkers", "", "comma-separated extra worker counts to benchmark the pipeline at (0 = all cores; with -bench)")
		check     = flag.String("check", "", "baseline BENCH JSON to gate against (implies -bench; exit 1 on regression)")
		tolerance = flag.Float64("tolerance", 2.0, "bench-check failure ratio: fail when a stage exceeds baseline×tolerance")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	)
	flag.Parse()
	// Profiles flush through flushProfiles so that error exits (exitOn →
	// os.Exit, which skips defers) still produce complete, loadable files —
	// e.g. a failing -check gate with -cpuprofile set.
	if *cpuProf != "" || *memProf != "" {
		var cpuFile *os.File
		if *cpuProf != "" {
			f, err := os.Create(*cpuProf)
			exitOn(err)
			exitOn(pprof.StartCPUProfile(f))
			cpuFile = f
		}
		var once sync.Once
		flushProfiles = func() {
			once.Do(func() {
				if cpuFile != nil {
					pprof.StopCPUProfile()
					if err := cpuFile.Close(); err != nil {
						fmt.Fprintln(os.Stderr, "experiments:", err)
						return
					}
					fmt.Printf("(CPU profile written to %s)\n", *cpuProf)
				}
				if *memProf != "" {
					f, err := os.Create(*memProf)
					if err != nil {
						fmt.Fprintln(os.Stderr, "experiments:", err)
						return
					}
					runtime.GC() // profile the live set, not allocator slack
					if err := pprof.WriteHeapProfile(f); err == nil {
						fmt.Printf("(heap profile written to %s)\n", *memProf)
					} else {
						fmt.Fprintln(os.Stderr, "experiments:", err)
					}
					if err := f.Close(); err != nil {
						fmt.Fprintln(os.Stderr, "experiments:", err)
					}
				}
			})
		}
		defer flushProfiles()
	}
	if *check != "" {
		*bench = true
	}
	if !*all && *table == 0 && *figure == 0 && !*bench {
		flag.Usage()
		os.Exit(2)
	}
	shardCounts, err := parseShardCounts(*shardsCSV)
	exitOn(err)
	workerCounts, err := parseWorkerCounts(*parCSV)
	exitOn(err)
	var names []string
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}
	suite, err := experiments.NewSuite(experiments.Options{
		ScaleFactor: *scale,
		Workers:     *workers,
		Datasets:    names,
	})
	exitOn(err)

	if *bench {
		report, err := suite.Bench(*reps, shardCounts, workerCounts)
		exitOn(err)
		path := *benchout
		if path == "" {
			path = "BENCH_" + time.Now().Format("2006-01-02") + ".json"
		}
		exitOn(report.WriteJSON(path))
		fmt.Print(experiments.FormatBench(report))
		fmt.Printf("(report written to %s)\n", path)
		if *check != "" {
			baseline, err := experiments.ReadBenchJSON(*check)
			exitOn(err)
			exitOn(experiments.CheckBench(report, baseline, *tolerance))
			fmt.Printf("bench check OK against %s (tolerance ×%g)\n", *check, *tolerance)
		}
		if !*all && *table == 0 && *figure == 0 {
			return
		}
	}

	run := func(id string, f func() error) {
		fmt.Printf("==== %s ====\n", id)
		exitOn(f())
		fmt.Println()
	}
	wantTable := func(n int) bool { return *all || *table == n }
	wantFigure := func(n int) bool { return *all || *figure == n }

	if wantTable(1) {
		run("Table 1: dataset statistics", func() error {
			rows, err := suite.Table1()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable1(rows))
			return nil
		})
	}
	if wantTable(2) {
		run("Table 2: block statistics", func() error {
			rows, err := suite.Table2()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable2(rows))
			return nil
		})
	}
	if wantFigure(2) {
		run("Figure 2: value vs neighbor similarity of matches", func() error {
			points, err := suite.Figure2()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure2(points))
			if *csvPath != "" {
				if err := os.WriteFile(*csvPath, []byte(experiments.Figure2CSV(points)), 0o644); err != nil {
					return err
				}
				fmt.Printf("(points written to %s)\n", *csvPath)
			}
			return nil
		})
	}
	if wantTable(3) {
		run("Table 3: comparison with baselines", func() error {
			rows, err := suite.Table3()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable3(rows))
			return nil
		})
	}
	if wantTable(4) {
		run("Table 4: matching-rule evaluation", func() error {
			rows, err := suite.Table4()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable4(rows))
			return nil
		})
	}
	if wantFigure(5) {
		run("Figure 5: parameter sensitivity", func() error {
			points, err := suite.Figure5()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure5(points))
			return nil
		})
	}
	if wantFigure(6) {
		run("Figure 6: scalability", func() error {
			points, err := suite.Figure6()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure6(points))
			return nil
		})
	}
}

// parseCounts parses a comma-separated integer list, rejecting entries
// below min — the shared parser behind -shards (min 1) and -parworkers
// (min 0, where 0 means all cores).
func parseCounts(csv, flagName, want string, min int) ([]int, error) {
	if csv == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			return nil, fmt.Errorf("invalid %s entry %q (want %s)", flagName, part, want)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseShardCounts(csv string) ([]int, error) {
	return parseCounts(csv, "-shards", "positive integers", 1)
}

func parseWorkerCounts(csv string) ([]int, error) {
	return parseCounts(csv, "-parworkers", "non-negative integers; 0 = all cores", 0)
}

// flushProfiles finalizes any pprof profiles in flight; exitOn calls it
// because os.Exit skips deferred calls. It is idempotent (sync.Once).
var flushProfiles = func() {}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		flushProfiles()
		os.Exit(1)
	}
}
