// Command perfbench is the repository's benchmark. Each workload is
// one generated KB pair (internal/datagen, seeded by --seed); every run
// drives all three user paths of MinoanER on that pair through the
// program's public entry points:
//
//   - batch resolution: minoaner.Resolve, repeated;
//   - serving: the real cmd/minoanerd binary over loopback, driven by an
//     open-loop generator with a replay / new-entity query mix;
//   - restart: core.BuildSubstrate + PrewarmQueries, snapshot write, cold
//     snapshot open and one replay answered through the loaded KB.
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it makes
// the same untraced measurements, repeats them with spans recorded around
// every call into a layer, probes the layers one by one and prints the
// per-layer metrics plus the tracing overhead. The last stdout line is the
// result JSON; the line before it is the full report (every metric by name
// with its unit, sample counts, failure accounting and the environment).
//
// Run it through run.sh, which builds perfbench and minoanerd first.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

type datasetConfig struct {
	Preset string  `json:"preset"`
	Scale  float64 `json:"scale"`
}

const (
	setupRounds    = 3                      // timed set-ups per run; setup_s is their median
	serveShare     = 0.30                   // shares of the measuring time: serving at the working rate,
	resolveShare   = 0.35                   // batch resolution,
	restartShare   = 0.35                   // and restart cycles
	connections    = 2                      // keep-alive connections of the generator
	limitPerMille  = 500                    // the percentile the latency limit applies to (500 = p50)
	replayShare    = 0.5                    // share of replay queries in the serving mix
	poolSize       = 384                    // sampled E1 entities per query kind
	ladderStep     = 250 * time.Millisecond // length of one ladder step
	requestTimeout = 2 * time.Second        // a request still unanswered then has failed
	transportQPS   = 200                    // the transport probe's rate, at one connection
	transportTime  = time.Second            // and its length
	restartCheck   = 8                      // extra replays compared, loaded vs built, per warm start
	warmStarts     = 5                      // cold snapshot opens per restart cycle
	probeQueries   = 256                    // sampled queries per kind in the layer probes
)

// config holds the benchmark's fixed constants that config.json records:
// the datasets, the working rate, the rate ladder and the latency limit.
type config struct {
	Datasets       map[string]datasetConfig `json:"datasets"`
	WorkingQPS     int                      `json:"working_qps"`
	LadderQPS      []int                    `json:"ladder_qps"`
	LatencyLimitUS float64                  `json:"latency_limit_us"`
}

func loadConfig(path string) (*config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &c, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phaseCount is the failure accounting of one phase.
type phaseCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func (p *phaseCount) record(failed bool) {
	p.Attempted++
	if failed {
		p.Failed++
	} else {
		p.Succeeded++
	}
}

// bench is one run's state.
type bench struct {
	cfg     *config
	ds      datasetConfig
	seed    int64
	seconds float64
	// passShare scales every phase budget: 1, or 1/2 in a traced run, which
	// measures each phase twice (untraced, then traced).
	passShare float64
	minoanerd string
	work      string

	e1, e2     string // N-Triples paths
	inputBytes int64
	gtURIs     [][2]string
	k1, k2     *kb.KB
	gt         *eval.GroundTruth
	ref        *core.Substrate // in-process reference substrate
	pool       *queryPool
	d          *daemon

	first    *resolveRef // the run's first resolve, which every later one must reproduce
	counts   map[string]*phaseCount
	failures []string // correctness checks that failed
}

func (b *bench) count(phase string) *phaseCount {
	if b.counts[phase] == nil {
		b.counts[phase] = &phaseCount{}
	}
	return b.counts[phase]
}

func (b *bench) fail(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// budget is the measuring time of one phase share.
func (b *bench) budget(share float64) time.Duration {
	return time.Duration(share * b.passShare * b.seconds * float64(time.Second))
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload name (a key of config.json datasets)")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 20, "measuring time of one run")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		cfgPath   = flag.String("config", "perfbench/config.json", "benchmark constants")
		minoanerd = flag.String("minoanerd", "", "path of the built cmd/minoanerd binary")
		outDir    = flag.String("out", ".bench_build/perfbench", "directory for inputs, snapshots and traces")
	)
	flag.Parse()
	report, res, err := run(*workload, *seed, *seconds, *trace == 1, *cfgPath, *minoanerd, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rb, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(rb))
	lb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(lb))
}

func run(workload string, seed int64, seconds float64, traced bool, cfgPath, minoanerd, outDir string) (map[string]any, *result, error) {
	cfg, err := loadConfig(cfgPath)
	if err != nil {
		return nil, nil, err
	}
	ds, ok := cfg.Datasets[workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	if _, err := os.Stat(minoanerd); err != nil {
		return nil, nil, fmt.Errorf("minoanerd binary: %w", err)
	}
	// One generator process with at most two threads running Go code; the
	// engine uses Workers = GOMAXPROCS.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	work := filepath.Join(outDir, "work", fmt.Sprintf("%s-seed%d-pid%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{cfg: cfg, ds: ds, seed: seed, seconds: seconds, passShare: 1,
		minoanerd: minoanerd, work: work, counts: map[string]*phaseCount{}}
	defer func() {
		if b.d != nil {
			_ = b.d.stop()
		}
	}()
	ctx := context.Background()

	if err := b.generate(); err != nil {
		return nil, nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		b.passShare = 0.5
	}
	setup, err := b.setup(tr)
	if err != nil {
		return nil, nil, err
	}
	if err := b.prepareQueries(ctx); err != nil {
		return nil, nil, err
	}

	m := &measurements{setup: setup}
	if err := b.measure(ctx, tr, m); err != nil {
		return nil, nil, err
	}
	if traced {
		if m.transport, err = b.transportProbe(ctx); err != nil {
			return nil, nil, err
		}
	}
	if err := b.d.stop(); err != nil {
		b.fail("minoanerd did not drain cleanly: %v", err)
	}
	b.d = nil
	if traced {
		if m.probes, err = b.probe(ctx, tr); err != nil {
			return nil, nil, err
		}
	}

	res := &result{Correct: len(b.failures) == 0}
	for _, c := range b.counts {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
	}
	errorRate := float64(res.Failed) / float64(max(res.Attempted, 1))
	e2e := b.endToEnd(setup[:setupRounds], m.serve, m.resolve, m.restart, 1-errorRate)
	report := map[string]any{
		"workload":   workload,
		"env":        b.env(),
		"phases":     b.counts,
		"checks":     map[string]any{"correct": res.Correct, "failures": b.failures},
		"end_to_end": e2e,
		"error_rate": metric{errorRate, "ratio"},
		// Reported, not gated: see perfbench/README.md.
		"max_qps_at_slo": metric{m.serve.maxQPS, "1/s"},
		"samples":        b.samples(m),
		"serve_steps":    b.serveSteps(m.serve),
	}
	res.Metrics = e2e
	if traced {
		spans := tr.snapshot()
		layers := b.perLayer(m, e2e, spans)
		report["per_layer"] = layers
		tracePath := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			return nil, nil, err
		}
		if err := writeSpans(tracePath, spans); err != nil {
			return nil, nil, err
		}
		report["trace_file"] = tracePath
		res.Metrics = layers
	}
	return report, res, nil
}

// presets maps config preset names onto the datagen profiles.
func preset(name string) (datagen.Profile, error) {
	for _, p := range datagen.Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return datagen.Profile{}, fmt.Errorf("unknown datagen preset %q", name)
}

// generate writes the workload's KB pair as N-Triples into the work
// directory and keeps the ground truth as URI pairs.
func (b *bench) generate() error {
	p, err := preset(b.ds.Preset)
	if err != nil {
		return err
	}
	p = datagen.Scale(p, b.ds.Scale)
	p.Seed += b.seed
	d, err := datagen.Generate(p)
	if err != nil {
		return fmt.Errorf("generate %s: %w", p.Name, err)
	}
	b.e1, b.e2 = filepath.Join(b.work, "e1.nt"), filepath.Join(b.work, "e2.nt")
	for _, f := range []struct {
		path string
		k    *kb.KB
	}{{b.e1, d.K1}, {b.e2, d.K2}} {
		if err := writeNT(f.path, f.k); err != nil {
			return err
		}
		st, err := os.Stat(f.path)
		if err != nil {
			return err
		}
		b.inputBytes += st.Size()
	}
	for _, pr := range d.GT.Pairs() {
		b.gtURIs = append(b.gtURIs, [2]string{d.K1.URI(pr.E1), d.K2.URI(pr.E2)})
	}
	return nil
}

func writeNT(path string, k *kb.KB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := kb.WriteNTriples(w, k); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadNT parses one N-Triples file the way minoanerd does.
func loadNT(name, path string) (*kb.KB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	k, _, err := kb.LoadNTriples(name, f, true)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return k, nil
}

// setupRound is one timed set-up: parse both files in-process (parse), then
// exec minoanerd and load the pair over /v1 until it is ready (ready).
type setupRound struct {
	total, parse, ready time.Duration
}

// setup runs the set-up rounds (one more, traced, in a traced run) and
// keeps the last round's KBs and server.
func (b *bench) setup(tr *tracer) ([]setupRound, error) {
	rounds, total := setupRounds, setupRounds
	if tr != nil {
		total++
	}
	var out []setupRound
	for i := range total {
		t := tr
		if i < rounds {
			t = nil
		}
		if b.d != nil {
			if err := b.d.stop(); err != nil {
				b.fail("minoanerd did not drain cleanly: %v", err)
			}
			b.d = nil
		}
		b.k1, b.k2 = nil, nil
		runtime.GC()
		r, err := b.setupOnce(t, i)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	pairs, skipped := eval.PairsFromURIs(b.k1, b.k2, b.gtURIs)
	if skipped > 0 {
		return nil, fmt.Errorf("%d ground-truth pairs name entities missing from the parsed files", skipped)
	}
	b.gt = eval.NewGroundTruth(pairs)
	return out, nil
}

func (b *bench) setupOnce(tr *tracer, i int) (setupRound, error) {
	var r setupRound
	t0 := time.Now()
	root := tr.begin("setup.round", -1)
	sp := tr.begin("kb.parse", root)
	k1, err := loadNT("E1", b.e1)
	if err != nil {
		return r, err
	}
	tr.end(sp, nil)
	sp = tr.begin("kb.parse", root)
	k2, err := loadNT("E2", b.e2)
	if err != nil {
		return r, err
	}
	tr.end(sp, nil)
	t1 := time.Now()
	sp = tr.begin("minoanerd.ready", root)
	d, err := startDaemon(b.minoanerd, filepath.Join(b.work, fmt.Sprintf("minoanerd-%d.log", i)))
	if err != nil {
		return r, err
	}
	b.d = d
	if err := d.loadPair("p", b.e1, b.e2); err != nil {
		return r, err
	}
	tr.end(sp, nil)
	t2 := time.Now()
	tr.end(root, nil)
	b.k1, b.k2 = k1, k2
	return setupRound{total: t2.Sub(t0), parse: t1.Sub(t0), ready: t2.Sub(t1)}, nil
}

// env is the environment record every result carries.
func (b *bench) env() map[string]any {
	commit := "unknown: not a git checkout"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"commit":         commit,
		"source_sha256":  sourceDigest("."),
		"go":             runtime.Version(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"engine_workers": runtime.GOMAXPROCS(0),
		"seed":           b.seed,
		"dataset":        b.ds,
		"e1_entities":    b.k1.Len(),
		"e2_entities":    b.k2.Len(),
		"input_mb":       float64(b.inputBytes) / 1e6,
		"seconds":        b.seconds,
		"snapshot_flush_policy": "snapshot.WriteSubstrateFile writes a temp file and renames it, " +
			"without fsync; the warm start reads the file back from the page cache",
	}
}

// sourceDigest hashes the Go sources and go.mod files under root, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// matchDigest hashes the sorted match pairs (by URI).
func matchDigest(k1, k2 *kb.KB, pairs []eval.Pair) string {
	lines := make([]string, len(pairs))
	for i, p := range pairs {
		lines[i] = k1.URI(p.E1) + "\t" + k2.URI(p.E2) + "\n"
	}
	slices.Sort(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}
