package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"minoaner"
	"minoaner/internal/core"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/server"
	"minoaner/internal/snapshot"
)

// measurements gathers every phase of one run; the T-suffixed fields are
// the traced repeats of a traced run.
type measurements struct {
	setup             []setupRound
	serve, serveT     *serveStats
	resolve, resolveT *resolveStats
	restart, restartT *restartStats
	transport         float64 // µs, loopback replay p50 at one connection
	probes            *probeStats
}

// engineConfig is the paper's configuration on an engine of GOMAXPROCS
// workers.
func engineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = runtime.GOMAXPROCS(0)
	return cfg
}

// queryPool holds the sampled serving queries of both kinds and, for each,
// the candidates JSON the in-process reference substrate answers.
type queryPool struct {
	replayIDs    []kb.EntityID
	replayBodies [][]byte
	newQueries   []core.EntityQuery
	newTails     [][]byte // body after `{"uri":"...",`
	expected     [2][][]byte
}

// prepareQueries builds the reference substrate in-process from the same
// files minoanerd loaded and samples the query pool: distinct E1 entities
// with at least one literal, each both replayed by URI and re-sent as a
// new entity.
func (b *bench) prepareQueries(ctx context.Context) error {
	cfg := engineConfig()
	ref, err := core.BuildSubstrate(ctx, b.k1, b.k2, cfg)
	if err != nil {
		return fmt.Errorf("reference substrate: %w", err)
	}
	if err := ref.PrewarmQueries(ctx); err != nil {
		return fmt.Errorf("reference substrate: %w", err)
	}
	b.ref = ref
	n := poolSize
	rng := rand.New(rand.NewSource(b.seed))
	var picked []kb.EntityID
	for _, i := range rng.Perm(b.k1.Len()) {
		if len(b.k1.Entity(kb.EntityID(i)).Attrs) > 0 {
			picked = append(picked, kb.EntityID(i))
		}
		if len(picked) == n {
			break
		}
	}
	if len(picked) < n {
		return fmt.Errorf("only %d E1 entities with literals; the pool needs %d", len(picked), n)
	}
	p := &queryPool{}
	for _, e := range picked {
		uri := b.k1.URI(e)
		body, err := json.Marshal(server.QueryRequest{URI: uri})
		if err != nil {
			return err
		}
		want, err := candidateBytes(ctx, ref, core.QueryFromEntity(b.k1, e))
		if err != nil {
			return err
		}
		p.replayIDs = append(p.replayIDs, e)
		p.replayBodies = append(p.replayBodies, body)
		p.expected[kindReplay] = append(p.expected[kindReplay], want)
	}
	for _, e := range picked {
		q := newEntityQuery(b.k1, e)
		req := server.QueryRequest{}
		for _, a := range q.Attrs {
			req.Attrs = append(req.Attrs, server.QueryAttr{Attribute: a.Attribute, Value: a.Value})
		}
		for _, o := range q.Objects {
			req.Objects = append(req.Objects, server.QueryObject{Predicate: o.Predicate, Object: o.Object})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		want, err := candidateBytes(ctx, ref, q)
		if err != nil {
			return err
		}
		p.newQueries = append(p.newQueries, q)
		p.newTails = append(p.newTails, body[1:])
		p.expected[kindNew] = append(p.expected[kindNew], want)
	}
	b.pool = p
	return nil
}

// newEntityQuery re-sends E1 entity e's statements under a fresh URI and
// without self_uri: to the service it is an entity it has never seen.
func newEntityQuery(k *kb.KB, e kb.EntityID) core.EntityQuery {
	q := core.QueryFromEntity(k, e)
	q.URI, q.SelfURI = "urn:perfbench:new", ""
	return q
}

// candidateBytes answers q in-process and renders the candidates exactly as
// the /v1 response carries them.
func candidateBytes(ctx context.Context, sub *core.Substrate, q core.EntityQuery) ([]byte, error) {
	ms, err := core.QueryEntity(ctx, sub, q, core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("query %s: %w", q.URI, err)
	}
	return json.Marshal(server.Candidates(ms))
}

// serveStats is one serving pass: the working-rate step and the ladder.
type serveStats struct {
	working stepResult
	ladder  []stepResult
	maxQPS  float64 // the highest ladder rate that met the limit
}

// phaseRounds is how many slices each phase's time is cut into. The phases
// take turns slice by slice, so every metric's samples spread over the
// whole run instead of one stretch of it: on a machine shared with other
// tenants, whose speed drifts from second to second, one slow stretch then
// moves every metric a little instead of one metric a lot.
const phaseRounds = 5

// pass is one measuring pass: untraced (tr nil) or traced. plan draws the
// serving schedule and nothing else, so the schedule is fixed by the seed;
// picks draws the warm-start entities, whose number depends on how many
// restart cycles fit in the time.
type pass struct {
	tr          *tracer
	sv          *serveStats
	rs          *resolveStats
	rt          *restartStats
	plan, picks *rand.Rand
}

// measure runs the three paths in phaseRounds interleaved rounds, each
// round one slice of every pass (untraced, then traced in a traced run),
// and then the rate ladder. The daemon serves throughout and idles while
// the in-process phases run.
func (b *bench) measure(ctx context.Context, tr *tracer, m *measurements) error {
	qps := b.cfg.WorkingQPS
	g := newLoadgen(b.d.base, "p", connections, requestTimeout, b.pool)
	defer g.close()
	if err := g.warm(ctx); err != nil {
		return err
	}
	passes := []*pass{{}}
	if tr != nil {
		passes = append(passes, &pass{tr: tr})
	}
	for i, p := range passes {
		p.sv, p.rs, p.rt = &serveStats{}, &resolveStats{}, &restartStats{}
		p.plan = rand.New(rand.NewSource(b.seed*7919 + int64(i)))
		p.picks = rand.New(rand.NewSource(b.seed*7919 + 100 + int64(i)))
	}
	// An untimed warm-up at the working rate settles the server.
	runtime.GC()
	b.account("serve.warmup", g.run(ctx, qps, planQueries(passes[0].plan, qps/2, replayShare, poolSize), nil))
	serveSlice := b.budget(serveShare) / phaseRounds
	resolveSlice := b.budget(resolveShare) / phaseRounds
	restartSlice := b.budget(restartShare) / phaseRounds
	for range phaseRounds {
		for _, p := range passes {
			// Collect the in-process phases' garbage now rather than while
			// the generator is timing requests.
			runtime.GC()
			r := g.run(ctx, qps, planQueries(p.plan, stepCount(qps, serveSlice), replayShare, poolSize), p.tr)
			b.account("serve.working", r)
			p.sv.working.qps = r.qps
			p.sv.working.out = append(p.sv.working.out, r.out...)
			p.sv.working.backlog = max(p.sv.working.backlog, r.backlog)
			b.resolveFor(ctx, p.tr, p.rs, resolveSlice)
			b.restartFor(ctx, p.tr, p.rt, p.picks, restartSlice)
		}
	}
	for _, p := range passes {
		if len(p.rs.ms) == 0 || len(p.rt.rebuild) == 0 {
			return fmt.Errorf("every resolve or every restart cycle failed")
		}
	}
	fi, err := os.Stat(b.snapPath())
	if err != nil {
		return err
	}
	for _, p := range passes {
		p.rt.snapMB = float64(fi.Size()) / 1e6
	}
	m.serve, m.resolve, m.restart = passes[0].sv, passes[0].rs, passes[0].rt
	if tr != nil {
		m.serveT, m.resolveT, m.restartT = passes[1].sv, passes[1].rs, passes[1].rt
	}
	runtime.GC()
	b.ladder(ctx, g, passes[0].plan, m.serve)
	return nil
}

// ladder climbs the rate ladder from the working rate until a step misses
// the latency limit, and records the highest rate that met it.
func (b *bench) ladder(ctx context.Context, g *loadgen, rng *rand.Rand, st *serveStats) {
	if b.meetsLimit(st.working) {
		st.maxQPS = float64(b.cfg.WorkingQPS)
	}
	for _, qps := range b.cfg.LadderQPS {
		r := g.run(ctx, qps, planQueries(rng, stepCount(qps, ladderStep), replayShare, poolSize), nil)
		b.account("serve.ladder", r)
		st.ladder = append(st.ladder, r)
		if !b.meetsLimit(r) {
			return
		}
		st.maxQPS = float64(qps)
	}
}

// transportProbe measures replay latency over loopback at one connection
// and a low rate, where no request queues behind another.
func (b *bench) transportProbe(ctx context.Context) (float64, error) {
	g := newLoadgen(b.d.base, "p", 1, requestTimeout, b.pool)
	defer g.close()
	if err := g.warm(ctx); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(b.seed + 17))
	r := g.run(ctx, transportQPS, planQueries(rng, stepCount(transportQPS, transportTime), 1, poolSize), nil)
	b.account("serve.transport", r)
	return summarize(latencies(r.out, kindReplay), 990).Median, nil
}

// account records a step's outcomes and flags any wrong answer.
func (b *bench) account(phase string, r stepResult) {
	c := b.count(phase)
	wrong := 0
	for _, o := range r.out {
		c.record(o.failed)
		if o.wrong {
			wrong++
		}
	}
	if wrong > 0 {
		b.fail("%s at %d qps: %d responses whose candidates differ from the in-process answer", phase, r.qps, wrong)
	}
}

// meetsLimit applies the serving limit to one step: no failures, the limit
// percentile of both kinds (timed from due) within the limit, and no more
// requests left outstanding at the step's end than the limit lets the rate
// keep in flight.
func (b *bench) meetsLimit(r stepResult) bool {
	limit := b.cfg.LatencyLimitUS
	var lat []float64
	for _, o := range r.out {
		if o.failed {
			return false
		}
		lat = append(lat, us(o.lat))
	}
	d := summarize(lat, limitPerMille)
	maxBacklog := int(float64(r.qps)*limit/1e6) + connections
	return d.TailPM > 0 && d.Tail <= limit && r.backlog <= maxBacklog
}

// latencies returns the µs latencies of one query kind.
func latencies(out []outcome, k queryKind) []float64 {
	var xs []float64
	for _, o := range out {
		if o.kind == k {
			xs = append(xs, us(o.lat))
		}
	}
	return xs
}

// resolveStats is one batch-resolution pass.
type resolveStats struct {
	ms     []float64
	heapMB []float64
	last   *core.Output
}

// resolveFor repeats minoaner.Resolve for dur (at least once), checking
// that F1 and the match digest never change.
func (b *bench) resolveFor(ctx context.Context, tr *tracer, st *resolveStats, dur time.Duration) {
	cfg := engineConfig()
	c := b.count("resolve")
	deadline := time.Now().Add(dur)
	for first := true; first || time.Now().Before(deadline); first = false {
		runtime.GC()
		hs := startHeapSampler()
		sp := tr.begin("core.resolve", -1)
		t0 := time.Now()
		out, err := minoaner.Resolve(ctx, b.k1, b.k2, cfg)
		el := time.Since(t0)
		tr.end(sp, outputAttrs(out))
		peak := hs.stop()
		c.record(err != nil)
		if err != nil {
			continue
		}
		st.ms = append(st.ms, ms(el))
		st.heapMB = append(st.heapMB, peak)
		st.last = out
		b.checkResolve(out, "resolve")
	}
}

// checkResolve pins F1 and the sorted-match digest of the first resolve of
// the run and flags any later resolve that differs.
func (b *bench) checkResolve(out *core.Output, what string) {
	met := eval.Evaluate(out.Pairs(), b.gt)
	digest := matchDigest(b.k1, b.k2, out.Pairs())
	if b.first == nil {
		b.first = &resolveRef{f1: met.F1, digest: digest, truePos: met.TruePositives}
		return
	}
	if met.F1 != b.first.f1 || digest != b.first.digest {
		b.fail("%s: F1 %.6f / digest %s differs from the first resolve's %.6f / %s", what, met.F1, digest[:12], b.first.f1, b.first.digest[:12])
	}
}

// resolveRef is the first resolve's outcome, which every later one must
// reproduce.
type resolveRef struct {
	f1      float64
	digest  string
	truePos int
}

// outputAttrs turns a resolve's stage clocks and counts into span attrs.
func outputAttrs(out *core.Output) map[string]float64 {
	if out == nil {
		return nil
	}
	t := out.Timings
	a := map[string]float64{
		"stats.attributes_ms":   ms(t.StatsAttributes),
		"stats.relations_ms":    ms(t.StatsRelations),
		"stats.topneighbors_ms": ms(t.StatsTopNeighbors),
		"blocking.name_ms":      ms(t.BlockingName),
		"blocking.token_ms":     ms(t.BlockingToken),
		"graph.beta_ms":         ms(t.GraphBeta),
		"graph.gamma_ms":        ms(t.GraphGamma),
		"matching.ms":           ms(t.Matching),
		"graph.edges":           float64(out.GraphEdges),
		"matching.matches_r4":   float64(out.RemovedByR4),
	}
	for _, m := range out.Matches {
		switch m.Rule {
		case matching.RuleName:
			a["matching.matches_r1"]++
		case matching.RuleValue:
			a["matching.matches_r2"]++
		case matching.RuleRank:
			a["matching.matches_r3"]++
		}
	}
	return a
}

// heapSampler polls the live-heap size while an operation runs.
type heapSampler struct {
	stopc chan struct{}
	peak  chan float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				h.peak <- float64(peak) / 1e6
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.peak
}

// restartStats is one restart pass.
type restartStats struct {
	rebuild, write, warm []float64 // ms
	snapMB               float64
}

// restartFor repeats the restart cycle for dur (at least once): rebuild
// the substrate, write the snapshot, then warmStarts times open it cold and
// answer one replay through the loaded K1.
func (b *bench) restartFor(ctx context.Context, tr *tracer, st *restartStats, rng *rand.Rand, dur time.Duration) {
	cfg := engineConfig()
	c := b.count("restart")
	deadline := time.Now().Add(dur)
	for first := true; first || time.Now().Before(deadline); first = false {
		runtime.GC()
		err := b.restartCycle(ctx, tr, cfg, st, rng)
		c.record(err != nil)
		if err != nil {
			b.fail("restart cycle: %v", err)
		}
	}
}

func (b *bench) restartCycle(ctx context.Context, tr *tracer, cfg core.Config, st *restartStats, rng *rand.Rand) error {
	cycle := tr.begin("restart.cycle", -1)
	t0 := time.Now()
	sp := tr.begin("core.build", cycle)
	sub, err := core.BuildSubstrate(ctx, b.k1, b.k2, cfg)
	tr.end(sp, nil)
	if err != nil {
		return err
	}
	sp = tr.begin("core.prewarm", cycle)
	err = sub.PrewarmQueries(ctx)
	tr.end(sp, nil)
	if err != nil {
		return err
	}
	t1 := time.Now()
	sp = tr.begin("snapshot.write", cycle)
	err = snapshot.WriteSubstrateFile(b.snapPath(), sub)
	tr.end(sp, nil)
	if err != nil {
		return err
	}
	t2 := time.Now()
	tr.end(cycle, nil)
	st.rebuild = append(st.rebuild, ms(t1.Sub(t0)))
	st.write = append(st.write, ms(t2.Sub(t1)))

	// Untimed: flush the file now, so this cycle's writeback does not
	// throttle the next cycle's write. The timed write itself keeps the
	// program's policy (rename, no fsync).
	if err := syncFile(b.snapPath()); err != nil {
		return err
	}
	for range warmStarts {
		if err := b.warmStart(ctx, tr, st, sub, kb.EntityID(rng.Intn(b.k1.Len()))); err != nil {
			return err
		}
	}
	return nil
}

// warmStart opens the snapshot cold and answers one replay of E1 entity e
// through the loaded K1, as the /v1 service does; then it checks that
// replay rows from the loaded substrate byte-equal the built one's, for e
// and a fixed-size sample.
func (b *bench) warmStart(ctx context.Context, tr *tracer, st *restartStats, sub *core.Substrate, e kb.EntityID) error {
	loaded, first, el, err := b.openAndReplay(ctx, tr, b.k1.URI(e))
	if loaded != nil {
		defer loaded.Close()
	}
	if err != nil {
		return err
	}
	st.warm = append(st.warm, ms(el))

	ls := loaded.Substrate()
	firstJSON, err := json.Marshal(server.Candidates(first))
	if err != nil {
		return err
	}
	ids := []kb.EntityID{e}
	for i := range restartCheck {
		ids = append(ids, kb.EntityID((int(e)+1+i*7919)%b.k1.Len()))
	}
	for i, x := range ids {
		want, err := candidateBytes(ctx, sub, core.QueryFromEntity(b.k1, x))
		if err != nil {
			return err
		}
		got := firstJSON
		if i > 0 {
			lid := ls.K1().Lookup(b.k1.URI(x))
			if got, err = candidateBytes(ctx, ls, core.QueryFromEntity(ls.K1(), lid)); err != nil {
				return err
			}
		}
		if !slices.Equal(got, want) {
			b.fail("restart: replay of %s from the snapshot differs from the built substrate", b.k1.URI(x))
		}
	}
	return nil
}

// openAndReplay is the timed part of a warm start: OpenSubstrate, then a
// replay of uri through the loaded K1. A real warm start runs in a fresh
// process with a small heap; this process's heap holds both KBs and two
// substrates, so a collection paced by earlier work could mark all of it
// inside this ~10 ms window at random. An untimed collection first starts
// a fresh pacing cycle; the warm start's own allocation is paid as usual.
func (b *bench) openAndReplay(ctx context.Context, tr *tracer, uri string) (*snapshot.Loaded, []core.QueryMatch, time.Duration, error) {
	runtime.GC()
	root := tr.begin("restart.warm_start", -1)
	defer tr.end(root, nil)
	t0 := time.Now()
	sp := tr.begin("snapshot.open", root)
	loaded, err := snapshot.OpenSubstrate(b.snapPath())
	tr.end(sp, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	ls := loaded.Substrate()
	if tr != nil {
		// The lazy Description build the replay would trigger inside
		// QueryFromEntity, timed on its own.
		sp = tr.begin("kb.materialize", root)
		_ = ls.K1().Entity(0)
		tr.end(sp, nil)
	}
	sp = tr.begin("snapshot.first_query", root)
	defer tr.end(sp, nil)
	id := ls.K1().Lookup(uri)
	if id == kb.NoEntity {
		return loaded, nil, 0, fmt.Errorf("loaded K1 has no %s", uri)
	}
	first, err := core.QueryEntity(ctx, ls, core.QueryFromEntity(ls.K1(), id), core.DefaultConfig())
	return loaded, first, time.Since(t0), err
}

// snapPath is where the restart cycles write the snapshot.
func (b *bench) snapPath() string { return filepath.Join(b.work, "pair.snap") }

// syncFile flushes path's data to disk.
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", path, err)
	}
	return f.Close()
}
