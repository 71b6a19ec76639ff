package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/testkb"
)

// digest serializes everything the pipeline is contracted to reproduce —
// matches with provenance, R4 removals, graph edge count, block statistics,
// purge state and name attributes — and hashes it, so runs under different
// shard plans can be compared as a single value.
func digest(t *testing.T, out *Output) [32]byte {
	t.Helper()
	h := sha256.New()
	for _, m := range out.Matches {
		fmt.Fprintf(h, "m %d %d %s\n", m.Pair.E1, m.Pair.E2, m.Rule)
	}
	fmt.Fprintf(h, "r4 %d edges %d purged %d threshold %d\n",
		out.RemovedByR4, out.GraphEdges, out.PurgedBlocks, out.PurgeThreshold)
	fmt.Fprintf(h, "names %v %v\n", out.NameAttrs1, out.NameAttrs2)
	fmt.Fprintf(h, "blocks %d %d comparisons %d %d\n",
		out.NameBlocks.Len(), out.TokenBlocks.Len(),
		out.NameBlocks.TotalComparisons(), out.TokenBlocks.TotalComparisons())
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// resolveShards runs ResolveContext with E1 split into p shards.
func resolveShards(ctx context.Context, k1, k2 *kb.KB, cfg Config, p int) (*Output, error) {
	cfg.ShardCount = p
	return ResolveContext(ctx, k1, k2, cfg)
}

func shardCounts() []int {
	return []int{2, 7, runtime.GOMAXPROCS(0)}
}

// A sharded resolve must be sha256-identical to the single-shard one on the
// skewed determinism fixture for every shard count.
func TestResolveShardedIdenticalOnSkewedInput(t *testing.T) {
	k1, k2 := skewedKBs(300)
	ref, err := ResolveContext(context.Background(), k1, k2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Matches) == 0 {
		t.Fatal("skewed fixture produced no matches; test is vacuous")
	}
	want := digest(t, ref)
	for _, p := range shardCounts() {
		got, err := resolveShards(context.Background(), k1, k2, Config{}, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if digest(t, got) != want {
			t.Fatalf("P=%d: sharded output differs from one shard:\n--- one shard\n%s--- sharded\n%s",
				p, renderMatches(ref), renderMatches(got))
		}
	}
}

// The identity must also hold on all four Table-1 preset profiles (scaled
// down to keep the test fast) — the workloads with realistic token, name and
// relation structure.
func TestResolveShardedIdenticalOnPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("preset sweep is slow")
	}
	counts := []int{2, 7}
	for _, profile := range datagen.Presets() {
		d, err := datagen.Generate(datagen.Scale(profile, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ResolveContext(context.Background(), d.K1, d.K2, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Matches) == 0 {
			t.Fatalf("%s: no matches; test is vacuous", profile.Name)
		}
		want := digest(t, ref)
		for _, p := range counts {
			got, err := resolveShards(context.Background(), d.K1, d.K2, Config{}, p)
			if err != nil {
				t.Fatalf("%s P=%d: %v", profile.Name, p, err)
			}
			if digest(t, got) != want {
				t.Errorf("%s: sharded output differs at P=%d", profile.Name, p)
			}
		}
	}
}

// Sharding composes with the rule ablations: R4 relies on shard-local γ
// evidence, R3-off still builds γ rows for R4, and the No-Neighbors ablation
// still counts γ edges — each must match the single-shard run exactly.
func TestResolveShardedRuleAblations(t *testing.T) {
	k1, k2 := skewedKBs(120)
	cases := map[string]matching.Config{
		"all":          matching.DefaultConfig(),
		"noR3":         {Theta: 0.6, EnableR1: true, EnableR2: true, EnableR4: true, UseNeighbors: true},
		"noR4":         {Theta: 0.6, EnableR1: true, EnableR2: true, EnableR3: true, UseNeighbors: true},
		"noNeighbors":  {Theta: 0.6, EnableR1: true, EnableR2: true, EnableR3: true, EnableR4: true},
		"onlyR3andR4":  {Theta: 0.6, EnableR3: true, EnableR4: true, UseNeighbors: true},
		"nothingButR1": {Theta: 0.6, EnableR1: true},
	}
	for name, rules := range cases {
		rules := rules
		cfg := Config{Rules: &rules}
		ref, err := ResolveContext(context.Background(), k1, k2, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := digest(t, ref)
		for _, p := range []int{2, 5} {
			got, err := resolveShards(context.Background(), k1, k2, cfg, p)
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			if digest(t, got) != want {
				t.Errorf("%s: sharded output differs at P=%d", name, p)
			}
		}
	}
}

// The ShardCount knob must route ResolveContext through the shard loop and
// still produce the single-shard output.
func TestResolveContextShardRouting(t *testing.T) {
	k1, k2 := skewedKBs(150)
	ref, err := ResolveContext(context.Background(), k1, k2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := digest(t, ref)

	byCount, err := ResolveContext(context.Background(), k1, k2, Config{ShardCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, byCount) != want {
		t.Error("ShardCount=3 output differs from one shard")
	}
}

func TestEffectiveShards(t *testing.T) {
	base := func(c Config) Config {
		n, err := c.normalize()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := base(Config{}).effectiveShards(1000); got != 1 {
		t.Errorf("default shards = %d, want 1", got)
	}
	if got := base(Config{ShardCount: 8}).effectiveShards(1000); got != 8 {
		t.Errorf("explicit shards = %d, want 8", got)
	}
	if got := base(Config{ShardCount: 50}).effectiveShards(10); got != 10 {
		t.Errorf("shards clamp to |E1| = %d, want 10", got)
	}
	if _, err := (Config{ShardCount: -1}).normalize(); err == nil {
		t.Error("negative ShardCount must be rejected")
	}
}

func TestShardSpans(t *testing.T) {
	if spans := shardSpans(0, 4); spans != nil {
		t.Errorf("shardSpans(0, 4) = %v, want nil", spans)
	}
	spans := shardSpans(10, 3)
	if len(spans) != 3 {
		t.Fatalf("shardSpans(10, 3) = %v, want 3 spans", spans)
	}
	lo := 0
	total := 0
	for _, s := range spans {
		if s.Lo != lo || s.Hi <= s.Lo {
			t.Fatalf("spans not contiguous ascending: %v", spans)
		}
		lo = s.Hi
		total += s.Len()
	}
	if total != 10 || lo != 10 {
		t.Errorf("spans do not cover [0,10): %v", spans)
	}
	if spans := shardSpans(2, 8); len(spans) != 2 {
		t.Errorf("shardSpans(2, 8) = %v, want 2 non-empty spans", spans)
	}
}

func TestResolveShardedEmptyKBs(t *testing.T) {
	out, err := resolveShards(context.Background(),
		kb.NewBuilder("a").Build(), kb.NewBuilder("b").Build(), Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) != 0 || out.GraphEdges != 0 {
		t.Errorf("empty sharded run produced output: %+v", out)
	}
}

// A shard count far above |E1| degrades to one entity per shard and still
// reproduces the single-shard output (Figure 1 fixture).
func TestResolveShardedMoreShardsThanEntities(t *testing.T) {
	w, d := testkb.Figure1()
	ref, err := ResolveContext(context.Background(), w, d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resolveShards(context.Background(), w, d, Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, got) != digest(t, ref) {
		t.Error("per-entity sharding differs from one shard")
	}
}

// An expired deadline must abort a sharded resolve promptly.
func TestResolveShardedContextCancelled(t *testing.T) {
	k1, k2 := skewedKBs(200)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	start := time.Now()
	_, err := resolveShards(ctx, k1, k2, Config{}, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sharded past deadline = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}
