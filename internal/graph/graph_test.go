package graph

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
	"minoaner/internal/testkb"
)

var seq = parallel.Sequential()

// inputFor runs InputForCtx under a background context, failing the test on
// an error.
func inputFor(t testing.TB, e *parallel.Engine, k1, k2 *kb.KB, nameK, topK, relN int) Input {
	t.Helper()
	in, err := InputForCtx(context.Background(), e, k1, k2, nameK, topK, relN)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// build runs Build over one shard spanning E1 and returns the graph together
// with the E1-side γ rows the scope produces for that span.
func build(t testing.TB, e *parallel.Engine, in Input) (*Graph, [][]Edge) {
	t.Helper()
	return buildShards(t, e, in, parallel.New(1).Partitions(in.K1.Len()))
}

// buildShards is build over an explicit shard plan; the γ rows of the shards
// are concatenated in span order.
func buildShards(t testing.TB, e *parallel.Engine, in Input, shards []parallel.Span) (*Graph, [][]Edge) {
	t.Helper()
	ctx := context.Background()
	g, scope, _, err := Build(ctx, e, in, shards)
	if err != nil {
		t.Fatal(err)
	}
	gamma1 := make([][]Edge, 0, in.K1.Len())
	for _, s := range shards {
		rows, err := scope.BuildSpan(ctx, s)
		if err != nil {
			t.Fatalf("span %v: %v", s, err)
		}
		gamma1 = append(gamma1, rows...)
	}
	return g, gamma1
}

// allEdges counts the directed edges of a graph plus its E1-side γ rows.
func allEdges(g *Graph, gamma1 [][]Edge) int {
	n := g.Edges()
	for _, es := range gamma1 {
		n += len(es)
	}
	return n
}

// buildFigure1Graph assembles the full Algorithm 1 input for the paper's
// Figure 1 fixture with parameters (k=2 names, K, N=2) and builds it.
func buildFigure1Graph(t *testing.T, e *parallel.Engine, k int) (*kb.KB, *kb.KB, *Graph, [][]Edge) {
	t.Helper()
	w, d := testkb.Figure1()
	g, gamma1 := build(t, e, inputFor(t, e, w, d, 2, k, 2))
	return w, d, g, gamma1
}

func TestAlphaEdgesFromUniqueNames(t *testing.T) {
	w, d, g, _ := buildFigure1Graph(t, seq, 5)
	chef1 := w.Lookup("w:JohnLakeA")
	chef2 := d.Lookup("d:JonnyLake")
	// Example 3.4: the chefs share the unique name "J. Lake" → α = 1.
	if !containsID(g.Alpha1[chef1], chef2) {
		t.Errorf("Alpha1[chef1] = %v, want to contain chef2=%d", g.Alpha1[chef1], chef2)
	}
	if !containsID(g.Alpha2[chef2], chef1) {
		t.Errorf("Alpha2[chef2] = %v, want to contain chef1=%d", g.Alpha2[chef2], chef1)
	}
}

func TestBetaMatchesDirectValueSim(t *testing.T) {
	// With K large enough that nothing is pruned, the retained β weight of
	// every pair must equal the reference Def. 2.1 computation.
	w, d, g, _ := buildFigure1Graph(t, seq, 100)
	ef1, err := stats.BuildEFCtx(context.Background(), seq, w)
	if err != nil {
		t.Fatal(err)
	}
	ef2, err := stats.BuildEFCtx(context.Background(), seq, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Len(); i++ {
		for j := 0; j < d.Len(); j++ {
			want := stats.ValueSim(w.Entity(kb.EntityID(i)), d.Entity(kb.EntityID(j)), ef1, ef2)
			got := g.BetaWeight(kb.EntityID(i), kb.EntityID(j))
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("β(%d,%d) = %v, want valueSim %v", i, j, got, want)
			}
		}
	}
}

func TestBetaSortedAndBounded(t *testing.T) {
	_, _, g, _ := buildFigure1Graph(t, seq, 2)
	for i, es := range g.Beta1 {
		if len(es) > 2 {
			t.Fatalf("Beta1[%d] has %d edges, K=2", i, len(es))
		}
		for x := 1; x < len(es); x++ {
			if es[x].Weight > es[x-1].Weight {
				t.Fatalf("Beta1[%d] not sorted desc", i)
			}
		}
		for _, edge := range es {
			if edge.Weight <= 0 {
				t.Fatalf("Beta1[%d] kept trivial edge", i)
			}
		}
	}
}

func TestGammaPropagation(t *testing.T) {
	w, d, g, gamma1 := buildFigure1Graph(t, seq, 5)
	r1 := w.Lookup("w:Restaurant1")
	r2 := d.Lookup("d:Restaurant2")
	// Example 3.4: Restaurant1–Restaurant2 get a non-zero γ because their
	// top neighbors (chefs; Bray/Berkshire) have non-zero β edges.
	var gammaR1R2 float64
	for _, edge := range gamma1[r1] {
		if edge.To == r2 {
			gammaR1R2 = edge.Weight
		}
	}
	if gammaR1R2 <= 0 {
		t.Fatalf("γ(Restaurant1, Restaurant2) = %v, want > 0 (γ row: %v)", gammaR1R2, gamma1[r1])
	}
	// γ must equal the sum of β over top-neighbor pairs (Def. 2.5 via
	// retained edges).
	var want float64
	in := inputFor(t, seq, w, d, 2, 5, 2)
	adj := map[[2]kb.EntityID]float64{}
	for x, es := range g.Beta1 {
		for _, e := range es {
			adj[[2]kb.EntityID{kb.EntityID(x), e.To}] = e.Weight
		}
	}
	for y, es := range g.Beta2 {
		for _, e := range es {
			adj[[2]kb.EntityID{e.To, kb.EntityID(y)}] = e.Weight
		}
	}
	for _, na := range in.Top1[r1] {
		for _, nb := range in.Top2[r2] {
			want += adj[[2]kb.EntityID{na, nb}]
		}
	}
	if math.Abs(gammaR1R2-want) > 1e-9 {
		t.Errorf("γ(R1,R2) = %v, want %v", gammaR1R2, want)
	}
}

func TestGammaSymmetryOfPairWeight(t *testing.T) {
	// γ is a pair weight: if (a→b) and (b→a) both survive pruning, their
	// weights must be equal.
	_, _, g, gamma1 := buildFigure1Graph(t, seq, 100)
	for a, es := range gamma1 {
		for _, e := range es {
			for _, back := range g.Gamma2[e.To] {
				if int(back.To) == a && math.Abs(back.Weight-e.Weight) > 1e-9 {
					t.Fatalf("γ asymmetric: %v vs %v", e.Weight, back.Weight)
				}
			}
		}
	}
}

func TestHasDirectedEdge(t *testing.T) {
	w, d, g, gamma1 := buildFigure1Graph(t, seq, 5)
	chef1 := w.Lookup("w:JohnLakeA")
	chef2 := d.Lookup("d:JonnyLake")
	if !g.HasDirectedEdge1(chef1, chef2, gamma1[chef1]) || !g.HasDirectedEdge2(chef2, chef1) {
		t.Error("chef pair must be reciprocally connected")
	}
	uk := w.Lookup("w:UK")
	// UK shares tokens with England ("england"? no: UK's tokens are
	// "united kingdom"); it should have no edge to the chef.
	if g.HasDirectedEdge1(uk, chef2, gamma1[uk]) {
		t.Error("UK → chef edge should not exist")
	}
}

func TestGraphParallelDeterminism(t *testing.T) {
	_, _, ref, refGamma1 := buildFigure1Graph(t, seq, 3)
	for _, workers := range []int{2, 4, 8} {
		_, _, got, gamma1 := buildFigure1Graph(t, parallel.New(workers), 3)
		if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(gamma1, refGamma1) {
			t.Fatalf("graph differs with %d workers", workers)
		}
	}
}

func TestEdgesBound(t *testing.T) {
	w, d, g, gamma1 := buildFigure1Graph(t, seq, 3)
	// |E| ≤ 2·(2K + maxNames)·(|E1|+|E2|) — generous upper bound; the point
	// is linear scaling in input size (§4 complexity claim).
	bound := 2 * (2*3 + 2) * (w.Len() + d.Len())
	if n := allEdges(g, gamma1); n > bound {
		t.Errorf("|E| = %d, exceeds linear bound %d", n, bound)
	}
}

func TestTopK(t *testing.T) {
	acc := map[kb.EntityID]float64{1: 0.5, 2: 2.0, 3: 1.0, 4: 0, 5: -1}
	got := topK(acc, 2)
	want := []Edge{{2, 2.0}, {3, 1.0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("topK = %v, want %v", got, want)
	}
	if topK(nil, 3) != nil {
		t.Error("topK(nil) should be nil")
	}
	if topK(acc, 0) != nil {
		t.Error("topK(_, 0) should be nil")
	}
	// Ties broken by ID.
	tie := map[kb.EntityID]float64{9: 1, 3: 1, 7: 1}
	gotTie := topK(tie, 2)
	if gotTie[0].To != 3 || gotTie[1].To != 7 {
		t.Errorf("tie-break = %v, want IDs 3,7", gotTie)
	}
}

func TestTopKProperty(t *testing.T) {
	f := func(weights []float64, k uint8) bool {
		acc := map[kb.EntityID]float64{}
		for i, w := range weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				continue
			}
			acc[kb.EntityID(i)] = math.Abs(w)
		}
		kk := int(k%10) + 1
		es := topK(acc, kk)
		if len(es) > kk {
			return false
		}
		for i := 1; i < len(es); i++ {
			if es[i].Weight > es[i-1].Weight {
				return false
			}
		}
		// Every returned weight must be >= every excluded positive weight.
		if len(es) == kk {
			minKept := es[len(es)-1].Weight
			excluded := 0
			for _, w := range acc {
				if w > minKept {
					excluded++
				}
			}
			if excluded > kk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMergeAdjacency(t *testing.T) {
	beta1 := [][]Edge{{{To: 0, Weight: 1.0}, {To: 1, Weight: 0.5}}}
	beta2 := [][]Edge{{{To: 0, Weight: 1.0}}, {}} // E2 node 0 retains edge to E1 node 0
	adj := MergeAdjacency(beta1, beta2, 1)
	if len(adj[0]) != 2 {
		t.Fatalf("adj[0] = %v, want deduped 2 edges", adj[0])
	}
	if adj[0][0].To != 0 || adj[0][1].To != 1 {
		t.Errorf("adj[0] = %v, want sorted by ID", adj[0])
	}
}

// Duplicate edges (same To) must dedup deterministically — the higher weight
// wins no matter which direction contributed it first. (In the pipeline both
// weights coincide because valueSim is symmetric; the tie rule makes the
// merge order-insensitive by construction, not by accident.)
func TestMergeAdjacencyTieBreaking(t *testing.T) {
	ownFirst := MergeAdjacency(
		[][]Edge{{{To: 3, Weight: 0.25}}},
		[][]Edge{nil, nil, nil, {{To: 0, Weight: 0.75}}},
		1)
	reverseFirst := MergeAdjacency(
		[][]Edge{{{To: 3, Weight: 0.75}}},
		[][]Edge{nil, nil, nil, {{To: 0, Weight: 0.25}}},
		1)
	for name, adj := range map[string][][]Edge{"own-low": ownFirst, "own-high": reverseFirst} {
		if len(adj[0]) != 1 {
			t.Fatalf("%s: adj[0] = %v, want 1 deduped edge", name, adj[0])
		}
		if adj[0][0] != (Edge{To: 3, Weight: 0.75}) {
			t.Errorf("%s: kept %v, want the max-weight duplicate {3 0.75}", name, adj[0][0])
		}
	}
	// Multiple duplicates interleaved with distinct neighbors.
	adj := MergeAdjacency(
		[][]Edge{{{To: 1, Weight: 0.5}, {To: 2, Weight: 0.9}}},
		[][]Edge{nil, {{To: 0, Weight: 0.5}}, {{To: 0, Weight: 0.9}}, {{To: 0, Weight: 0.1}}},
		1)
	want := []Edge{{To: 1, Weight: 0.5}, {To: 2, Weight: 0.9}, {To: 3, Weight: 0.1}}
	if !reflect.DeepEqual(adj[0], want) {
		t.Errorf("adj[0] = %v, want %v", adj[0], want)
	}
}

// topK must order equal weights by ascending entity ID at every position,
// including across the truncation boundary.
func TestTopKTieBreaking(t *testing.T) {
	acc := map[kb.EntityID]float64{8: 0.5, 2: 0.5, 5: 0.5, 1: 0.25}
	got := topK(acc, 3)
	want := []Edge{{2, 0.5}, {5, 0.5}, {8, 0.5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("topK ties = %v, want %v (ID 1 with lower weight truncated)", got, want)
	}
}

// uniqueNameBlocks builds a pathological name-block collection: one E1
// entity shares nBlocks distinct unique names with the same E2 entity, so
// its alpha list is appended nBlocks times — the workload that was quadratic
// under the appendUnique idiom.
func uniqueNameBlocks(nBlocks int) *blocking.Collection {
	c := &blocking.Collection{Blocks: make([]blocking.Block, nBlocks)}
	for i := range c.Blocks {
		c.Blocks[i] = blocking.Block{
			Key: fmt.Sprintf("name-%06d", i),
			E1:  []kb.EntityID{0},
			E2:  []kb.EntityID{kb.EntityID(i % 4)},
		}
	}
	return c
}

func TestBuildAlphaDeduplicates(t *testing.T) {
	g := &Graph{Alpha1: make([][]kb.EntityID, 1), Alpha2: make([][]kb.EntityID, 4)}
	g.buildAlpha(Input{NameBlocks: uniqueNameBlocks(100)})
	if want := []kb.EntityID{0, 1, 2, 3}; !reflect.DeepEqual(g.Alpha1[0], want) {
		t.Errorf("Alpha1[0] = %v, want sorted deduped %v", g.Alpha1[0], want)
	}
	for j := range g.Alpha2 {
		if !reflect.DeepEqual(g.Alpha2[j], []kb.EntityID{0}) {
			t.Errorf("Alpha2[%d] = %v, want [0]", j, g.Alpha2[j])
		}
	}
}

// Benchmark guard for the sort+compact alpha construction: with appendUnique
// this was O(nBlocks²) per hot entity (≈10⁸ comparisons at 10k blocks);
// sorted+compact keeps it O(n log n). A regression shows up as a
// catastrophic ns/op jump.
func BenchmarkBuildAlphaSkewedNames(b *testing.B) {
	in := Input{NameBlocks: uniqueNameBlocks(10000)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := &Graph{Alpha1: make([][]kb.EntityID, 1), Alpha2: make([][]kb.EntityID, 4)}
		g.buildAlpha(in)
	}
}

// The shard plan is invisible in Build's output: α, β and γ2 in the
// returned graph, and the scope's per-shard γ1 rows concatenated in span
// order, must equal the single-shard build for every plan.
func TestBuildShardedMatchesMonolithic(t *testing.T) {
	w, d := testkb.Figure1()
	in := inputFor(t, seq, w, d, 2, 5, 2)
	want, wantGamma1 := build(t, seq, in)
	for _, p := range []int{2, 3, 16} {
		g, gamma1 := buildShards(t, seq, in, parallel.New(p).Partitions(w.Len()))
		if !reflect.DeepEqual(g.Alpha1, want.Alpha1) || !reflect.DeepEqual(g.Alpha2, want.Alpha2) {
			t.Errorf("p=%d: alpha differs", p)
		}
		if !reflect.DeepEqual(g.Beta1, want.Beta1) || !reflect.DeepEqual(g.Beta2, want.Beta2) {
			t.Errorf("p=%d: beta differs", p)
		}
		if !reflect.DeepEqual(g.Gamma2, want.Gamma2) {
			t.Errorf("p=%d: gamma2 differs", p)
		}
		if !reflect.DeepEqual(gamma1, wantGamma1) {
			t.Errorf("p=%d: concatenated gamma1 rows differ", p)
		}
	}
}

func TestEmptyKBsGraph(t *testing.T) {
	k1 := kb.NewBuilder("A").Build()
	k2 := kb.NewBuilder("B").Build()
	g, gamma1 := build(t, seq, inputFor(t, seq, k1, k2, 2, 5, 2))
	if n := allEdges(g, gamma1); n != 0 {
		t.Errorf("empty KBs produced %d edges", n)
	}
}

func TestNoSharedTokens(t *testing.T) {
	b1 := kb.NewBuilder("A")
	x := b1.AddEntity("x")
	b1.AddLiteral(x, "label", "alpha beta")
	k1 := b1.Build()
	b2 := kb.NewBuilder("B")
	y := b2.AddEntity("y")
	b2.AddLiteral(y, "label", "gamma delta")
	k2 := b2.Build()
	g, gamma1 := build(t, seq, inputFor(t, seq, k1, k2, 1, 5, 2))
	if n := allEdges(g, gamma1); n != 0 {
		t.Errorf("disjoint KBs produced %d edges", n)
	}
}
