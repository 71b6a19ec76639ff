// Package graph implements MinoanER's disjunctive blocking graph (§3.2–3.3
// of the paper): a compact abstraction of all candidate matches where each
// edge between a pair of cross-KB entities carries three weights —
//
//	α: 1 if the pair shares a name no other entity uses (name block of size 1×1)
//	β: valueSim, accumulated from token-block sizes (Algorithm 1, line 14)
//	γ: neighborNSim, propagated from β-edges through top in-neighbors
//
// After weighting, each node keeps only its top-K edges by β and top-K by γ
// (Algorithm 1), turning the undirected graph into a directed one — the
// structure the matcher's reciprocity rule R4 relies on.
//
// Like the paper's implementation, the graph is never materialized as a
// global edge list: each node holds only the candidate lists needed to match
// it, which is also what makes the construction embarrassingly parallel.
package graph

import (
	"cmp"
	"context"
	"slices"
	"time"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
)

// Edge is a directed, weighted candidate edge to an entity of the other KB.
type Edge struct {
	To     kb.EntityID
	Weight float64
}

// Graph is the pruned, directed disjunctive blocking graph. Slices are
// indexed by EntityID; *1 fields describe edges out of E1 nodes (pointing to
// E2 entities) and *2 fields the reverse direction. The E1-side γ lists are
// never materialized: Build returns a Gamma1Scope that produces them one
// contiguous shard at a time.
type Graph struct {
	// Alpha1[i] lists the E2 entities sharing a globally unique name with
	// E1 entity i (α = 1 edges). Alpha2 is the reverse direction.
	Alpha1, Alpha2 [][]kb.EntityID
	// Beta1[i] holds up to K candidates sorted by decreasing valueSim.
	Beta1, Beta2 [][]Edge
	// Gamma2[j] holds up to K candidates of E2 node j sorted by decreasing
	// neighborNSim.
	Gamma2 [][]Edge
}

// Input bundles everything Algorithm 1 needs.
type Input struct {
	K1, K2 *kb.KB
	// NameBlocks is the name block collection of §3.1.
	NameBlocks *blocking.Collection
	// TokenIndex is the (purged) columnar token index the β stage walks.
	TokenIndex *blocking.TokenIndex
	// Top1/Top2 are the per-entity top-neighbor lists of each KB
	// (stats.TopNeighborsRanksCtx); Algorithm 1 derives the in-neighbor index
	// from them internally (procedure getTopInNeighbors).
	Top1, Top2 [][]kb.EntityID
	// K is the number of candidates kept per node per weight (paper default 15).
	K int
}

// Timings records the wall clock of the two weighting phases of Algorithm 1
// — the sub-stage split the benchmark-regression gate pins (graph_beta_ms /
// graph_gamma_ms, mirroring the statistics sub-stages).
type Timings struct {
	// Beta covers name evidence and both β directions. Gamma covers the
	// adjacency merges, the in-neighbor reversals and the E2-side γ rows;
	// the deferred E1 γ rows are added by the caller as Gamma1Scope.BuildSpan
	// produces them.
	Beta, Gamma time.Duration
}

// Build runs Algorithm 1: name evidence, value evidence and neighbor
// evidence, with top-K pruning per node. It materializes α, both β
// directions and the E2-side γ lists, computing the E1 β rows one
// contiguous shard at a time so the transient accumulation state of one
// shard is released before the next begins. The E1-side γ lists — the
// largest per-node structure — are left to the returned Gamma1Scope, from
// which callers pull γ rows shard by shard (BuildSpan) and drop them when
// the shard is matched.
//
// shards must partition [0, K1.Len()) into contiguous ascending spans. Rows
// are per-entity independent, so the α/β/γ values observed by the matcher
// are byte-identical for every shard plan; only their lifetime differs.
// Per-entity candidate accumulation is heavily skewed (entities in large
// token blocks touch far more candidates), so the β and γ passes run under
// the dynamic chunked scheduler. The first error — in practice only ctx
// cancellation — aborts construction.
func Build(ctx context.Context, e *parallel.Engine, in Input, shards []parallel.Span) (*Graph, *Gamma1Scope, Timings, error) {
	g := &Graph{
		Alpha1: make([][]kb.EntityID, in.K1.Len()),
		Alpha2: make([][]kb.EntityID, in.K2.Len()),
	}
	var tm Timings
	ce := e.Chunked()
	if err := ctx.Err(); err != nil {
		return nil, nil, tm, err
	}
	t0 := time.Now()
	g.buildAlpha(in)

	// β: the E2 direction in one pass (it is needed in full by both γ
	// directions and by R2/R4), the E1 direction shard by shard. Rows land
	// in the same positions a full-range pass would fill.
	beta2, err := buildBeta(ctx, ce, in.TokenIndex, in.K2, in.K1.Len(), false, in.K)
	if err != nil {
		return nil, nil, tm, err
	}
	g.Beta2 = beta2
	g.Beta1 = make([][]Edge, in.K1.Len())
	for _, s := range shards {
		rows, err := buildBetaSpan(ctx, ce, in.TokenIndex, in.K1, in.K2.Len(), true, in.K, s)
		if err != nil {
			return nil, nil, tm, err
		}
		copy(g.Beta1[s.Lo:s.Hi], rows)
	}
	tm.Beta = time.Since(t0)

	// γ, E2 side first: its merged adjacency and reverse top-neighbor index
	// die before the E1-side ones are allocated. The two sides run in
	// sequence, not concurrently, because overlapping them keeps both
	// allocation streams live at once and raises the peak heap of a batch
	// resolve; the row passes inside each side are parallel.
	//
	// Gather formulation of Algorithm 1, lines 20–27: γ(a, b) = Σ β(na, y)
	// over a's top neighbors na and their retained β-edges (na, y) with y a
	// top neighbor of b, i.e. b ∈ in2[y] (getTopInNeighbors, lines 44–47).
	t0 = time.Now()
	adj2 := MergeAdjacency(g.Beta2, g.Beta1, in.K2.Len())
	in1 := stats.TopInNeighbors(in.Top1)
	g.Gamma2, err = gammaRows(ctx, ce, parallel.Span{Lo: 0, Hi: in.K2.Len()}, in.Top2, adj2, in1, in.K)
	if err != nil {
		return nil, nil, tm, err
	}
	scope := &Gamma1Scope{
		eng:  ce,
		top1: in.Top1,
		adj1: MergeAdjacency(g.Beta1, g.Beta2, in.K1.Len()),
		in2:  stats.TopInNeighbors(in.Top2),
		k:    in.K,
	}
	tm.Gamma = time.Since(t0)
	return g, scope, tm, nil
}

// Gamma1Scope holds the shared inputs of E1-side γ construction — the merged
// undirected β adjacency and the reverse top-neighbor index of E2 — so γ
// rows can be produced shard at a time long after Build returned (the
// matcher interleaves them with rule R3). The scope is read-only after
// construction and safe for sequential reuse across shards.
type Gamma1Scope struct {
	eng  *parallel.Engine
	top1 [][]kb.EntityID
	adj1 [][]Edge
	in2  [][]kb.EntityID
	k    int
}

// BuildSpan computes the γ rows of one contiguous E1 shard: s.Len() rows,
// row i holding the pruned neighborNSim candidates of entity s.Lo+i sorted
// by decreasing weight.
func (sc *Gamma1Scope) BuildSpan(ctx context.Context, s parallel.Span) ([][]Edge, error) {
	return gammaRows(ctx, sc.eng, s, sc.top1, sc.adj1, sc.in2, sc.k)
}

// buildAlpha scans the name blocks for 1×1 blocks: a name used by exactly
// one entity of each KB (Algorithm 1, lines 5–9). Pairs are gathered first
// and deduplicated with one sort+compact per node, so an entity carrying
// many unique names costs O(d log d) instead of the quadratic append-scan of
// the earlier appendUnique idiom.
func (g *Graph) buildAlpha(in Input) {
	for i := range in.NameBlocks.Blocks {
		b := &in.NameBlocks.Blocks[i]
		if len(b.E1) == 1 && len(b.E2) == 1 {
			e1, e2 := b.E1[0], b.E2[0]
			g.Alpha1[e1] = append(g.Alpha1[e1], e2)
			g.Alpha2[e2] = append(g.Alpha2[e2], e1)
		}
	}
	for i := range g.Alpha1 {
		slices.Sort(g.Alpha1[i])
		g.Alpha1[i] = slices.Compact(g.Alpha1[i])
	}
	for i := range g.Alpha2 {
		slices.Sort(g.Alpha2[i])
		g.Alpha2[i] = slices.Compact(g.Alpha2[i])
	}
}

// buildBeta computes, for every entity of one side, its top-K candidates by
// valueSim (Algorithm 1, lines 10–19). The per-token contribution is
// 1/log2(|b1|·|b2|+1): since token-block side sizes equal the per-KB entity
// frequencies, summing over shared blocks yields exactly Def. 2.1. The walk
// is purely columnar — token IDs into CSR member arrays with weights
// precomputed once per index, scattered into a per-worker scoreboard over
// the other KB's entity IDs (otherLen) — with no string hashing and no map
// insertion per (entity, token).
func buildBeta(ctx context.Context, e *parallel.Engine, ix *blocking.TokenIndex, from *kb.KB, otherLen int, fromIsE1 bool, k int) ([][]Edge, error) {
	return buildBetaSpan(ctx, e, ix, from, otherLen, fromIsE1, k, parallel.Span{Lo: 0, Hi: from.Len()})
}

// BetaRowsCtx computes one side's full β candidate rows — the value-evidence
// phase in isolation, exported for the stage benchmarks that guard it.
// otherLen is the entity count of the OTHER KB (the candidate ID space);
// Build composes this with the α and γ phases.
func BetaRowsCtx(ctx context.Context, e *parallel.Engine, ix *blocking.TokenIndex, from *kb.KB, otherLen int, fromIsE1 bool, k int) ([][]Edge, error) {
	return buildBeta(ctx, e, ix, from, otherLen, fromIsE1, k)
}

// buildBetaSpan computes the β rows of one contiguous entity span, returning
// s.Len() rows (row i describes entity s.Lo+i). Rows are per-entity
// independent, so concatenating span results in span order is identical to
// one full-range pass — the invariant sharded construction relies on.
//
// Accumulation order per candidate is the token-walk order, identical to the
// historical map accumulation, so per-candidate float sums — and with them
// every retained weight — are bit-identical to buildBetaSpanMap.
func buildBetaSpan(ctx context.Context, e *parallel.Engine, ix *blocking.TokenIndex, from *kb.KB, otherLen int, fromIsE1 bool, k int, s parallel.Span) ([][]Edge, error) {
	return parallel.MapLocalCtx(ctx, e, s.Len(),
		func() *boardScratch { return newBoardScratch(otherLen, k) },
		func(sc *boardScratch, i int) ([]Edge, error) {
			d := from.Entity(kb.EntityID(s.Lo + i))
			board := sc.board
			ix.ForEachShared(d, fromIsE1, func(w float64, others []kb.EntityID) {
				for _, o := range others {
					board.Add(o, w)
				}
			})
			return sc.row(k), nil
		})
}

// buildBetaSpanMap is the retained map-based reference implementation of
// buildBetaSpan — a freshly allocated accumulator per entity, full sort in
// topK. The property tests pin the scoreboard path to it row for row, and
// the graph benchmarks keep the before/after comparison honest.
func buildBetaSpanMap(ctx context.Context, e *parallel.Engine, ix *blocking.TokenIndex, from *kb.KB, fromIsE1 bool, k int, s parallel.Span) ([][]Edge, error) {
	return parallel.MapCtx(ctx, e, s.Len(), func(i int) ([]Edge, error) {
		d := from.Entity(kb.EntityID(s.Lo + i))
		var acc map[kb.EntityID]float64
		ix.ForEachShared(d, fromIsE1, func(w float64, others []kb.EntityID) {
			if acc == nil {
				acc = make(map[kb.EntityID]float64, len(others))
			}
			for _, o := range others {
				acc[o] += w
			}
		})
		return topK(acc, k), nil
	})
}

// topK selects the k highest-weighted candidates, breaking ties by entity ID
// for determinism, and returns them sorted by decreasing weight. Zero
// weights are dropped (pruning of trivial edges, §3.3). Retained as the
// map-based reference side of the topKBoard property tests.
func topK(acc map[kb.EntityID]float64, k int) []Edge {
	if len(acc) == 0 || k <= 0 {
		return nil
	}
	edges := make([]Edge, 0, len(acc))
	for to, w := range acc {
		if w > 0 {
			edges = append(edges, Edge{to, w})
		}
	}
	slices.SortFunc(edges, edgeCmp)
	if len(edges) > k {
		edges = edges[:k]
	}
	return edges
}

// gammaRows computes the γ candidate rows of one side for a contiguous node
// span: row i holds the pruned neighbor-similarity candidates of node s.Lo+i.
// top is the side's own top-neighbor lists, adj its merged undirected β
// adjacency, and inOther the reverse top-neighbor index of the OTHER side —
// whose length is also the candidate ID space the per-worker scoreboard
// covers. Rows are per-node independent, so span concatenation in order
// reproduces the full-range pass exactly; per-candidate sums follow the same
// neighbor-walk order as the retained map reference (gammaRowsMap), keeping
// the weights bit-identical.
func gammaRows(ctx context.Context, e *parallel.Engine, s parallel.Span, top [][]kb.EntityID, adj [][]Edge, inOther [][]kb.EntityID, k int) ([][]Edge, error) {
	return parallel.MapLocalCtx(ctx, e, s.Len(),
		func() *boardScratch { return newBoardScratch(len(inOther), k) },
		func(sc *boardScratch, i int) ([]Edge, error) {
			board := sc.board
			for _, na := range top[s.Lo+i] {
				for _, edge := range adj[na] {
					for _, b := range inOther[edge.To] {
						board.Add(b, edge.Weight)
					}
				}
			}
			return sc.row(k), nil
		})
}

// GammaRowsCtx computes one side's full γ candidate rows from its
// top-neighbor lists, its merged undirected β adjacency (MergeAdjacency) and
// the reverse top-neighbor index of the other side (stats.TopInNeighbors) —
// the neighbor-evidence phase in isolation, exported for the stage
// benchmarks that guard it.
func GammaRowsCtx(ctx context.Context, e *parallel.Engine, top [][]kb.EntityID, adj [][]Edge, inOther [][]kb.EntityID, k int) ([][]Edge, error) {
	return gammaRows(ctx, e, parallel.Span{Lo: 0, Hi: len(top)}, top, adj, inOther, k)
}

// gammaRowsMap is the retained map-based reference implementation of
// gammaRows, the pin of the scoreboard property tests and the "before" side
// of the γ benchmarks.
func gammaRowsMap(ctx context.Context, e *parallel.Engine, s parallel.Span, top [][]kb.EntityID, adj [][]Edge, inOther [][]kb.EntityID, k int) ([][]Edge, error) {
	return parallel.MapCtx(ctx, e, s.Len(), func(i int) ([]Edge, error) {
		var acc map[kb.EntityID]float64
		for _, na := range top[s.Lo+i] {
			for _, edge := range adj[na] {
				ins := inOther[edge.To]
				if len(ins) == 0 {
					continue
				}
				if acc == nil {
					acc = make(map[kb.EntityID]float64)
				}
				for _, b := range ins {
					acc[b] += edge.Weight
				}
			}
		}
		return topK(acc, k), nil
	})
}

// MergeAdjacency merges the directed retained β-edges of both directions
// into an undirected adjacency for one side: out[x] holds each neighbor y at
// most once with its β weight, sorted by entity ID. When both directions
// retained the edge (x, y) their β weights coincide (valueSim is symmetric),
// but the dedup is still made deterministic by sorting ties on descending
// weight before compacting — the kept edge never depends on input order.
func MergeAdjacency(own [][]Edge, reverse [][]Edge, n int) [][]Edge {
	out := make([][]Edge, n)
	for x := range own {
		out[x] = append(out[x], own[x]...)
	}
	for y := range reverse {
		for _, edge := range reverse[y] {
			out[edge.To] = append(out[edge.To], Edge{kb.EntityID(y), edge.Weight})
		}
	}
	for x := range out {
		if len(out[x]) < 2 {
			continue
		}
		slices.SortFunc(out[x], func(a, b Edge) int {
			if a.To != b.To {
				return cmp.Compare(a.To, b.To)
			}
			return cmp.Compare(b.Weight, a.Weight)
		})
		dst := out[x][:1]
		for _, edge := range out[x][1:] {
			if edge.To != dst[len(dst)-1].To {
				dst = append(dst, edge)
			}
		}
		out[x] = dst
	}
	return out
}

// BetaWeight returns the retained valueSim from an E1 node to an E2 node
// (0 if the directed edge was pruned).
func (g *Graph) BetaWeight(e1, e2 kb.EntityID) float64 {
	for _, edge := range g.Beta1[e1] {
		if edge.To == e2 {
			return edge.Weight
		}
	}
	return 0
}

// HasDirectedEdge1 reports whether the directed edge from E1 node e1 to E2
// node e2 survived pruning under any evidence (α, β or γ) — the G.E
// membership test of the reciprocity rule R4. The E1-side γ lists live
// outside the Graph, so the caller passes e1's γ row (Gamma1Scope.BuildSpan).
func (g *Graph) HasDirectedEdge1(e1, e2 kb.EntityID, gamma1 []Edge) bool {
	return containsID(g.Alpha1[e1], e2) || containsEdge(g.Beta1[e1], e2) || containsEdge(gamma1, e2)
}

// HasDirectedEdge2 is HasDirectedEdge1 for the E2 → E1 direction, whose γ
// lists the Graph holds.
func (g *Graph) HasDirectedEdge2(e2, e1 kb.EntityID) bool {
	return containsID(g.Alpha2[e2], e1) || containsEdge(g.Beta2[e2], e1) || containsEdge(g.Gamma2[e2], e1)
}

func containsID(xs []kb.EntityID, x kb.EntityID) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func containsEdge(es []Edge, to kb.EntityID) bool {
	for _, e := range es {
		if e.To == to {
			return true
		}
	}
	return false
}

// Edges returns the number of directed edges the graph holds: α, β and the
// E2-side γ lists. The E1-side γ rows live in the Gamma1Scope, so callers
// that want the full |E| add their lengths as they produce them.
func (g *Graph) Edges() int {
	total := 0
	for _, xs := range g.Alpha1 {
		total += len(xs)
	}
	for _, xs := range g.Alpha2 {
		total += len(xs)
	}
	for _, es := range g.Beta1 {
		total += len(es)
	}
	for _, es := range g.Beta2 {
		total += len(es)
	}
	for _, es := range g.Gamma2 {
		total += len(es)
	}
	return total
}
