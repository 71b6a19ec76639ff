package baselines

import (
	"container/heap"
	"context"

	"minoaner/internal/blocking"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/similarity"
	"minoaner/internal/stats"
)

// SiGMaConfig controls the greedy collective matcher.
type SiGMaConfig struct {
	// Alpha weighs the value similarity against the neighbor agreement
	// (SiGMa's default emphasis on values; default 0.8).
	Alpha float64
	// Threshold stops the greedy expansion when the best pair's score
	// drops below it (default 0.2).
	Threshold float64
	// NameK is the number of discovered name attributes used for seeding
	// (SiGMa was given entity names; we grant it MinoanER's discovery).
	NameK int
	// RelationCompat decides whether two predicates count as aligned for
	// neighbor propagation. SiGMa uses manually pre-aligned relations —
	// modeled as exact predicate-name equality; the LINDA-style variant
	// uses edit-distance similarity of predicate names.
	RelationCompat func(r1, r2 string) bool
	// MaxSteps caps the greedy loop (safety; default 10 × |E1|+|E2|).
	MaxSteps int
}

// DefaultSiGMaConfig returns SiGMa's defaults with exact relation alignment.
func DefaultSiGMaConfig() SiGMaConfig {
	return SiGMaConfig{
		Alpha:          0.8,
		Threshold:      0.2,
		NameK:          2,
		RelationCompat: func(r1, r2 string) bool { return r1 == r2 },
	}
}

// LINDAStyleConfig returns the LINDA-flavored variant (§5): fully automatic,
// with relation compatibility decided by small edit distance between
// predicate names instead of a manual alignment — a requirement that
// "rarely holds in the extreme schema heterogeneity of Web data", which is
// why its recall suffers outside simple benchmarks.
func LINDAStyleConfig() SiGMaConfig {
	cfg := DefaultSiGMaConfig()
	cfg.Threshold = 0.35
	cfg.RelationCompat = func(r1, r2 string) bool { return editDistanceAtMost(r1, r2, 1) }
	return cfg
}

// pqItem is a heap entry: a candidate pair with its score at push time.
type pqItem struct {
	pair  eval.Pair
	score float64
}

type pairHeap []pqItem

func (h pairHeap) Len() int { return len(h) }
func (h pairHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	if h[i].pair.E1 != h[j].pair.E1 {
		return h[i].pair.E1 < h[j].pair.E1
	}
	return h[i].pair.E2 < h[j].pair.E2
}
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// SiGMa reimplements the greedy collective matcher of Lacoste-Julien et al.
// [21] as characterized in §5: seed matches from identical entity names,
// then greedy propagation over compatible relations with a priority queue,
// scoring candidates by a weighted combination of TF-IDF value similarity
// and the fraction of already-matched neighbors. Matching is data-driven
// and iterative — each new match re-scores its neighborhood — in contrast
// to MinoanER's fixed four-rule pass.
func SiGMa(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB, tokenBlocks *blocking.Collection, cfg SiGMaConfig) ([]eval.Pair, error) {
	if cfg.RelationCompat == nil {
		def := DefaultSiGMaConfig()
		if cfg.Alpha == 0 {
			cfg.Alpha = def.Alpha
		}
		if cfg.Threshold == 0 {
			cfg.Threshold = def.Threshold
		}
		if cfg.NameK == 0 {
			cfg.NameK = def.NameK
		}
		cfg.RelationCompat = def.RelationCompat
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 10 * (k1.Len() + k2.Len())
	}
	corpus, err := similarity.BuildPairCorpus(ctx, e, k1, k2, 1, similarity.TFIDF)
	if err != nil {
		return nil, err
	}
	valueSim := func(p eval.Pair) float64 {
		return similarity.Similarity(similarity.SiGMaSim, &corpus.V1[p.E1], &corpus.V2[p.E2])
	}

	matched1 := make(map[kb.EntityID]kb.EntityID)
	matched2 := make(map[kb.EntityID]kb.EntityID)

	// neighborAgreement is the fraction of x's and y's relation edges that
	// lead to already-matched counterpart objects via compatible predicates.
	neighborAgreement := func(p eval.Pair) float64 {
		d1, d2 := k1.Entity(p.E1), k2.Entity(p.E2)
		if len(d1.Relations) == 0 || len(d2.Relations) == 0 {
			return 0
		}
		agree := 0
		for _, r1 := range d1.Relations {
			y, ok := matched1[r1.Object]
			if !ok {
				continue
			}
			for _, r2 := range d2.Relations {
				if r2.Object == y && cfg.RelationCompat(r1.Predicate, r2.Predicate) {
					agree++
					break
				}
			}
		}
		max := len(d1.Relations)
		if len(d2.Relations) > max {
			max = len(d2.Relations)
		}
		return float64(agree) / float64(max)
	}
	score := func(p eval.Pair) float64 {
		return cfg.Alpha*valueSim(p) + (1-cfg.Alpha)*neighborAgreement(p)
	}

	h := &pairHeap{}
	// Seeds: globally unique identical names (score 1, matched first).
	seeds, err := nameSeeds(ctx, e, k1, k2, cfg.NameK)
	if err != nil {
		return nil, err
	}
	for _, p := range seeds {
		heap.Push(h, pqItem{p, 1.0})
	}
	// Blocking: pairs sharing at least two common tokens ([21] as cited in
	// §5 "Blocking"), pushed with their value score.
	for _, p := range pairsWithMinSharedBlocks(tokenBlocks, 2) {
		if s := valueSim(p); s >= cfg.Threshold {
			heap.Push(h, pqItem{p, s})
		}
	}

	var out []eval.Pair
	steps := 0
	for h.Len() > 0 && steps < cfg.MaxSteps {
		steps++
		item := heap.Pop(h).(pqItem)
		if _, ok := matched1[item.pair.E1]; ok {
			continue
		}
		if _, ok := matched2[item.pair.E2]; ok {
			continue
		}
		// Lazy re-evaluation: neighbor agreement only grows, so the stored
		// score is a lower bound; recompute and re-queue if now beaten.
		fresh := score(item.pair)
		if h.Len() > 0 && fresh < (*h)[0].score && item.score != 1.0 {
			heap.Push(h, pqItem{item.pair, fresh})
			continue
		}
		if fresh < cfg.Threshold && item.score != 1.0 {
			continue
		}
		matched1[item.pair.E1] = item.pair.E2
		matched2[item.pair.E2] = item.pair.E1
		out = append(out, item.pair)
		// Propagate: neighbor pairs over compatible relations become
		// candidates with refreshed scores.
		d1, d2 := k1.Entity(item.pair.E1), k2.Entity(item.pair.E2)
		for _, r1 := range d1.Relations {
			if _, done := matched1[r1.Object]; done {
				continue
			}
			for _, r2 := range d2.Relations {
				if _, done := matched2[r2.Object]; done {
					continue
				}
				if !cfg.RelationCompat(r1.Predicate, r2.Predicate) {
					continue
				}
				np := eval.Pair{E1: r1.Object, E2: r2.Object}
				if s := score(np); s >= cfg.Threshold {
					heap.Push(h, pqItem{np, s})
				}
			}
		}
	}
	return sortedPairList(out), nil
}

// nameSeeds returns pairs whose normalized names collide uniquely across
// the KBs (one holder per side).
func nameSeeds(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB, nameK int) ([]eval.Pair, error) {
	attrs1, err := stats.NameAttributesCtx(ctx, e, k1, nameK)
	if err != nil {
		return nil, err
	}
	attrs2, err := stats.NameAttributesCtx(ctx, e, k2, nameK)
	if err != nil {
		return nil, err
	}
	nl1 := stats.NewNameLookup(k1, attrs1)
	nl2 := stats.NewNameLookup(k2, attrs2)
	names1 := make(map[string][]kb.EntityID)
	for i := 0; i < k1.Len(); i++ {
		for _, n := range nl1.Names(kb.EntityID(i)) {
			names1[n] = append(names1[n], kb.EntityID(i))
		}
	}
	var out []eval.Pair
	names2 := make(map[string][]kb.EntityID)
	for i := 0; i < k2.Len(); i++ {
		for _, n := range nl2.Names(kb.EntityID(i)) {
			names2[n] = append(names2[n], kb.EntityID(i))
		}
	}
	for n, xs := range names1 {
		ys := names2[n]
		if len(xs) == 1 && len(ys) == 1 {
			out = append(out, eval.Pair{E1: xs[0], E2: ys[0]})
		}
	}
	return sortedPairList(out), nil
}

// pairsWithMinSharedBlocks returns the distinct pairs co-occurring in at
// least min blocks of the collection.
func pairsWithMinSharedBlocks(c *blocking.Collection, min int) []eval.Pair {
	counts := make(map[eval.Pair]int)
	for i := range c.Blocks {
		b := &c.Blocks[i]
		for _, e1 := range b.E1 {
			for _, e2 := range b.E2 {
				counts[eval.Pair{E1: e1, E2: e2}]++
			}
		}
	}
	var out []eval.Pair
	for p, n := range counts {
		if n >= min {
			out = append(out, p)
		}
	}
	return sortedPairList(out)
}

func sortedPairList(out []eval.Pair) []eval.Pair {
	set := make(map[eval.Pair]struct{}, len(out))
	for _, p := range out {
		set[p] = struct{}{}
	}
	return sortedPairs(set)
}

// editDistanceAtMost reports whether the Levenshtein distance of a and b is
// ≤ k, with early exit on the length difference.
func editDistanceAtMost(a, b string, k int) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b)-len(a) > k {
		return false
	}
	prev := make([]int, len(a)+1)
	cur := make([]int, len(a)+1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(b); j++ {
		cur[0] = j
		rowMin := cur[0]
		for i := 1; i <= len(a); i++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[i] = minOf3(prev[i]+1, cur[i-1]+1, prev[i-1]+cost)
			if cur[i] < rowMin {
				rowMin = cur[i]
			}
		}
		if rowMin > k {
			return false
		}
		prev, cur = cur, prev
	}
	return prev[len(a)] <= k
}

func minOf3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
