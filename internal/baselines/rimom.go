package baselines

import (
	"context"
	"sort"

	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/parallel"
	"minoaner/internal/similarity"
)

// RiMOMConfig controls the RiMOM-IM-style matcher.
type RiMOMConfig struct {
	// TopTokens is the number of highest-TF-IDF tokens per entity used for
	// blocking (RiMOM-IM uses the top 5).
	TopTokens int
	// Threshold is the similarity acceptance threshold (default 0.15).
	Threshold float64
	// Iterations bounds the one-left-object propagation rounds (default 5).
	Iterations int
}

// DefaultRiMOMConfig returns the published defaults.
func DefaultRiMOMConfig() RiMOMConfig {
	return RiMOMConfig{TopTokens: 5, Threshold: 0.15, Iterations: 5}
}

// RiMOMIM reimplements the iterative instance matcher of Shao et al. [31]
// as characterized in §5: blocking by each entity's top-5 TF-IDF tokens
// (requiring attribute alignment, which the synthetic KBs provide through
// shared predicate names), value matching with a threshold, and the
// "one-left-object" heuristic — if two matched entities are connected via
// aligned relations and all but one of their neighbors are matched, the
// remaining neighbor pair is matched too. The parallel passes observe ctx
// between chunks.
func RiMOMIM(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB, cfg RiMOMConfig) ([]eval.Pair, error) {
	if cfg.TopTokens <= 0 {
		cfg = DefaultRiMOMConfig()
	}
	corpus, err := similarity.BuildPairCorpus(ctx, e, k1, k2, 1, similarity.TFIDF)
	if err != nil {
		return nil, err
	}
	sim := func(p eval.Pair) float64 {
		return similarity.Similarity(similarity.SiGMaSim, &corpus.V1[p.E1], &corpus.V2[p.E2])
	}

	// Hapax terms (document frequency 1) cannot produce a cross-KB block,
	// and very frequent terms produce indiscriminate ones; RiMOM-IM's
	// top-token blocking keeps only discriminative terms in between.
	df := make(map[string]int)
	for i := range corpus.V1 {
		for t := range corpus.V1[i].Terms {
			df[t]++
		}
	}
	for j := range corpus.V2 {
		for t := range corpus.V2[j].Terms {
			df[t]++
		}
	}
	maxDF := (len(corpus.V1) + len(corpus.V2)) / 100
	if maxDF < 100 {
		maxDF = 100
	}
	matchable := func(t string) bool { return df[t] >= 2 && df[t] <= maxDF }

	// Blocking: candidates share at least one top-TF-IDF matchable token.
	blocks := make(map[string][]kb.EntityID)
	for i := range corpus.V1 {
		for _, t := range topTermsFiltered(&corpus.V1[i], cfg.TopTokens, matchable) {
			blocks[t] = append(blocks[t], kb.EntityID(i))
		}
	}
	candSet := make(map[eval.Pair]struct{})
	for j := range corpus.V2 {
		for _, t := range topTermsFiltered(&corpus.V2[j], cfg.TopTokens, matchable) {
			for _, i := range blocks[t] {
				candSet[eval.Pair{E1: i, E2: kb.EntityID(j)}] = struct{}{}
			}
		}
	}
	candidates := sortedPairs(candSet)

	// Initial value-based matching.
	scored := make([]matching.ScoredPair, 0, len(candidates))
	scores, err := parallel.MapCtx(ctx, e, len(candidates), func(i int) (float64, error) { return sim(candidates[i]), nil })
	if err != nil {
		return nil, err
	}
	for i, p := range candidates {
		scored = append(scored, matching.ScoredPair{Pair: p, Score: scores[i]})
	}
	matches := matching.UniqueMappingClustering(scored, cfg.Threshold)

	matched1 := make(map[kb.EntityID]kb.EntityID, len(matches))
	matched2 := make(map[kb.EntityID]kb.EntityID, len(matches))
	for _, m := range matches {
		matched1[m.E1] = m.E2
		matched2[m.E2] = m.E1
	}

	// One-left-object rounds.
	for it := 0; it < cfg.Iterations; it++ {
		added := 0
		for _, m := range sortedMatchedPairs(matched1) {
			d1, d2 := k1.Entity(m.E1), k2.Entity(m.E2)
			byPred1 := groupByPredicate(d1.Relations)
			byPred2 := groupByPredicate(d2.Relations)
			for pred, objs1 := range byPred1 {
				objs2, ok := byPred2[pred]
				if !ok {
					continue
				}
				left1 := unmatchedOf(objs1, matched1)
				left2 := unmatchedOf(objs2, matched2)
				if len(left1) == 1 && len(left2) == 1 {
					matched1[left1[0]] = left2[0]
					matched2[left2[0]] = left1[0]
					added++
				}
			}
		}
		if added == 0 {
			break
		}
	}
	out := make([]eval.Pair, 0, len(matched1))
	for x, y := range matched1 {
		out = append(out, eval.Pair{E1: x, E2: y})
	}
	return sortedPairList(out), nil
}

// topTerms returns the k terms of highest weight (ties by term).
func topTerms(v *similarity.Vector, k int) []string {
	return topTermsFiltered(v, k, func(string) bool { return true })
}

// topTermsFiltered returns the k highest-weighted terms passing the filter.
func topTermsFiltered(v *similarity.Vector, k int, keep func(string) bool) []string {
	type tw struct {
		t string
		w float64
	}
	terms := make([]tw, 0, len(v.Terms))
	for t, w := range v.Terms {
		if keep(t) {
			terms = append(terms, tw{t, w})
		}
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].w != terms[j].w {
			return terms[i].w > terms[j].w
		}
		return terms[i].t < terms[j].t
	})
	if len(terms) > k {
		terms = terms[:k]
	}
	out := make([]string, len(terms))
	for i, x := range terms {
		out[i] = x.t
	}
	return out
}

func groupByPredicate(rels []kb.Relation) map[string][]kb.EntityID {
	out := make(map[string][]kb.EntityID)
	for _, r := range rels {
		out[r.Predicate] = append(out[r.Predicate], r.Object)
	}
	return out
}

func unmatchedOf(objs []kb.EntityID, matched map[kb.EntityID]kb.EntityID) []kb.EntityID {
	var out []kb.EntityID
	seen := make(map[kb.EntityID]bool, len(objs))
	for _, o := range objs {
		if seen[o] {
			continue
		}
		seen[o] = true
		if _, ok := matched[o]; !ok {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedMatchedPairs(m1 map[kb.EntityID]kb.EntityID) []eval.Pair {
	out := make([]eval.Pair, 0, len(m1))
	for x, y := range m1 {
		out = append(out, eval.Pair{E1: x, E2: y})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].E1 < out[j].E1 })
	return out
}
