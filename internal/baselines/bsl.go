package baselines

import (
	"context"
	"fmt"
	"sort"

	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/parallel"
	"minoaner/internal/similarity"
)

// BSLConfig is one point of the baseline's 420-configuration grid (§6):
// token n-grams (n ∈ {1,2,3}), TF or TF-IDF weighting, one of four
// similarity measures (SiGMa similarity only with TF-IDF), and a Unique
// Mapping Clustering threshold in [0, 1) with step 0.05.
type BSLConfig struct {
	NGram     int
	Weighting similarity.Weighting
	Measure   similarity.Measure
	Threshold float64
}

// String formats the configuration compactly.
func (c BSLConfig) String() string {
	return fmt.Sprintf("%d-gram/%s/%s/t=%.2f", c.NGram, c.Weighting, c.Measure, c.Threshold)
}

// BSLOutcome is the evaluation of one configuration.
type BSLOutcome struct {
	Config  BSLConfig
	Metrics eval.Metrics
}

// BSLResult carries the best configuration (by F1, the paper's selection
// criterion) and the full sweep.
type BSLResult struct {
	Best     BSLOutcome
	Sweep    []BSLOutcome
	Explored int
}

// thresholdSteps enumerates the paper's thresholds: [0, 1) step 0.05.
func thresholdSteps() []float64 {
	ts := make([]float64, 0, 20)
	for t := 0.0; t < 0.9999; t += 0.05 {
		ts = append(ts, t)
	}
	return ts
}

// BSL runs the paper's baseline: every candidate pair of the (unpruned)
// disjunctive blocking graph is scored under each representation/measure
// combination, Unique Mapping Clustering selects a one-to-one mapping, and
// the best F1 over all 420 configurations is reported — an upper bound on
// what a fine-tuned value-only matcher can achieve, since the tuning uses
// the ground truth itself.
//
// Implementation note: UMC's greedy selection is independent of the
// threshold (the threshold only truncates the scan), so each (n, weighting,
// measure) needs a single scoring pass and a single greedy pass; the 20
// thresholds are evaluated on the selected prefix. The scoring passes
// observe ctx between chunks.
func BSL(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB, candidates []eval.Pair, gt *eval.GroundTruth) (BSLResult, error) {
	var res BSLResult
	for n := 1; n <= 3; n++ {
		for _, w := range []similarity.Weighting{similarity.TF, similarity.TFIDF} {
			corpus, err := similarity.BuildPairCorpus(ctx, e, k1, k2, n, w)
			if err != nil {
				return BSLResult{}, err
			}
			measures := []similarity.Measure{similarity.Cosine, similarity.Jaccard, similarity.GeneralizedJaccard}
			if w == similarity.TFIDF {
				measures = append(measures, similarity.SiGMaSim)
			}
			for _, m := range measures {
				scored, err := scorePairs(ctx, e, corpus, m, candidates)
				if err != nil {
					return BSLResult{}, err
				}
				selected := matching.UniqueMappingClustering(scoredToPairs(scored), 0)
				outcomes := evaluateThresholds(n, w, m, scored, selected, gt)
				res.Sweep = append(res.Sweep, outcomes...)
			}
		}
	}
	res.Explored = len(res.Sweep)
	for _, o := range res.Sweep {
		if o.Metrics.F1 > res.Best.Metrics.F1 {
			res.Best = o
		}
	}
	return res, nil
}

// scorePairs computes the similarity of every candidate pair in parallel.
func scorePairs(ctx context.Context, e *parallel.Engine, pc *similarity.PairCorpus, m similarity.Measure, candidates []eval.Pair) (map[eval.Pair]float64, error) {
	scores, err := parallel.MapCtx(ctx, e, len(candidates), func(i int) (float64, error) {
		p := candidates[i]
		return similarity.Similarity(m, &pc.V1[p.E1], &pc.V2[p.E2]), nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[eval.Pair]float64, len(candidates))
	for i, p := range candidates {
		out[p] = scores[i]
	}
	return out, nil
}

func scoredToPairs(scores map[eval.Pair]float64) []matching.ScoredPair {
	out := make([]matching.ScoredPair, 0, len(scores))
	for p, s := range scores {
		out = append(out, matching.ScoredPair{Pair: p, Score: s})
	}
	return out
}

// evaluateThresholds scores the UMC selection at every threshold using a
// single descending pass over the selected pairs.
func evaluateThresholds(n int, w similarity.Weighting, m similarity.Measure, scores map[eval.Pair]float64, selected []eval.Pair, gt *eval.GroundTruth) []BSLOutcome {
	type sel struct {
		score float64
		tp    bool
	}
	sels := make([]sel, 0, len(selected))
	for _, p := range selected {
		sels = append(sels, sel{scores[p], gt.Contains(p)})
	}
	sort.Slice(sels, func(i, j int) bool { return sels[i].score > sels[j].score })

	thresholds := thresholdSteps()
	out := make([]BSLOutcome, 0, len(thresholds))
	// Walk thresholds descending so the selected prefix only grows.
	idx, tps := 0, 0
	for i := len(thresholds) - 1; i >= 0; i-- {
		t := thresholds[i]
		for idx < len(sels) && sels[idx].score >= t {
			if sels[idx].tp {
				tps++
			}
			idx++
		}
		met := eval.Metrics{TruePositives: tps, Returned: idx, Expected: gt.Len()}
		if met.Returned > 0 {
			met.Precision = float64(met.TruePositives) / float64(met.Returned)
		}
		if met.Expected > 0 {
			met.Recall = float64(met.TruePositives) / float64(met.Expected)
		}
		if met.Precision+met.Recall > 0 {
			met.F1 = 2 * met.Precision * met.Recall / (met.Precision + met.Recall)
		}
		out = append(out, BSLOutcome{
			Config:  BSLConfig{NGram: n, Weighting: w, Measure: m, Threshold: t},
			Metrics: met,
		})
	}
	// Restore ascending threshold order for readability.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
