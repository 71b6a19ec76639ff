// Package similarity provides the schema-agnostic token-vector similarities
// used by the paper's fine-tuned baseline BSL (§6, "Baselines"): entities
// are represented by token uni-/bi-/tri-grams weighted by TF or TF-IDF, and
// compared with Cosine, Jaccard, Generalized Jaccard or the SiGMa similarity
// (the latter defined only for TF-IDF weights, following [21]).
//
// All measures are normalized to [0, 1] — which is precisely why they
// struggle on the nearly-similar matches of Figure 2, unlike MinoanER's
// unnormalized valueSim.
package similarity

import (
	"context"
	"math"
	"strings"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// Weighting selects the token weighting scheme.
type Weighting uint8

// Supported weightings.
const (
	TF Weighting = iota
	TFIDF
)

// String names the weighting.
func (w Weighting) String() string {
	if w == TFIDF {
		return "TF-IDF"
	}
	return "TF"
}

// Measure selects the vector similarity function.
type Measure uint8

// Supported measures. SiGMaSim applies exclusively to TF-IDF weights.
const (
	Cosine Measure = iota
	Jaccard
	GeneralizedJaccard
	SiGMaSim
)

// String names the measure.
func (m Measure) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Jaccard:
		return "jaccard"
	case GeneralizedJaccard:
		return "generalized-jaccard"
	default:
		return "sigma"
	}
}

// Vector is a sparse weighted term vector with cached norms.
type Vector struct {
	Terms map[string]float64
	// L2 is the Euclidean norm; L1 the sum of weights.
	L2, L1 float64
}

// finalize caches the norms after the term weights are set.
func (v *Vector) finalize() {
	var sq, sum float64
	for _, w := range v.Terms {
		sq += w * w
		sum += w
	}
	v.L2 = math.Sqrt(sq)
	v.L1 = sum
}

// PairCorpus holds the vectors of both KBs under one (n-gram, weighting)
// representation. IDF statistics are computed over the union of the two
// KBs, as is standard for cross-corpus TF-IDF.
type PairCorpus struct {
	NGram     int
	Weighting Weighting
	V1, V2    []Vector
}

// BuildPairCorpus vectorizes both KBs with token n-grams of size n and the
// given weighting. Document frequency counts each entity once per term. The
// per-entity term counting observes ctx between chunks.
func BuildPairCorpus(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB, n int, w Weighting) (*PairCorpus, error) {
	tok := kb.NewTokenizer()
	terms1, err := parallel.MapCtx(ctx, e, k1.Len(), func(i int) (map[string]float64, error) {
		return termCounts(tok, k1.Entity(kb.EntityID(i)), n), nil
	})
	if err != nil {
		return nil, err
	}
	terms2, err := parallel.MapCtx(ctx, e, k2.Len(), func(i int) (map[string]float64, error) {
		return termCounts(tok, k2.Entity(kb.EntityID(i)), n), nil
	})
	if err != nil {
		return nil, err
	}
	pc := &PairCorpus{NGram: n, Weighting: w}
	if w == TFIDF {
		df := make(map[string]int)
		for _, m := range terms1 {
			for t := range m {
				df[t]++
			}
		}
		for _, m := range terms2 {
			for t := range m {
				df[t]++
			}
		}
		total := float64(k1.Len() + k2.Len())
		idf := func(t string) float64 { return math.Log(1 + total/float64(df[t])) }
		apply := func(ms []map[string]float64) []Vector {
			vs := make([]Vector, len(ms))
			for i, m := range ms {
				for t, tf := range m {
					m[t] = tf * idf(t)
				}
				vs[i] = Vector{Terms: m}
				vs[i].finalize()
			}
			return vs
		}
		pc.V1, pc.V2 = apply(terms1), apply(terms2)
		return pc, nil
	}
	apply := func(ms []map[string]float64) []Vector {
		vs := make([]Vector, len(ms))
		for i, m := range ms {
			vs[i] = Vector{Terms: m}
			vs[i].finalize()
		}
		return vs
	}
	pc.V1, pc.V2 = apply(terms1), apply(terms2)
	return pc, nil
}

// termCounts extracts the n-gram term frequencies of one description. The
// n-grams are built per literal value (they do not cross value boundaries).
func termCounts(tok *kb.Tokenizer, d *kb.Description, n int) map[string]float64 {
	out := make(map[string]float64)
	for _, av := range d.Attrs {
		tokens := tok.Tokens(av.Value)
		if n <= 1 {
			for _, t := range tokens {
				out[t]++
			}
			continue
		}
		for i := 0; i+n <= len(tokens); i++ {
			out[strings.Join(tokens[i:i+n], "_")]++
		}
	}
	return out
}

// Similarity computes the selected measure between two vectors. Results are
// in [0, 1]; two empty vectors score 0.
func Similarity(m Measure, a, b *Vector) float64 {
	switch m {
	case Cosine:
		return cosine(a, b)
	case Jaccard:
		return jaccard(a, b)
	case GeneralizedJaccard:
		return generalizedJaccard(a, b)
	default:
		return sigma(a, b)
	}
}

// small returns the smaller vector first, to iterate over fewer terms.
func small(a, b *Vector) (*Vector, *Vector) {
	if len(a.Terms) <= len(b.Terms) {
		return a, b
	}
	return b, a
}

func cosine(a, b *Vector) float64 {
	if a.L2 == 0 || b.L2 == 0 {
		return 0
	}
	s, l := small(a, b)
	dot := 0.0
	for t, w := range s.Terms {
		if w2, ok := l.Terms[t]; ok {
			dot += w * w2
		}
	}
	return dot / (a.L2 * b.L2)
}

// jaccard ignores weights: |A ∩ B| / |A ∪ B| over term sets.
func jaccard(a, b *Vector) float64 {
	if len(a.Terms) == 0 || len(b.Terms) == 0 {
		return 0
	}
	s, l := small(a, b)
	inter := 0
	for t := range s.Terms {
		if _, ok := l.Terms[t]; ok {
			inter++
		}
	}
	union := len(a.Terms) + len(b.Terms) - inter
	return float64(inter) / float64(union)
}

// generalizedJaccard is Σ min(w_a, w_b) / Σ max(w_a, w_b).
func generalizedJaccard(a, b *Vector) float64 {
	if a.L1 == 0 || b.L1 == 0 {
		return 0
	}
	s, l := small(a, b)
	var minSum float64
	for t, w := range s.Terms {
		if w2, ok := l.Terms[t]; ok {
			minSum += math.Min(w, w2)
		}
	}
	// Σ max = Σ a + Σ b − Σ min.
	maxSum := a.L1 + b.L1 - minSum
	if maxSum == 0 {
		return 0
	}
	return minSum / maxSum
}

// sigma is the SiGMa string similarity [21]: the weight mass of the shared
// terms relative to the total mass, Σ_{t∈A∩B}(w_a + w_b) / (Σ w_a + Σ w_b).
func sigma(a, b *Vector) float64 {
	if a.L1 == 0 || b.L1 == 0 {
		return 0
	}
	s, l := small(a, b)
	var shared float64
	for t, w := range s.Terms {
		if w2, ok := l.Terms[t]; ok {
			shared += w + w2
		}
	}
	return shared / (a.L1 + b.L1)
}
