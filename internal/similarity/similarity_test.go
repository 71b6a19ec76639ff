package similarity

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/testkb"
)

var seq = parallel.Sequential()

// buildPairCorpus runs BuildPairCorpus under a background context, failing
// the test on an error.
func buildPairCorpus(t *testing.T, e *parallel.Engine, k1, k2 *kb.KB, n int, w Weighting) *PairCorpus {
	t.Helper()
	pc, err := BuildPairCorpus(context.Background(), e, k1, k2, n, w)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func vec(terms map[string]float64) *Vector {
	v := &Vector{Terms: terms}
	v.finalize()
	return v
}

func TestCosine(t *testing.T) {
	a := vec(map[string]float64{"x": 1, "y": 1})
	b := vec(map[string]float64{"x": 1, "y": 1})
	if got := Similarity(Cosine, a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("cosine(identical) = %v, want 1", got)
	}
	c := vec(map[string]float64{"z": 1})
	if got := Similarity(Cosine, a, c); got != 0 {
		t.Errorf("cosine(disjoint) = %v, want 0", got)
	}
	d := vec(map[string]float64{"x": 1})
	want := 1 / math.Sqrt(2)
	if got := Similarity(Cosine, a, d); math.Abs(got-want) > 1e-12 {
		t.Errorf("cosine = %v, want %v", got, want)
	}
}

func TestJaccard(t *testing.T) {
	a := vec(map[string]float64{"x": 5, "y": 1})
	b := vec(map[string]float64{"x": 1, "z": 1})
	// Weights ignored: |{x}| / |{x,y,z}| = 1/3.
	if got := Similarity(Jaccard, a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("jaccard = %v, want 1/3", got)
	}
}

func TestGeneralizedJaccard(t *testing.T) {
	a := vec(map[string]float64{"x": 2, "y": 1})
	b := vec(map[string]float64{"x": 1, "y": 3})
	// min: 1+1=2; max: 2+3=5.
	if got := Similarity(GeneralizedJaccard, a, b); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("genJaccard = %v, want 0.4", got)
	}
}

func TestSigma(t *testing.T) {
	a := vec(map[string]float64{"x": 2, "y": 2})
	b := vec(map[string]float64{"x": 1, "z": 3})
	// shared mass: (2+1) = 3; total 4+4 = 8.
	if got := Similarity(SiGMaSim, a, b); math.Abs(got-3.0/8) > 1e-12 {
		t.Errorf("sigma = %v, want 3/8", got)
	}
}

func TestEmptyVectors(t *testing.T) {
	empty := vec(map[string]float64{})
	full := vec(map[string]float64{"x": 1})
	for _, m := range []Measure{Cosine, Jaccard, GeneralizedJaccard, SiGMaSim} {
		if got := Similarity(m, empty, full); got != 0 {
			t.Errorf("%v(empty, x) = %v, want 0", m, got)
		}
		if got := Similarity(m, empty, empty); got != 0 {
			t.Errorf("%v(empty, empty) = %v, want 0", m, got)
		}
	}
}

// Property: all measures are symmetric, bounded in [0,1], and reach 1 on
// identical non-empty vectors (except sigma, which also reaches 1).
func TestMeasureProperties(t *testing.T) {
	f := func(wa, wb []uint8) bool {
		a := map[string]float64{}
		b := map[string]float64{}
		for i, w := range wa {
			if w > 0 {
				a[string(rune('a'+i%20))] = float64(w)
			}
		}
		for i, w := range wb {
			if w > 0 {
				b[string(rune('a'+i%20))] = float64(w)
			}
		}
		va, vb := vec(a), vec(b)
		for _, m := range []Measure{Cosine, Jaccard, GeneralizedJaccard, SiGMaSim} {
			ab := Similarity(m, va, vb)
			ba := Similarity(m, vb, va)
			if math.Abs(ab-ba) > 1e-12 || ab < 0 || ab > 1+1e-12 {
				return false
			}
		}
		if len(a) > 0 {
			for _, m := range []Measure{Cosine, Jaccard, GeneralizedJaccard, SiGMaSim} {
				if math.Abs(Similarity(m, va, va)-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBuildPairCorpusUnigram(t *testing.T) {
	w, d := testkb.Figure1()
	pc := buildPairCorpus(t, seq, w, d, 1, TF)
	if len(pc.V1) != w.Len() || len(pc.V2) != d.Len() {
		t.Fatal("corpus sizes wrong")
	}
	chef := pc.V1[w.Lookup("w:JohnLakeA")]
	if chef.Terms["lake"] != 2 { // "John Lake A" + "J. Lake"
		t.Errorf(`TF("lake") = %v, want 2`, chef.Terms["lake"])
	}
}

func TestBuildPairCorpusBigram(t *testing.T) {
	w, d := testkb.Figure1()
	pc := buildPairCorpus(t, seq, w, d, 2, TF)
	chef := pc.V1[w.Lookup("w:JohnLakeA")]
	if chef.Terms["john_lake"] != 1 {
		t.Errorf("bigram john_lake missing: %v", chef.Terms)
	}
	// Bigrams do not cross value boundaries.
	if _, ok := chef.Terms["a_j"]; ok {
		t.Error("bigram crossed value boundary")
	}
}

func TestTFIDFDownweightsFrequent(t *testing.T) {
	// Build two KBs where token "common" is everywhere and "rare" once.
	b1 := kb.NewBuilder("A")
	for i := 0; i < 10; i++ {
		id := b1.AddEntity(string(rune('a' + i)))
		b1.AddLiteral(id, "p", "common")
	}
	b1.AddLiteral(0, "p", "rare")
	k1 := b1.Build()
	b2 := kb.NewBuilder("B")
	x := b2.AddEntity("x")
	b2.AddLiteral(x, "p", "common rare")
	k2 := b2.Build()
	pc := buildPairCorpus(t, seq, k1, k2, 1, TFIDF)
	v := pc.V1[0]
	if v.Terms["rare"] <= v.Terms["common"] {
		t.Errorf("idf: rare=%v common=%v, want rare > common", v.Terms["rare"], v.Terms["common"])
	}
}

func TestWeightingAndMeasureStrings(t *testing.T) {
	if TF.String() != "TF" || TFIDF.String() != "TF-IDF" {
		t.Error("weighting strings")
	}
	if Cosine.String() != "cosine" || SiGMaSim.String() != "sigma" ||
		Jaccard.String() != "jaccard" || GeneralizedJaccard.String() != "generalized-jaccard" {
		t.Error("measure strings")
	}
}

func TestCorpusParallelDeterminism(t *testing.T) {
	w, d := testkb.Figure1()
	ref := buildPairCorpus(t, seq, w, d, 1, TFIDF)
	got := buildPairCorpus(t, parallel.New(4), w, d, 1, TFIDF)
	for i := range ref.V1 {
		if math.Abs(ref.V1[i].L2-got.V1[i].L2) > 1e-12 {
			t.Fatalf("vector %d differs across worker counts", i)
		}
	}
}
