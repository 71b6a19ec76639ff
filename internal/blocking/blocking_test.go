package blocking

import (
	"context"
	"sort"
	"testing"
	"testing/quick"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
	"minoaner/internal/testkb"
)

var seq = parallel.Sequential()

// The helpers below run a blocking or statistics pass under a background
// context and fail the test on an error.

func tokenBlocks(t testing.TB, e *parallel.Engine, k1, k2 *kb.KB) *Collection {
	t.Helper()
	c, err := TokenBlocksCtx(context.Background(), e, k1, k2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func nameBlocks(t testing.TB, e *parallel.Engine, k1, k2 *kb.KB, nameAttrs1, nameAttrs2 []string) *Collection {
	t.Helper()
	c, err := NameBlocksCtx(context.Background(), e, k1, k2, nameAttrs1, nameAttrs2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newTokenIndex(t testing.TB, e *parallel.Engine, k1, k2 *kb.KB) *TokenIndex {
	t.Helper()
	ix, err := NewTokenIndexCtx(context.Background(), e, k1, k2)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func buildEF(t testing.TB, e *parallel.Engine, k *kb.KB) *stats.EFIndex {
	t.Helper()
	ix, err := stats.BuildEFCtx(context.Background(), e, k)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func nameAttributes(t testing.TB, e *parallel.Engine, k *kb.KB, topK int) []string {
	t.Helper()
	out, err := stats.NameAttributesCtx(context.Background(), e, k, topK)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func figure1Blocks(t *testing.T) (*kb.KB, *kb.KB, *Collection) {
	t.Helper()
	w, d := testkb.Figure1()
	return w, d, tokenBlocks(t, seq, w, d)
}

func TestTokenBlocksBasics(t *testing.T) {
	w, d, blocks := figure1Blocks(t)
	ix := NewIndex(blocks)
	// "lake" appears in one entity on each side.
	b := ix.Lookup("lake")
	if b == nil {
		t.Fatal(`no "lake" block`)
	}
	if len(b.E1) != 1 || len(b.E2) != 1 {
		t.Fatalf(`"lake" block = %d×%d, want 1×1`, len(b.E1), len(b.E2))
	}
	if b.E1[0] != w.Lookup("w:JohnLakeA") || b.E2[0] != d.Lookup("d:JonnyLake") {
		t.Error("lake block holds wrong entities")
	}
	// Tokens present on only one side produce no block.
	if ix.Lookup("michelin") != nil {
		t.Error(`"michelin" exists only in Wikidata; block must be dropped`)
	}
	// Keys sorted.
	if !sort.SliceIsSorted(blocks.Blocks, func(i, j int) bool {
		return blocks.Blocks[i].Key < blocks.Blocks[j].Key
	}) {
		t.Error("blocks not sorted by key")
	}
}

// Token blocking completeness (Def. 3.1 condition ii): any cross-KB pair
// sharing a token must co-occur in that token's block.
func TestTokenBlocksComplete(t *testing.T) {
	w, d, blocks := figure1Blocks(t)
	ix := NewIndex(blocks)
	for i := 0; i < w.Len(); i++ {
		for j := 0; j < d.Len(); j++ {
			di, dj := w.Entity(kb.EntityID(i)), d.Entity(kb.EntityID(j))
			shared := sharedToken(di.Tokens(), dj.Tokens())
			got := ix.CoOccur(di.Tokens(), kb.EntityID(i), kb.EntityID(j))
			if (shared != "") != got {
				t.Fatalf("pair (%s,%s): shared=%q but CoOccur=%v", di.URI, dj.URI, shared, got)
			}
		}
	}
}

func sharedToken(a, b []string) string {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return a[i]
		}
	}
	return ""
}

// EF equivalence: |b1|,|b2| of a token block equal the per-KB entity
// frequencies, which is what lets Algorithm 1 derive valueSim from blocks.
func TestBlockSizesEqualEF(t *testing.T) {
	w, d, blocks := figure1Blocks(t)
	ef1, ef2 := buildEF(t, seq, w), buildEF(t, seq, d)
	for _, b := range blocks.Blocks {
		if len(b.E1) != ef1.EF(b.Key) || len(b.E2) != ef2.EF(b.Key) {
			t.Fatalf("block %q sizes %d×%d != EF %d×%d",
				b.Key, len(b.E1), len(b.E2), ef1.EF(b.Key), ef2.EF(b.Key))
		}
	}
}

func TestNameBlocks(t *testing.T) {
	w, d := testkb.Figure1()
	n1 := nameAttributes(t, seq, w, 2)
	n2 := nameAttributes(t, seq, d, 2)
	nb := nameBlocks(t, seq, w, d, n1, n2)
	ix := NewIndex(nb)
	b := ix.Lookup("j lake")
	if b == nil {
		t.Fatalf(`no "j lake" name block; blocks: %v`, keysOf(nb))
	}
	if b.Comparisons() != 1 {
		t.Fatalf(`"j lake" block = %d comparisons, want 1 (unique name)`, b.Comparisons())
	}
}

func keysOf(c *Collection) []string {
	var ks []string
	for _, b := range c.Blocks {
		ks = append(ks, b.Key)
	}
	return ks
}

func TestParallelDeterminism(t *testing.T) {
	w, d := testkb.Figure1()
	ref := tokenBlocks(t, seq, w, d)
	for _, workers := range []int{2, 4, 8} {
		got := tokenBlocks(t, parallel.New(workers), w, d)
		if len(got.Blocks) != len(ref.Blocks) {
			t.Fatalf("workers=%d: %d blocks, want %d", workers, len(got.Blocks), len(ref.Blocks))
		}
		for i := range ref.Blocks {
			if got.Blocks[i].Key != ref.Blocks[i].Key ||
				got.Blocks[i].Comparisons() != ref.Blocks[i].Comparisons() {
				t.Fatalf("workers=%d: block %d differs", workers, i)
			}
		}
	}
}

func TestPurgeAbove(t *testing.T) {
	c := &Collection{Blocks: []Block{
		{Key: "small", E1: []kb.EntityID{1}, E2: []kb.EntityID{2}},
		{Key: "big", E1: []kb.EntityID{1, 2, 3}, E2: []kb.EntityID{4, 5, 6}},
	}}
	kept, purged := PurgeAbove(c, 4)
	if purged != 1 || kept.Len() != 1 || kept.Blocks[0].Key != "small" {
		t.Fatalf("PurgeAbove kept %v, purged %d", keysOf(kept), purged)
	}
	// Non-positive threshold is a no-op.
	kept2, purged2 := PurgeAbove(c, 0)
	if purged2 != 0 || kept2.Len() != 2 {
		t.Error("PurgeAbove(0) must keep everything")
	}
}

func TestAutoPurgeBudget(t *testing.T) {
	// 100 × 100 entities, budget 1% → 100 comparisons.
	blocks := make([]Block, 0, 30)
	for i := 0; i < 30; i++ {
		var b Block
		b.Key = string(rune('a' + i))
		// Increasing sizes: blocks 0..29 have (i+1)² comparisons... keep
		// simple: i+1 entities on one side, 1 on the other → i+1 comparisons.
		for j := 0; j <= i; j++ {
			b.E1 = append(b.E1, kb.EntityID(j))
		}
		b.E2 = []kb.EntityID{0}
		blocks = append(blocks, b)
	}
	c := &Collection{Blocks: blocks} // total = 1+2+...+30 = 465
	kept, threshold, purged := AutoPurge(c, 100, 100, 0.01)
	if purged == 0 {
		t.Fatal("AutoPurge should purge some blocks (465 > 100 budget)")
	}
	if kept.TotalComparisons() > 100 {
		t.Fatalf("kept %d comparisons, budget 100", kept.TotalComparisons())
	}
	if threshold <= 0 {
		t.Fatalf("threshold = %d, want positive", threshold)
	}
	// Keeps the smallest blocks: every kept block ≤ threshold.
	for _, b := range kept.Blocks {
		if b.Comparisons() > threshold {
			t.Fatalf("kept block %q above threshold", b.Key)
		}
	}
}

func TestAutoPurgeNoOpUnderBudget(t *testing.T) {
	c := &Collection{Blocks: []Block{
		{Key: "a", E1: []kb.EntityID{1}, E2: []kb.EntityID{1}},
	}}
	kept, threshold, purged := AutoPurge(c, 1000, 1000, 0.01)
	if purged != 0 || threshold != 0 || kept.Len() != 1 {
		t.Error("AutoPurge under budget must be a no-op")
	}
	// Empty collection.
	empty := &Collection{}
	kept2, _, purged2 := AutoPurge(empty, 10, 10, 0.01)
	if purged2 != 0 || kept2.Len() != 0 {
		t.Error("AutoPurge on empty collection")
	}
}

// Property: AutoPurge never increases comparisons and keeps a subset.
func TestAutoPurgeProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		blocks := make([]Block, 0, len(sizes))
		for i, s := range sizes {
			n := int(s%20) + 1
			var b Block
			b.Key = string(rune('a'+i%26)) + string(rune('0'+i/26%10))
			for j := 0; j < n; j++ {
				b.E1 = append(b.E1, kb.EntityID(j))
			}
			b.E2 = []kb.EntityID{0, 1}
			blocks = append(blocks, b)
		}
		c := &Collection{Blocks: blocks}
		before := c.TotalComparisons()
		kept, _, purged := AutoPurge(c, 50, 50, 0.05)
		after := kept.TotalComparisons()
		return after <= before && kept.Len()+purged == c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIndexCoOccur(t *testing.T) {
	c := &Collection{Blocks: []Block{
		{Key: "x", E1: []kb.EntityID{1, 3, 5}, E2: []kb.EntityID{2, 4}},
	}}
	ix := NewIndex(c)
	if !ix.CoOccur([]string{"x"}, 3, 4) {
		t.Error("CoOccur(3,4) via x = false, want true")
	}
	if ix.CoOccur([]string{"x"}, 2, 4) {
		t.Error("CoOccur(2,4): 2 not in E1 side")
	}
	if ix.CoOccur([]string{"missing"}, 1, 2) {
		t.Error("CoOccur via missing key")
	}
	if ix.Lookup("x") == nil || ix.Lookup("y") != nil {
		t.Error("Lookup")
	}
}

// BenchmarkAutoPurge guards the purge pass over a large synthetic
// collection: the size snapshot, sort and threshold walk dominate, and the
// pooled scratch slice must keep steady-state allocations to the kept-slice
// copy (no fresh sizes buffer per call).
func BenchmarkAutoPurge(b *testing.B) {
	const n = 20000
	blocks := make([]Block, n)
	for i := range blocks {
		// Deterministic, heavily skewed sizes: mostly tiny blocks with a
		// long tail of stop-word-sized ones, like a real token collection.
		w := 1 + (i*2654435761)%7
		if i%97 == 0 {
			w *= 50
		}
		members := make([]kb.EntityID, w)
		for j := range members {
			members[j] = kb.EntityID(j)
		}
		blocks[i] = Block{Key: "k", E1: members, E2: members}
	}
	c := &Collection{Blocks: blocks}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept, threshold, purged := AutoPurge(c, 5000, 5000, 0.001)
		if threshold == 0 || purged == 0 || kept.Len() == 0 {
			b.Fatal("purge did not engage; benchmark is vacuous")
		}
	}
}
