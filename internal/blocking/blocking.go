// Package blocking implements MinoanER's composite blocking scheme (§3):
// schema-agnostic token blocking (every shared token of any literal value
// creates a block), name blocking over the discovered name attributes, and
// Block Purging of oversized stop-word blocks. Blocks carry the entities of
// both input KBs separately, since clean-clean ER only compares across KBs.
package blocking

import (
	"context"
	"slices"
	"strings"
	"sync"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
)

// Block groups the entities of the two KBs that share one blocking key.
type Block struct {
	Key string
	// E1 and E2 hold the entities of each KB indexed under Key, sorted by ID.
	E1, E2 []kb.EntityID
}

// Comparisons returns |b1|·|b2|, the number of cross-KB comparisons the
// block suggests.
func (b *Block) Comparisons() int64 {
	return int64(len(b.E1)) * int64(len(b.E2))
}

// Collection is an ordered set of blocks (sorted by key, so every pipeline
// stage iterates deterministically).
type Collection struct {
	Blocks []Block
}

// Len returns the number of blocks (|B| in Table 2).
func (c *Collection) Len() int { return len(c.Blocks) }

// TotalComparisons returns ‖B‖: the aggregate number of suggested cross-KB
// comparisons, counting a pair once per co-occurring block (Table 2).
func (c *Collection) TotalComparisons() int64 {
	var total int64
	for i := range c.Blocks {
		total += c.Blocks[i].Comparisons()
	}
	return total
}

type sideID struct {
	side int8 // 1 or 2
	id   kb.EntityID
}

// buildCollection groups keyed entity occurrences from both KBs into cross-KB
// blocks. Blocks with entities from only one KB are dropped: they suggest no
// clean-clean comparisons. Keys and members come out sorted. The grouping
// pass runs under the dynamic chunked scheduler since per-entity key counts
// can be skewed. Nothing in the pipeline goes through here anymore — token
// blocking uses the columnar TokenIndex, name blocking the columnar NameIndex
// — but it is RETAINED as the semantic reference the NameIndex property tests
// and the NameBlocksMapRef benchmark side pin against.
func buildCollection(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB, emit1, emit2 func(i int, yield func(string))) (*Collection, error) {
	n1 := k1.Len()
	total := n1 + k2.Len()
	grouped, err := parallel.GroupByCtx(ctx, e.Chunked(), total, func(i int, yield func(string, sideID)) {
		if i < n1 {
			emit1(i, func(key string) { yield(key, sideID{1, kb.EntityID(i)}) })
		} else {
			j := i - n1
			emit2(j, func(key string) { yield(key, sideID{2, kb.EntityID(j)}) })
		}
	})
	if err != nil {
		return nil, err
	}
	blocks := make([]Block, 0, len(grouped))
	for key, members := range grouped {
		var b Block
		b.Key = key
		for _, m := range members {
			if m.side == 1 {
				b.E1 = append(b.E1, m.id)
			} else {
				b.E2 = append(b.E2, m.id)
			}
		}
		if len(b.E1) == 0 || len(b.E2) == 0 {
			continue
		}
		slices.Sort(b.E1)
		slices.Sort(b.E2)
		blocks = append(blocks, b)
	}
	slices.SortFunc(blocks, func(a, c Block) int { return strings.Compare(a.Key, c.Key) })
	return &Collection{Blocks: blocks}, nil
}

// TokenBlocksCtx builds token blocking (§3.1, h_T): one block per token
// shared by at least one entity of each KB. Because the per-KB side sizes
// |b1|, |b2| equal the Entity Frequencies EF₁(t), EF₂(t), valueSim is
// derivable from these blocks alone (Algorithm 1, line 14). It is a view
// over the columnar TokenIndex — blocks are materialized from the CSR member
// arrays instead of re-grouping entities under string keys.
func TokenBlocksCtx(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB) (*Collection, error) {
	ix, err := NewTokenIndexCtx(ctx, e, k1, k2)
	if err != nil {
		return nil, err
	}
	return ix.Collection(), nil
}

// NameBlocksCtx builds name blocking (§3.1, h_N): one block per normalized
// name value under each KB's top-k name attributes. The matcher's R1 rule
// uses only blocks of size 1×1 (a name unique in both KBs), but the full
// collection is kept for Table 2 statistics. It is a view over the columnar
// NameIndex — blocks are materialized from CSR member arrays filled by
// counting interned ValueIDs, instead of re-grouping entities under name
// STRINGS through a map (the NameBlocksMapRef path it replaced).
func NameBlocksCtx(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB, nameAttrs1, nameAttrs2 []string) (*Collection, error) {
	ix, err := NewNameIndexCtx(ctx, e, k1, k2, nameAttrs1, nameAttrs2)
	if err != nil {
		return nil, err
	}
	return ix.Collection(), nil
}

// NameBlocksMapRef is the historical string-grouped name blocking: every
// name(e) materialized as a string and grouped under a map key through
// buildCollection. Kept exported ONLY as the reference side of
// BenchmarkNameBlocks and the NameIndex property tests — the pipeline uses
// NameBlocksCtx, which must reproduce this output byte-identically.
func NameBlocksMapRef(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB, nameAttrs1, nameAttrs2 []string) (*Collection, error) {
	nl1 := stats.NewNameLookup(k1, nameAttrs1)
	nl2 := stats.NewNameLookup(k2, nameAttrs2)
	return buildCollection(ctx, e, k1, k2,
		func(i int, yield func(string)) {
			for _, n := range nl1.Names(kb.EntityID(i)) {
				yield(n)
			}
		},
		func(i int, yield func(string)) {
			for _, n := range nl2.Names(kb.EntityID(i)) {
				yield(n)
			}
		})
}

// PurgeAbove removes blocks whose comparison count exceeds maxComparisons
// and returns the kept collection plus the number of purged blocks. A
// non-positive threshold keeps everything.
func PurgeAbove(c *Collection, maxComparisons int64) (*Collection, int) {
	if maxComparisons <= 0 {
		return c, 0
	}
	kept := make([]Block, 0, len(c.Blocks))
	purged := 0
	for _, b := range c.Blocks {
		if b.Comparisons() > maxComparisons {
			purged++
			continue
		}
		kept = append(kept, b)
	}
	return &Collection{Blocks: kept}, purged
}

// ComparisonBudget converts a Block Purging fraction into the absolute
// comparison budget for a KB pair: fraction of the Cartesian product
// |E1|·|E2|, at least 1. A non-positive fraction disables purging (budget
// 0). It is the single place the threshold formula lives — the core
// pipeline's per-block cap and AutoPurge's aggregate budget both derive
// from it, so the two can't drift.
func ComparisonBudget(n1, n2 int, fraction float64) int64 {
	if fraction <= 0 {
		return 0
	}
	budget := int64(float64(n1) * float64(n2) * fraction)
	if budget < 1 {
		budget = 1
	}
	return budget
}

// AutoPurge implements Block Purging in the spirit of [26] as used by the
// paper (§3.3): it removes the largest blocks — those produced by highly
// frequent, stop-word-like tokens — until the retained comparisons fit
// within budgetFraction of the Cartesian product |E1|·|E2| (the paper
// reports two orders of magnitude below brute force, i.e. fraction 0.01).
// Blocks are considered from smallest to largest, so small discriminative
// blocks are always kept. Returns the kept collection, the purging threshold
// actually applied (max comparisons per block), and the purged block count.
func AutoPurge(c *Collection, n1, n2 int, budgetFraction float64) (*Collection, int64, int) {
	budget := ComparisonBudget(n1, n2, budgetFraction)
	if budget == 0 || len(c.Blocks) == 0 {
		return c, 0, 0
	}
	if c.TotalComparisons() <= budget {
		return c, 0, 0
	}
	sp := purgeScratch.Get().(*[]int64)
	sizes := (*sp)[:0]
	for i := range c.Blocks {
		sizes = append(sizes, c.Blocks[i].Comparisons())
	}
	slices.Sort(sizes)
	var running int64
	threshold := sizes[0]
	for _, s := range sizes {
		if running+s > budget {
			break
		}
		running += s
		threshold = s
	}
	*sp = sizes
	purgeScratch.Put(sp)
	kept, purged := PurgeAbove(c, threshold)
	return kept, threshold, purged
}

// purgeScratch recycles AutoPurge's block-size scratch across calls — the
// sort needs a copy of all sizes, but the copy need not be a fresh
// allocation every time (AutoPurge runs per resolve and per Table-2 row).
var purgeScratch = sync.Pool{New: func() any { return new([]int64) }}
