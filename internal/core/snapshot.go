// Substrate decomposition for snapshot serialization: SubstrateParts is the
// stable, exported view of everything BuildSubstrate froze — the two KBs,
// the normalized build config, name attributes, relation ranks, top-neighbor
// rows, name blocks and the purged token index — and SubstrateFromParts is
// its inverse. The name lookups are NOT serialized: stats.NewNameLookup is a
// cheap bitset over the (already loaded) schema, so the loader re-derives
// them. QueryState is the optional second half: the prewarmed per-entity
// query state (frozen graph, γ scope inputs, name-usage index) exported as
// flat data, so a snapshot-loaded substrate answers its first query without
// re-running graph construction.
package core

import (
	"context"
	"fmt"
	"time"

	"minoaner/internal/blocking"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
)

// SubstrateParts is the flat decomposition of one substrate. Config must be
// the normalized configuration of the original build (it is installed
// verbatim — re-normalizing would turn a disabled Block Purging back on).
type SubstrateParts struct {
	K1, K2 *kb.KB
	Config Config

	NameAttrs1, NameAttrs2 []string
	Ranks1, Ranks2         []int32
	Top1, Top2             [][]kb.EntityID

	NameBlocks     *blocking.Collection
	TokenIndex     *blocking.TokenIndex
	PurgedBlocks   int
	PurgeThreshold int64

	Timings   Timings
	BuildWall time.Duration
}

// Parts decomposes the substrate for serialization. Slices alias the
// substrate and must be treated as read-only.
func (s *Substrate) Parts() SubstrateParts {
	return SubstrateParts{
		K1: s.k1, K2: s.k2, Config: s.cfg,
		NameAttrs1: s.nameAttrs1, NameAttrs2: s.nameAttrs2,
		Ranks1: s.ranks1, Ranks2: s.ranks2,
		Top1: s.top1, Top2: s.top2,
		NameBlocks: s.nameBlocks, TokenIndex: s.tokenIx,
		PurgedBlocks: s.purgedBlocks, PurgeThreshold: s.purgeThreshold,
		Timings: s.timings, BuildWall: s.buildWall,
	}
}

// RelationRanks returns the dense per-predicate importance ranks of each KB.
func (s *Substrate) RelationRanks() (ranks1, ranks2 []int32) { return s.ranks1, s.ranks2 }

// TopNeighbors returns the per-entity top-neighbor rows of each KB.
func (s *Substrate) TopNeighbors() (top1, top2 [][]kb.EntityID) { return s.top1, s.top2 }

// SubstrateFromParts reassembles an immutable substrate (the inverse of
// Parts). The name lookups are re-derived from the loaded schema; everything
// else is installed as-is, so ResolveWith and QueryEntity over the result
// are byte-identical to the originally built substrate.
func SubstrateFromParts(p SubstrateParts) (*Substrate, error) {
	if p.K1 == nil || p.K2 == nil || p.NameBlocks == nil || p.TokenIndex == nil {
		return nil, fmt.Errorf("core: substrate from parts: missing KB, name blocks or token index")
	}
	if len(p.Top1) != p.K1.Len() || len(p.Top2) != p.K2.Len() {
		return nil, fmt.Errorf("core: substrate from parts: top-neighbor rows (%d, %d) disagree with KB sizes (%d, %d)",
			len(p.Top1), len(p.Top2), p.K1.Len(), p.K2.Len())
	}
	if len(p.Ranks1) != p.K1.Schema().Preds() || len(p.Ranks2) != p.K2.Schema().Preds() {
		return nil, fmt.Errorf("core: substrate from parts: relation ranks disagree with schema sizes")
	}
	return &Substrate{
		k1: p.K1, k2: p.K2, cfg: p.Config,
		nameAttrs1: p.NameAttrs1, nameAttrs2: p.NameAttrs2,
		names1: stats.NewNameLookup(p.K1, p.NameAttrs1),
		names2: stats.NewNameLookup(p.K2, p.NameAttrs2),
		ranks1: p.Ranks1, ranks2: p.Ranks2,
		top1: p.Top1, top2: p.Top2,
		nameBlocks: p.NameBlocks, tokenIx: p.TokenIndex,
		purgedBlocks: p.PurgedBlocks, purgeThreshold: p.PurgeThreshold,
		timings: p.Timings, buildWall: p.BuildWall,
	}, nil
}

// NameUsage is the flat form of one name-usage index entry: how many
// entities of each side carry the normalized name, and the sole carrier per
// side when that count is 1 (the only case the α rule consults).
type NameUsage struct {
	Name   string
	N1, N2 int32
	E1, E2 kb.EntityID
}

// QueryState is the exported, flat form of the prewarmed per-entity query
// state: the frozen disjunctive blocking graph (its E1-side γ rows are
// produced per query from the scope), the γ scope and the name-usage index
// sorted by name.
type QueryState struct {
	Graph *graph.Graph
	Scope *graph.Gamma1Scope
	Names []NameUsage
}

// ExportQueryState prewarms the substrate (if needed) and returns its query
// state in flat form for serialization. The Names slice is sorted by name.
func (s *Substrate) ExportQueryState(ctx context.Context) (*QueryState, error) {
	st, err := s.queryState(ctx)
	if err != nil {
		return nil, err
	}
	out := &QueryState{Graph: st.g, Scope: st.scope}
	if st.names != nil {
		usage := make([]NameUsage, 0, len(st.names))
		names := make([]string, 0, len(st.names))
		for n, u := range st.names {
			usage = append(usage, NameUsage{Name: n, N1: u.n1, N2: u.n2, E1: u.e1, E2: u.e2})
			names = append(names, n)
		}
		out.Names = make([]NameUsage, len(usage))
		for i, idx := range kb.StringOrder(names) {
			out.Names[i] = usage[idx]
		}
	} else {
		out.Names = st.sorted
	}
	return out, nil
}

// InstallQueryState installs a previously exported query state, so the first
// QueryEntity call pays no graph construction (the snapshot warm-start path).
// Names must be sorted by name; α probes then binary-search the slice
// instead of a map. Installing over an already built state replaces it.
func (s *Substrate) InstallQueryState(qs *QueryState) error {
	if qs == nil || qs.Graph == nil || qs.Scope == nil {
		return fmt.Errorf("core: install query state: missing graph or scope")
	}
	if len(qs.Graph.Alpha1) != s.k1.Len() || len(qs.Graph.Alpha2) != s.k2.Len() {
		return fmt.Errorf("core: install query state: graph sized (%d, %d), substrate (%d, %d)",
			len(qs.Graph.Alpha1), len(qs.Graph.Alpha2), s.k1.Len(), s.k2.Len())
	}
	for i := 1; i < len(qs.Names); i++ {
		if qs.Names[i-1].Name > qs.Names[i].Name {
			return fmt.Errorf("core: install query state: names not sorted at %d", i)
		}
	}
	st := &queryState{g: qs.Graph, scope: qs.Scope, sorted: qs.Names}
	n2, k := s.k2.Len(), s.cfg.TopK
	st.pool.New = func() any {
		return &querySlot{qs: graph.NewQueryScratch(n2, k), agg: matching.NewAggScratch()}
	}
	s.queryMu.Lock()
	s.query.Store(st)
	s.queryMu.Unlock()
	return nil
}

// QueryEngine returns a parallel engine sized to the substrate's configured
// worker count — the engine a loader hands to graph.NewGamma1Scope.
func (s *Substrate) QueryEngine() *parallel.Engine { return parallel.New(s.cfg.Workers) }
