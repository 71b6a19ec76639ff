// Snapshot-side accessors for the query-path graph state: the Gamma1Scope's
// frozen inputs (merged β adjacency and E2 reverse top-neighbor index) can
// be read out for serialization and reassembled on load, so a snapshot-
// loaded substrate answers its first query without re-running Build.
package graph

import (
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// SnapshotParts exposes the scope's frozen inputs for serialization: the E1
// top-neighbor rows (shared with the substrate), the merged undirected β
// adjacency of E1, the reverse top-neighbor index of E2 and the per-row
// candidate bound. Callers must treat the slices as read-only.
func (sc *Gamma1Scope) SnapshotParts() (top1 [][]kb.EntityID, adj1 [][]Edge, in2 [][]kb.EntityID, k int) {
	return sc.top1, sc.adj1, sc.in2, sc.k
}

// NewGamma1Scope reassembles a scope from its frozen inputs (the inverse of
// SnapshotParts). The engine drives BuildSpan for sharded batch matching;
// per-query RowFor calls never touch it.
func NewGamma1Scope(e *parallel.Engine, top1 [][]kb.EntityID, adj1 [][]Edge, in2 [][]kb.EntityID, k int) *Gamma1Scope {
	return &Gamma1Scope{eng: e.Chunked(), top1: top1, adj1: adj1, in2: in2, k: k}
}
