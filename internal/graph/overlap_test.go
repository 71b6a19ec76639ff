package graph

import (
	"context"
	"reflect"
	"testing"

	"minoaner/internal/parallel"
	"minoaner/internal/testkb"
)

// Build on a multi-worker engine, whose β and γ row passes run in parallel,
// must reproduce the one-worker result exactly: same β rows, same E2-side γ
// rows, same deferred E1-side rows out of the scope. The CI race step runs
// this under -race at workers=2.
func TestShardedGammaOverlapDeterminism(t *testing.T) {
	w, d := testkb.Figure1()
	in := inputFor(t, seq, w, d, 2, 5, 2)
	mid := (w.Len() + 1) / 2
	shards := []parallel.Span{{Lo: 0, Hi: mid}, {Lo: mid, Hi: w.Len()}}
	ctx := context.Background()

	gRef, scopeRef, _, err := Build(ctx, seq, in, shards)
	if err != nil {
		t.Fatal(err)
	}
	refRows := make([][][]Edge, len(shards))
	for i, s := range shards {
		if refRows[i], err = scopeRef.BuildSpan(ctx, s); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{2, 4} {
		e := parallel.New(workers)
		g, scope, _, err := Build(ctx, e, in, shards)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Gamma2, gRef.Gamma2) {
			t.Fatalf("workers=%d: Gamma2 differs from sequential build", workers)
		}
		if !reflect.DeepEqual(g.Beta1, gRef.Beta1) || !reflect.DeepEqual(g.Beta2, gRef.Beta2) {
			t.Fatalf("workers=%d: β rows differ from sequential build", workers)
		}
		for i, s := range shards {
			rows, err := scope.BuildSpan(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rows, refRows[i]) {
				t.Fatalf("workers=%d: γ1 rows of shard %d differ from sequential build", workers, i)
			}
		}
	}
}
