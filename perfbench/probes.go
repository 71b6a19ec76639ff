package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"minoaner/internal/core"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/server"
	"minoaner/internal/snapshot"
)

// probeStats holds the traced run's one-layer-at-a-time measurements.
type probeStats struct {
	tokenize, betaRow, queryFromEntity []float64 // µs
	queryReplay, queryNew              []float64 // µs
	handlerReplay, handlerNew          []float64 // µs
	decode, encode, responseBytes      []float64 // µs, µs, bytes
	encodeMS, readMS                   []float64
	resolveW1, resolveWith             []float64 // ms
}

// probe calls each layer's public functions on their own, over the
// reference substrate and the sampled query pool.
func (b *bench) probe(ctx context.Context, tr *tracer) (*probeStats, error) {
	p := &probeStats{}
	if err := b.probeQueries(ctx, tr, p); err != nil {
		return nil, err
	}
	if err := b.probeHandler(ctx, tr, p); err != nil {
		return nil, err
	}
	if err := b.probeSnapshot(tr, p); err != nil {
		return nil, err
	}
	return p, b.probeResolve(ctx, tr, p)
}

// probeQueries times the in-process query path piece by piece.
func (b *bench) probeQueries(ctx context.Context, tr *tracer, p *probeStats) error {
	sub, cfg := b.ref, core.DefaultConfig()
	tok, dict := kb.NewTokenizer(), sub.K1().TokenDict()
	qs := graph.NewQueryScratch(sub.K2().Len(), sub.Config().TopK)
	var err error
	for i := range min(probeQueries, len(b.pool.replayIDs)) {
		var q core.EntityQuery
		d := tr.timed("core.query_from_entity", func() { q = core.QueryFromEntity(b.k1, b.pool.replayIDs[i]) })
		p.queryFromEntity = append(p.queryFromEntity, us(d))
		d = tr.timed("core.query_replay", func() { _, err = core.QueryEntity(ctx, sub, q, cfg) })
		if err != nil {
			return err
		}
		p.queryReplay = append(p.queryReplay, us(d))

		nq := b.pool.newQueries[i]
		d = tr.timed("core.query_new", func() { _, err = core.QueryEntity(ctx, sub, nq, cfg) })
		if err != nil {
			return err
		}
		p.queryNew = append(p.queryNew, us(d))

		vals := make([]string, 0, len(nq.Attrs))
		for _, a := range nq.Attrs {
			vals = append(vals, a.Value)
		}
		var tids []kb.TokenID
		d = tr.timed("kb.tokenize", func() {
			for _, t := range tok.TokenSetOf(vals...) {
				if id, ok := dict.Lookup(t); ok {
					tids = append(tids, id)
				}
			}
		})
		p.tokenize = append(p.tokenize, us(d))
		d = tr.timed("graph.beta_row", func() { graph.BetaRowForTokens(sub.TokenIndex(), tids, true, qs, sub.Config().TopK) })
		p.betaRow = append(p.betaRow, us(d))
	}
	return nil
}

// probeHandler serves the sampled queries through the routed /v1 handler
// in-process (no network), and times the wire decode and encode alone.
func (b *bench) probeHandler(ctx context.Context, tr *tracer, p *probeStats) error {
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	srv := server.New(server.Options{Logger: quiet})
	if _, err := srv.Registry().AddSubstrate("p", server.LoadPairRequest{ID: "p"}, b.ref); err != nil {
		return err
	}
	h := srv.Handler()
	serve := func(kind queryKind, i int, body []byte) (time.Duration, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/pairs/p/query", bytes.NewReader(body))
		d := tr.timed("server.handler_"+kind.String(), func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process handler: status %d", rec.Code)
		}
		if !bytes.Equal(candidatesJSON(rec.Body.Bytes()), b.pool.expected[kind][i]) {
			b.fail("in-process handler: %s query %d answered different candidates", kind, i)
		}
		return d, nil
	}
	for i := range min(probeQueries, len(b.pool.replayIDs)) {
		d, err := serve(kindReplay, i, b.pool.replayBodies[i])
		if err != nil {
			return err
		}
		p.handlerReplay = append(p.handlerReplay, us(d))
		body := append([]byte(`{"uri":"urn:perfbench:new:probe",`), b.pool.newTails[i]...)
		if d, err = serve(kindNew, i, body); err != nil {
			return err
		}
		p.handlerNew = append(p.handlerNew, us(d))

		var req server.QueryRequest
		d = tr.timed("server.decode", func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err = dec.Decode(&req)
		})
		if err != nil {
			return fmt.Errorf("decode probe: %w", err)
		}
		p.decode = append(p.decode, us(d))

		cands, err := core.QueryEntity(ctx, b.ref, b.pool.newQueries[i], core.DefaultConfig())
		if err != nil {
			return err
		}
		resp := server.QueryResponse{Pair: "p", URI: req.URI, Candidates: server.Candidates(cands), ElapsedUS: 1}
		var buf bytes.Buffer
		d = tr.timed("server.encode", func() { err = json.NewEncoder(&buf).Encode(resp) })
		if err != nil {
			return err
		}
		p.encode = append(p.encode, us(d))
		p.responseBytes = append(p.responseBytes, float64(buf.Len()))
	}
	return nil
}

// probeSnapshot times the snapshot encoder into memory and the copying
// decoder over the file the traced restart pass left behind.
func (b *bench) probeSnapshot(tr *tracer, p *probeStats) error {
	var buf bytes.Buffer
	for range 3 {
		buf.Reset()
		var err error
		d := tr.timed("snapshot.encode", func() { err = snapshot.WriteSubstrate(&buf, b.ref) })
		if err != nil {
			return err
		}
		p.encodeMS = append(p.encodeMS, ms(d))
	}
	data, err := os.ReadFile(b.snapPath())
	if err != nil {
		return err
	}
	for range 3 {
		d := tr.timed("snapshot.read", func() { _, err = snapshot.ReadSubstrate(data) })
		if err != nil {
			return err
		}
		p.readMS = append(p.readMS, ms(d))
	}
	return nil
}

// probeResolve times Resolve on one worker (for the parallel speed-up) and
// ResolveWith over the prebuilt reference substrate; both must reproduce
// the run's first resolve.
func (b *bench) probeResolve(ctx context.Context, tr *tracer, p *probeStats) error {
	one := core.DefaultConfig()
	one.Workers = 1
	for range 2 {
		runtime.GC()
		var out *core.Output
		var err error
		d := tr.timed("parallel.resolve_w1", func() { out, err = core.ResolveContext(ctx, b.k1, b.k2, one) })
		b.count("probe").record(err != nil)
		if err != nil {
			return err
		}
		p.resolveW1 = append(p.resolveW1, ms(d))
		b.checkResolve(out, "resolve at Workers=1")
	}
	for range 2 {
		runtime.GC()
		var out *core.Output
		var err error
		d := tr.timed("core.resolve_with", func() { out, err = core.ResolveWith(ctx, b.ref, engineConfig()) })
		b.count("probe").record(err != nil)
		if err != nil {
			return err
		}
		p.resolveWith = append(p.resolveWith, ms(d))
		b.checkResolve(out, "ResolveWith")
	}
	return nil
}
