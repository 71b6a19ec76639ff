package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The open-loop generator: request i of a step is due at a fixed offset
// from the step's start, whether or not earlier requests have finished, so
// a stalled server builds a queue instead of slowing the generator down.
// Each request is timed from its due time, which charges that queue to the
// requests stuck behind the stall. At most len(conns) requests are in
// flight, one per keep-alive connection.

type queryKind uint8

const (
	kindReplay queryKind = iota // query by E1 URI
	kindNew                     // an E1 entity's statements under a fresh URI
)

func (k queryKind) String() string { return [...]string{"replay", "new"}[k] }

// dueOffset is request i's due time relative to the step start at qps
// requests per second. Integer nanoseconds keep the schedule drift-free:
// request qps is due exactly one second in.
func dueOffset(i, qps int) time.Duration {
	return time.Duration(int64(i) * int64(time.Second) / int64(qps))
}

// stepCount is how many requests fall due in [0, dur) at qps.
func stepCount(qps int, dur time.Duration) int {
	return int((int64(dur)*int64(qps) + int64(time.Second) - 1) / int64(time.Second))
}

// plannedQuery is one scheduled request: its kind and the index into that
// kind's query pool.
type plannedQuery struct {
	kind queryKind
	pool int
}

// planQueries draws the step's request sequence from rng: a replay with
// probability replayShare, otherwise a new-entity query, each on a uniform
// pool member. The same seed always yields the same sequence.
func planQueries(rng *rand.Rand, n int, replayShare float64, poolSize int) []plannedQuery {
	out := make([]plannedQuery, n)
	for i := range out {
		k := kindNew
		if rng.Float64() < replayShare {
			k = kindReplay
		}
		out[i] = plannedQuery{kind: k, pool: rng.Intn(poolSize)}
	}
	return out
}

// outcome is what the generator saw of one request.
type outcome struct {
	kind queryKind
	// lat runs from the due time to the last response byte; late from the
	// due time to the send. A failed request's lat is the request timeout,
	// so it counts as missing any latency limit.
	lat, late time.Duration
	failed    bool // non-200, transport error or timeout
	wrong     bool // 200, but the candidates differ from the expected bytes
}

// stepResult is one open-loop step at a fixed rate.
type stepResult struct {
	qps     int
	out     []outcome
	backlog int // requests due by the step's end but not yet answered then
}

// loadgen drives one pair's query endpoint.
type loadgen struct {
	url     string
	conns   []*http.Client
	timeout time.Duration
	pool    *queryPool
	seq     atomic.Int64 // fresh-URI counter for new-entity queries
}

func newLoadgen(baseURL, pairID string, conns int, timeout time.Duration, pool *queryPool) *loadgen {
	g := &loadgen{url: baseURL + "/v1/pairs/" + pairID + "/query", timeout: timeout, pool: pool}
	for range conns {
		g.conns = append(g.conns, &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

// close drops the keep-alive connections.
func (g *loadgen) close() {
	for _, c := range g.conns {
		c.CloseIdleConnections()
	}
}

// body renders the request body of q; new-entity queries get a fresh URI.
func (g *loadgen) body(q plannedQuery) []byte {
	if q.kind == kindReplay {
		return g.pool.replayBodies[q.pool]
	}
	b := make([]byte, 0, 48+len(g.pool.newTails[q.pool]))
	b = append(b, `{"uri":"urn:perfbench:new:`...)
	b = strconv.AppendInt(b, g.seq.Add(1), 10)
	b = append(b, `",`...)
	return append(b, g.pool.newTails[q.pool]...)
}

// send posts one query on client c and checks the response.
func (g *loadgen) send(ctx context.Context, c *http.Client, buf *bytes.Buffer, q plannedQuery) (failed, wrong bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url, bytes.NewReader(g.body(q)))
	if err != nil {
		return true, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return true, false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return true, false
	}
	return false, !bytes.Equal(candidatesJSON(buf.Bytes()), g.pool.expected[q.kind][q.pool])
}

// run executes one open-loop step: the planned queries, due at qps from a
// start just after the call, spread over the connections.
func (g *loadgen) run(ctx context.Context, qps int, plan []plannedQuery, tr *tracer) stepResult {
	n := len(plan)
	res := stepResult{qps: qps, out: make([]outcome, n)}
	var next, completed atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range g.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(dueOffset(i, qps))
				sleepUntil(due)
				sent := time.Now()
				sp := tr.begin("server.request", -1)
				failed, wrong := g.send(ctx, c, &buf, plan[i])
				done := time.Now()
				tr.end(sp, map[string]float64{"kind": float64(plan[i].kind), "late_us": us(sent.Sub(due))})
				o := outcome{kind: plan[i].kind, lat: done.Sub(due), late: sent.Sub(due), failed: failed, wrong: wrong}
				if failed {
					o.lat = g.timeout
				}
				res.out[i] = o
				completed.Add(1)
			}
		}()
	}
	// The backlog is read when the step's last request falls due: anything
	// unanswered then is queued work the next step would inherit.
	time.Sleep(time.Until(start.Add(dueOffset(n, qps))))
	res.backlog = n - int(completed.Load())
	wg.Wait()
	return res
}

// warm opens every connection with a few untimed requests.
func (g *loadgen) warm(ctx context.Context) error {
	var buf bytes.Buffer
	for _, c := range g.conns {
		for k := range 2 {
			if failed, _ := g.send(ctx, c, &buf, plannedQuery{kind: queryKind(k)}); failed {
				return fmt.Errorf("warm-up query failed")
			}
		}
	}
	return nil
}

// sleepUntil blocks the calling thread in nanosleep until t. time.Sleep
// wakes through the runtime's netpoller, whose timeout has millisecond
// resolution on Linux, which would add up to a millisecond of lateness to
// every request; a blocking nanosleep wakes within the kernel's timer
// slack (tens of µs) and burns no CPU the server could use.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// candidatesJSON cuts the "candidates" array out of a QueryResponse body
// without decoding it. The response's field order is fixed by the wire
// struct (pair, uri, candidates, elapsed_us), so the array is the bytes
// between the "candidates" key and the elapsed_us key.
func candidatesJSON(body []byte) []byte {
	const key, next = `"candidates":`, `,"elapsed_us":`
	i := bytes.Index(body, []byte(key))
	j := bytes.LastIndex(body, []byte(next))
	if i < 0 || j < i+len(key) {
		return nil
	}
	return body[i+len(key) : j]
}

// drain discards a response body so its connection can be reused.
func drain(r io.ReadCloser) {
	_, _ = io.Copy(io.Discard, r)
	r.Close()
}
