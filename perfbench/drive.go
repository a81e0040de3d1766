package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"existdlog/internal/ast"
)

// requestTimeout is sent as every request's timeout_ms; a partial
// answer (the server hit it) counts as a missed deadline.
const requestTimeout = 5 * time.Second

// result is one operation as the client saw it. Times are offsets from
// the phase start: due, start (sent) and end (answered); lag is how
// late the generator sent an operation a free worker was waiting for,
// wait how long an operation waited for a free connection.
type result struct {
	kind            opKind
	due, start, end time.Duration
	lag, wait       time.Duration
	ok              bool // 200, complete, and (reads) the right answer
	wrong           bool // 200 with an answer that differs from the reference
	err             string
	elapsed         float64 // the server's own elapsed_seconds
	stats           statsJSON
	answers         int
}

// queryBody is the /query request.
type queryBody struct {
	Goal      string `json:"goal"`
	TimeoutMS int64  `json:"timeout_ms"`
}

// statsJSON mirrors the stats block of a /query response.
type statsJSON struct {
	Iterations    int   `json:"iterations"`
	FactsDerived  int   `json:"facts_derived"`
	Derivations   int64 `json:"derivations"`
	DuplicateHits int64 `json:"duplicate_hits"`
	JoinProbes    int64 `json:"join_probes"`
	RulesRetired  int   `json:"rules_retired"`
}

type queryResponse struct {
	Answers        [][]string `json:"answers"`
	Count          int        `json:"count"`
	Partial        bool       `json:"partial"`
	Stats          statsJSON  `json:"stats"`
	ElapsedSeconds float64    `json:"elapsed_seconds"`
}

// client sends operations over one keep-alive connection per worker and
// checks every answer against its reference.
type client struct {
	base  string
	refs  map[string]uint64
	goals map[string]ast.Atom
}

func (c *client) do(hc *http.Client, o op, r *result) {
	r.kind = o.kind
	var path string
	var body any
	if o.kind == opRead {
		path = "/query"
		body = queryBody{Goal: o.goal, TimeoutMS: requestTimeout.Milliseconds()}
	} else {
		path = "/" + o.kind.String()
		body = map[string]any{"facts": []string{o.fact}, "timeout_ms": requestTimeout.Milliseconds()}
	}
	payload, _ := json.Marshal(body) // strings and numbers always marshal
	ctx, cancel := context.WithTimeout(context.Background(), 2*requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		r.err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		r.err = err.Error()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.err = err.Error()
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return
	}
	if o.kind != opRead {
		r.ok = true
		return
	}
	var qr queryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		r.err = "decoding answer: " + err.Error()
		return
	}
	r.elapsed, r.stats, r.answers = qr.ElapsedSeconds, qr.Stats, qr.Count
	switch {
	case qr.Partial:
		r.err = "partial answer (deadline)"
	case digest(c.goals[o.goal], qr.Answers) != c.refs[o.goal]:
		r.wrong = true
		r.err = "answer differs from the reference for " + o.goal
	default:
		r.ok = true
	}
}

// pairs orders each write pair: a retract waits until its update has
// been answered, so acknowledged state is known exactly.
type pairs struct {
	mu   sync.Mutex
	done map[int]chan struct{}
}

func newPairs() *pairs { return &pairs{done: map[int]chan struct{}{}} }

func (p *pairs) ch(k int) chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.done[k]
	if !ok {
		c = make(chan struct{})
		p.done[k] = c
	}
	return c
}

// run sends one operation, honoring the pair order.
func (c *client) run(hc *http.Client, p *pairs, o op, r *result) {
	if o.kind == opRetract {
		<-p.ch(o.pair)
	}
	c.do(hc, o, r)
	if o.kind == opUpdate {
		close(p.ch(o.pair))
	}
}

// drive runs a phase's operations on conns workers, in order: each
// worker claims the next operation when it is free. In an open loop a
// worker that claims an operation early sleeps until it is due, and
// one that claims it late has kept it waiting for a free connection;
// latency runs from the due time, so that wait counts. In a closed loop
// every operation is due when claimed. do performs operation i on
// worker w; drive stamps the times.
func drive(ph *phase, conns int, start time.Time, do func(w, i int, r *result)) ([]result, time.Duration) {
	res := make([]result, len(ph.ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ph.ops) {
					return
				}
				r := &res[i]
				r.kind = ph.ops[i].kind
				claim := time.Since(start)
				r.due = claim
				if ph.open {
					r.due = ph.ops[i].due
					if wait := r.due - claim; wait > 0 {
						time.Sleep(wait)
					}
				}
				r.start = time.Since(start)
				if claim < r.due {
					r.lag = r.start - r.due
				} else {
					r.wait = claim - r.due
				}
				do(w, i, r)
				r.end = time.Since(start)
			}
		}(w)
	}
	wg.Wait()
	return res, time.Since(start)
}

// runPhase drives a phase against the server, one new keep-alive
// connection per worker. p orders write pairs, which may span phases
// run one after the other.
func (c *client) runPhase(ph *phase, conns int, p *pairs) ([]result, time.Duration) {
	hcs := make([]*http.Client, conns)
	for w := range hcs {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		defer tr.CloseIdleConnections()
		hcs[w] = &http.Client{Transport: tr}
	}
	return drive(ph, conns, time.Now(), func(w, i int, r *result) { c.run(hcs[w], p, ph.ops[i], r) })
}
