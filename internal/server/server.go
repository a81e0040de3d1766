// Package server implements the long-running query service behind
// `existdlog serve`: a fixed program is loaded once, and HTTP clients
// evaluate goals against it.
//
//	POST /query        evaluate a goal (JSON in, JSON out)
//	POST /update       add base facts (durable when a WAL is configured)
//	POST /retract      remove base facts
//	GET  /metrics      Prometheus text exposition of the obs registry
//	GET  /healthz      liveness: 200 while the process runs
//	GET  /readyz       readiness: 503 once draining begins
//	GET  /debug/pprof  the stdlib profiler endpoints
//
// Each query pins one immutable Version of the fact store (store.go)
// with a single atomic load and is answered by one of three read paths,
// named in the response and counted on /metrics: a base or undefined
// predicate is selected from the version's base facts; a derived
// predicate is selected from the version's maintained fixpoint (Mat)
// when it has one; otherwise the goal's optimized program is evaluated
// over the base facts with Options.Trace set, and its Result drains
// into an obs.Registry, so the process-lifetime counters exactly
// partition the per-query Stats. Concurrent queries are safe without
// locking in the engine: pinned versions are frozen, the symbol table
// is internally synchronized, and optimized programs are cached
// immutably per goal — the cache survives mutations because the
// optimizer reasons from rules alone, never from facts. Writes
// serialize through the store's applier and are acknowledged only once
// durable and applied.
// Cancellation arrives through the same context plumbing the CLI uses —
// a per-request timeout, a client disconnect, or a server-wide drain
// abort all land at the engine's pass barriers and come back as a sound
// partial result; writes, by contrast, are refused while draining but
// never aborted mid-batch.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"existdlog"
	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/failpoint"
	"existdlog/internal/ierr"
	"existdlog/internal/obs"
	"existdlog/internal/parser"
	"existdlog/internal/trace"
	"existdlog/internal/tracespan"
	"existdlog/internal/wal"
)

// Config configures a Server.
type Config struct {
	// Source is the served program: rules, facts, and optionally a
	// default "?- goal." used by requests that omit their own.
	Source string
	// Name labels the program in logs (typically the file path).
	Name string
	// NoOptimize serves the program as written instead of optimizing
	// each goal's program through the paper's pipeline, and evaluates
	// every derived goal per query instead of reading the store's
	// materialized fixpoint: it is the optimizer ablation.
	NoOptimize bool
	// DefaultTimeout bounds queries that do not request a timeout
	// (0 = unbounded).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (0 = no cap).
	MaxTimeout time.Duration
	// MaxConcurrent bounds concurrently evaluating queries; excess
	// requests wait in a queue (observable as the queue-depth gauge).
	// 0 means 4.
	MaxConcurrent int
	// MaxQueue bounds each priority class's admission queue; a request
	// arriving at a full queue is rejected immediately with 429 and a
	// Retry-After hint instead of waiting. 0 means 16× MaxConcurrent.
	MaxQueue int
	// QueueTimeout bounds how long an admitted-but-queued request may
	// wait for an evaluation slot before a 503; it also sizes the
	// Retry-After hint on rejections. 0 means 1s.
	QueueTimeout time.Duration
	// ProbeEvery is the cadence of degraded-mode recovery probes
	// against the WAL (0 = the store's 500ms default).
	ProbeEvery time.Duration
	// MaxFacts bounds derived facts per query (0 = unlimited); blown
	// queries return a sound partial result instead of eating the heap.
	MaxFacts int
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
	// Registry receives the query metrics; nil creates a fresh one.
	Registry *obs.Registry
	// Now is the clock used for request timing; nil means time.Now. The
	// golden metrics test injects a stepping fake so latency histograms
	// are byte-deterministic.
	Now func() time.Time
	// WALDir enables durable writes: /update and /retract mutations are
	// fsync'd to an append-only log here (with periodic checkpoints) and
	// replayed on startup. Empty keeps mutations in memory only.
	WALDir string
	// SnapshotEvery checkpoints the store after this many logged
	// mutations (0 = never; the log grows until restart).
	SnapshotEvery int
	// FlightSize enables the flight recorder: completed request span
	// trees are kept in a lock-free ring of this many entries, served at
	// /debug/requests. 0 disables tracing entirely — the span hot path
	// becomes nil-receiver no-ops and performs zero allocations.
	FlightSize int
	// SlowQuery emits one structured log line with the full span
	// breakdown for any request at least this slow (0 = never). Only
	// effective with FlightSize > 0.
	SlowQuery time.Duration
}

// compiled is one goal's ready-to-evaluate program, cached immutably.
type compiled struct {
	prog  *ast.Program
	goal  ast.Atom
	empty bool // the optimizer proved the answer empty at compile time
}

// Server is an HTTP query service over one loaded program.
type Server struct {
	cfg   Config
	log   *slog.Logger
	reg   *obs.Registry
	now   func() time.Time
	base  *ast.Program
	store *Store
	// arity maps every predicate the served rules mention to its arity,
	// so a goal of another arity is refused before any read path runs.
	arity map[string]int

	adm   *admission
	cache sync.Map // goal key -> *compiled
	// rec is the flight recorder; nil when Config.FlightSize is 0, which
	// turns every span call in the handlers into a nil-receiver no-op.
	rec *tracespan.Recorder

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	abortCtx context.Context
	abort    context.CancelCauseFunc

	reqSeq atomic.Int64
	mux    *http.ServeMux
}

// New parses cfg.Source and returns a ready Server.
func New(cfg Config) (*Server, error) {
	prog, db, err := existdlog.Parse(cfg.Source)
	if err != nil {
		return nil, fmt.Errorf("server: parsing %s: %w", cfg.Name, err)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16 * cfg.MaxConcurrent
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = time.Second
	}
	store, err := NewStore(prog, db, StoreConfig{
		WALDir:        cfg.WALDir,
		SnapshotEvery: cfg.SnapshotEvery,
		MaxFacts:      cfg.MaxFacts,
		ReorderJoins:  true,
		Registry:      reg,
		Logger:        logger,
		Now:           now,
		ProbeEvery:    cfg.ProbeEvery,
	})
	if err != nil {
		return nil, err
	}
	abortCtx, abort := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:      cfg,
		log:      logger,
		reg:      reg,
		now:      now,
		base:     prog,
		store:    store,
		arity:    make(map[string]int),
		adm:      newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout, reg),
		abortCtx: abortCtx,
		abort:    abort,
	}
	for _, r := range prog.Rules {
		s.arity[r.Head.Key()] = len(r.Head.Args)
		for _, b := range r.Body {
			s.arity[b.Key()] = len(b.Args)
		}
	}
	if cfg.FlightSize > 0 {
		s.rec = tracespan.NewRecorder(cfg.FlightSize)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/update", s.handleMutation)
	s.mux.HandleFunc("/retract", s.handleMutation)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/requests", s.rec.ServeHTTP)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metrics registry (for the final snapshot log).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Store exposes the versioned fact store (for tests and shutdown).
func (s *Server) Store() *Store { return s.store }

// FlightRecorder exposes the recorder (nil when disabled) for tests and
// the chaos harness's no-duplicate-span assertions.
func (s *Server) FlightRecorder() *tracespan.Recorder { return s.rec }

// Close stops the store's applier and closes its log. Call after Drain:
// mutations still queued are failed, never half-applied.
func (s *Server) Close() error { return s.store.Close() }

// Info returns the served program's shape for startup logs: rule count,
// base fact count, and the program's default goal ("" if none).
func (s *Server) Info() (rules, facts int, defaultGoal string) {
	edb := s.store.Current().EDB
	for _, key := range edb.Keys() {
		facts += edb.Count(key)
	}
	goal := ""
	if s.base.Query.Pred != "" {
		goal = s.base.Query.String()
	}
	return len(s.base.Rules), facts, goal
}

// enter registers an in-flight query unless the server is draining.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// BeginDrain flips readiness: /readyz starts answering 503 and new
// queries are refused, while in-flight queries keep running.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// AbortInFlight cancels every in-flight evaluation with cause; each
// returns promptly with a sound partial result.
func (s *Server) AbortInFlight(cause error) { s.abort(cause) }

// Drain gracefully shuts the query side down: it stops admitting
// queries, waits for the in-flight ones, and — if ctx expires first —
// aborts them (they still complete, as partials) and waits again.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.AbortInFlight(fmt.Errorf("server draining: %w", context.Cause(ctx)))
		<-done
		return context.Cause(ctx)
	}
}

// parseGoal parses a request goal like "a(X,Y)" into an atom.
func parseGoal(goal string) (ast.Atom, error) {
	goal = strings.TrimSpace(goal)
	goal = strings.TrimSuffix(goal, ".")
	goal = strings.TrimPrefix(goal, "?-")
	if goal == "" {
		return ast.Atom{}, errors.New("empty goal")
	}
	res, err := parser.Parse("?- " + goal + ".")
	if err != nil {
		return ast.Atom{}, fmt.Errorf("parsing goal %q: %w", goal, err)
	}
	if len(res.Program.Rules) > 0 || len(res.Facts) > 0 {
		return ast.Atom{}, fmt.Errorf("goal %q is not a single atom", goal)
	}
	return res.Program.Query, nil
}

// goalKey canonicalizes a goal for the compiled-program cache:
// predicate, arity, constants, anonymous positions, and the variable
// repetition pattern (variables renamed by first occurrence). Two goals
// with the same key optimize to the same program and select the same
// answers, so a cached entry is interchangeable between them.
//
// Constant names are arbitrary (quoted constants may contain commas,
// colons, anything), so each variable-length field is length-prefixed:
// the encoding is prefix-free and two distinct goals can never share a
// key. A plain separator-joined encoding collided — p('x,c:y','z') and
// p('x','y,c:z') serialized identically, and one goal was served the
// other's cached program.
func goalKey(g ast.Atom) string {
	var sb strings.Builder
	pred := g.Key()
	fmt.Fprintf(&sb, "%d:%s", len(pred), pred)
	first := make(map[string]int)
	for _, t := range g.Args {
		switch {
		case t.Kind == ast.Constant:
			fmt.Fprintf(&sb, ",c%d:%s", len(t.Name), t.Name)
		case t.IsAnon():
			sb.WriteString(",_")
		default:
			i, ok := first[t.Name]
			if !ok {
				i = len(first)
				first[t.Name] = i
			}
			fmt.Fprintf(&sb, ",v%d", i)
		}
	}
	return sb.String()
}

// The read paths: where a query's answer comes from.
const (
	// pathBase selects a base or undefined predicate from the pinned
	// version's base facts.
	pathBase = "base"
	// pathMaterialized selects a derived predicate from the pinned
	// version's maintained fixpoint.
	pathMaterialized = "materialized"
	// pathEvaluated evaluates the goal's optimized program over the
	// pinned version's base facts.
	pathEvaluated = "evaluated"
)

// readPath picks where goal is answered from in version v. A derived
// goal reads the maintained fixpoint when v has one; otherwise — no
// write since start, materialization disabled by MaxFacts — it is
// evaluated per goal, as it always is under -noopt, which exists to
// measure that pipeline.
func (s *Server) readPath(goal ast.Atom, v *Version) string {
	switch {
	case !s.base.Derived[goal.Key()]:
		return pathBase
	case v.Mat != nil && !s.cfg.NoOptimize:
		return pathMaterialized
	}
	return pathEvaluated
}

// checkArity refuses a goal whose predicate the served rules use with
// another arity, in the words program validation would use.
func (s *Server) checkArity(goal ast.Atom) error {
	if n, ok := s.arity[goal.Key()]; ok && n != len(goal.Args) {
		return fmt.Errorf("query: predicate %s used with arities %d and %d", goal.Key(), n, len(goal.Args))
	}
	return nil
}

// compile returns the (possibly optimized) program for one goal, cached
// by the goal's canonical shape.
func (s *Server) compile(goal ast.Atom) (*compiled, bool, error) {
	key := goalKey(goal)
	if c, ok := s.cache.Load(key); ok {
		s.reg.CacheHit()
		return c.(*compiled), true, nil
	}
	s.reg.CacheMiss()
	prog := s.base.Clone()
	prog.Query = goal
	c := &compiled{prog: prog, goal: goal}
	// Only derived goals reach compile (readPath sends the rest to the
	// base facts); -noopt serves them as written.
	if !s.cfg.NoOptimize {
		res, err := existdlog.Optimize(prog, existdlog.DefaultOptions())
		if err != nil {
			return nil, false, err
		}
		c = &compiled{prog: res.Program, goal: res.Program.Query, empty: res.EmptyAnswer}
	}
	actual, _ := s.cache.LoadOrStore(key, c)
	return actual.(*compiled), false, nil
}

// queryRequest is the POST /query body.
type queryRequest struct {
	// Goal is the atom to evaluate, e.g. "a(X,Y)" or "a(1,Y)". Empty
	// uses the served program's own "?- goal." if it has one.
	Goal string `json:"goal"`
	// TimeoutMS bounds this query's evaluation in milliseconds
	// (capped by the server's MaxTimeout).
	TimeoutMS int64 `json:"timeout_ms"`
	// Trace includes the per-rule metrics of this evaluation in the
	// response, plus the per-pass records with the join orders the
	// runtime planner chose and the cardinalities that justified them.
	Trace bool `json:"trace"`
}

// statsJSON mirrors engine.Stats with stable JSON names.
type statsJSON struct {
	Iterations    int   `json:"iterations"`
	FactsDerived  int   `json:"facts_derived"`
	Derivations   int64 `json:"derivations"`
	DuplicateHits int64 `json:"duplicate_hits"`
	JoinProbes    int64 `json:"join_probes"`
	RulesRetired  int   `json:"rules_retired"`
}

// queryResponse is the POST /query success body. Partial results (a
// timeout, a cancellation, a fact limit) are still 200s: the answers
// are sound, Partial is set, and Incomplete names what stopped the
// evaluation.
type queryResponse struct {
	Request string `json:"request"`
	// TraceID correlates this response with the flight recorder, the
	// slow-query log, and histogram exemplars ("" when tracing is
	// disabled).
	TraceID string `json:"trace,omitempty"`
	// Seq is the store version the query pinned: the answers are exact
	// for the base facts of that version.
	Seq uint64 `json:"seq"`
	// Path names the read path that answered: "base" (a base or
	// undefined predicate, selected from the pinned base facts),
	// "materialized" (selected from the pinned version's maintained
	// fixpoint; stats are all zero) or "evaluated" (the goal's
	// optimized program evaluated over the pinned base facts).
	Path           string            `json:"path"`
	Goal           string            `json:"goal"`
	Answers        [][]string        `json:"answers"`
	Count          int               `json:"count"`
	Partial        bool              `json:"partial,omitempty"`
	Incomplete     string            `json:"incomplete,omitempty"`
	ProvedEmpty    bool              `json:"proved_empty,omitempty"`
	Cached         bool              `json:"cached"`
	Stats          statsJSON         `json:"stats"`
	ElapsedSeconds float64           `json:"elapsed_seconds"`
	Rules          []trace.RuleStats `json:"rules,omitempty"`
	// Passes, under request Trace, is the pass timeline: facts per pass,
	// delta sizes, and — with the join planner on — the per-version
	// orders chosen at each barrier with their justifying cardinalities.
	Passes []trace.PassStats `json:"passes,omitempty"`
}

type errorResponse struct {
	Request string `json:"request"`
	// TraceID correlates the failure with the flight recorder and logs
	// ("" when tracing is disabled).
	TraceID string `json:"trace,omitempty"`
	Error   string `json:"error"`
}

// beginTrace opens a span builder for one request: the trace id comes
// from the client's W3C traceparent header when present (so client
// attempt spans and server trees join up), else is freshly generated.
// With the recorder disabled this returns nil without touching the
// header or the entropy pool — the zero-allocation path.
func (s *Server) beginTrace(r *http.Request, id, verb, detail string) *tracespan.Builder {
	if s.rec == nil {
		return nil
	}
	tid, parent, ok := tracespan.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		tid = tracespan.NewTraceID()
	}
	return s.rec.Begin(tid, parent, id, verb, detail)
}

// finishTrace seals a request's trace, publishes it to the flight
// recorder, and emits the slow-query log line when the request crossed
// the configured threshold. Nil-safe (no recorder, or reject paths that
// never opened a builder).
func (s *Server) finishTrace(tb *tracespan.Builder, status int, outcome string) {
	req := tb.Finish(status, outcome)
	if req == nil || s.cfg.SlowQuery <= 0 || req.Duration < s.cfg.SlowQuery {
		return
	}
	s.log.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
		slog.String("request", req.ID),
		slog.String("trace", req.TraceID),
		slog.String("verb", req.Verb),
		slog.String("detail", req.Detail),
		slog.Int("status", req.Status),
		slog.String("outcome", req.Outcome),
		slog.Duration("elapsed", req.Duration),
		slog.Duration("staged", req.StageSum()),
		slog.Any("spans", slowSpans(req)))
}

// slowSpan is one line of the slow-query breakdown: name, self range,
// and attrs flattened to "k=v" — compact enough for a log line, rich
// enough to see where the time went without opening /debug/requests.
type slowSpan struct {
	Name     string        `json:"name"`
	Parent   int           `json:"parent"`
	Start    time.Duration `json:"start"`
	Duration time.Duration `json:"duration"`
	Attrs    string        `json:"attrs,omitempty"`
}

func slowSpans(req *tracespan.Request) []slowSpan {
	out := make([]slowSpan, len(req.Spans))
	for i := range req.Spans {
		sp := &req.Spans[i]
		var attrs strings.Builder
		for j, a := range sp.Attrs {
			if j > 0 {
				attrs.WriteByte(' ')
			}
			attrs.WriteString(a.Key)
			attrs.WriteByte('=')
			attrs.WriteString(a.Value)
		}
		out[i] = slowSpan{
			Name: sp.Name, Parent: sp.Parent,
			Start: sp.Start, Duration: sp.End - sp.Start,
			Attrs: attrs.String(),
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errStatus classifies a request-processing error: client mistakes
// (malformed goals, arity mismatches, programs the pipeline rejects)
// are 400s; recovered library panics are 500s.
func errStatus(err error) int {
	var internal *ierr.InternalError
	if errors.As(err, &internal) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// retryAfterSeconds is the Retry-After hint sent with every rejection:
// the queue timeout rounded up to whole seconds (min 1) — by then the
// backlog that caused the rejection has either drained or been shed.
func (s *Server) retryAfterSeconds() int {
	secs := int((s.cfg.QueueTimeout + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// reject refuses a request before evaluation: 429/503 plus Retry-After,
// counted under rejected_total{reason,class}, never under the query or
// mutation outcome counters — a rejected request did not reach the
// engine, and folding rejections into error outcomes would poison the
// latency and outcome metrics exactly when they matter most.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, id string, class admitClass, reason string, status int, err error, tb *tracespan.Builder) {
	s.reg.Rejected(reason, class.String())
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	s.log.LogAttrs(r.Context(), slog.LevelWarn, "request rejected",
		slog.String("request", id),
		slog.String("trace", tb.TraceID()),
		slog.String("class", class.String()),
		slog.String("reason", reason),
		slog.Int("status", status),
		slog.String("error", err.Error()))
	writeJSON(w, status, errorResponse{Request: id, TraceID: tb.TraceID(), Error: err.Error()})
	s.finishTrace(tb, status, "rejected:"+reason)
}

// rejectAdmit maps an admission error onto the wire: queue_full is 429
// (the server is out of queue capacity — back off), queue_timeout is
// 503 (we waited the bounded time and no slot freed). A shed request —
// its own deadline died while it queued — also gets a 503, but is
// counted only in shed_total (the controller already did), not in
// rejected_total.
func (s *Server) rejectAdmit(w http.ResponseWriter, r *http.Request, id string, class admitClass, err error, tb *tracespan.Builder) {
	switch {
	case errors.Is(err, errQueueFull):
		s.reject(w, r, id, class, "queue_full", http.StatusTooManyRequests, err, tb)
	case errors.Is(err, errQueueTimeout):
		s.reject(w, r, id, class, "queue_timeout", http.StatusServiceUnavailable, err, tb)
	default: // errShed
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "request shed",
			slog.String("request", id),
			slog.String("trace", tb.TraceID()),
			slog.String("class", class.String()),
			slog.String("error", err.Error()))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Request: id, TraceID: tb.TraceID(), Error: err.Error()})
		s.finishTrace(tb, http.StatusServiceUnavailable, "shed")
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	id := fmt.Sprintf("q%d", s.reqSeq.Add(1))
	tb := s.beginTrace(r, id, "query", "")
	if !s.enter() {
		s.reject(w, r, id, admitQuery, "draining", http.StatusServiceUnavailable,
			errors.New("server is draining"), tb)
		return
	}
	defer s.inflight.Done()

	start := s.now()
	fail := func(status int, err error) {
		elapsed := s.now().Sub(start)
		s.reg.ObserveError(elapsed, tb.TraceID())
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "query failed",
			slog.String("request", id),
			slog.Int("status", status),
			slog.String("error", err.Error()),
			slog.Duration("elapsed", elapsed))
		writeJSON(w, status, errorResponse{Request: id, TraceID: tb.TraceID(), Error: err.Error()})
		s.finishTrace(tb, status, "error")
	}

	// Chaos site: the failpoint-tagged suite injects handler latency
	// here to simulate slow evaluation without burning CPU.
	if err := failpoint.Inject("server/slow"); err != nil {
		fail(http.StatusInternalServerError, err)
		return
	}

	decodeSpan := tb.Start("decode")
	var req queryRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		fail(http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			fail(http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
	}

	var goal ast.Atom
	if req.Goal == "" {
		if s.base.Query.Pred == "" {
			fail(http.StatusBadRequest, errors.New("no goal in request and the served program has no ?- query"))
			return
		}
		goal = s.base.Query
	} else {
		goal, err = parseGoal(req.Goal)
		if err != nil {
			fail(http.StatusBadRequest, err)
			return
		}
	}
	tb.End(decodeSpan)
	tb.SetDetail(goal.String())
	if err := s.checkArity(goal); err != nil {
		fail(http.StatusBadRequest, err)
		return
	}

	// Pin the store version once: the base facts and the maintained
	// fixpoint that answer this query belong to one immutable version, no
	// matter how many writes install newer versions meanwhile.
	v := s.store.Current()
	path := s.readPath(goal, v)

	// Only the evaluated path runs a program, so only it compiles one.
	var c *compiled
	cached := false
	goalText := goal.String()
	if path == pathEvaluated {
		compileSpan := tb.Start("compile")
		c, cached, err = s.compile(goal)
		if err != nil {
			fail(errStatus(err), err)
			return
		}
		tb.End(compileSpan)
		if cached {
			tb.Attr(compileSpan, "cache", "hit")
		} else {
			tb.Attr(compileSpan, "cache", "miss")
		}
		goalText = c.goal.String()
		if c.empty {
			tb.Attr(compileSpan, "proved_empty", "true")
			elapsed := s.now().Sub(start)
			s.reg.ObserveQuery(engine.Stats{}, nil, elapsed, obs.OutcomeOK, tb.TraceID())
			s.reg.QueryPath(path)
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "query",
				slog.String("request", id),
				slog.String("goal", goalText),
				slog.String("path", path),
				slog.Uint64("seq", v.Seq),
				slog.Bool("proved_empty", true),
				slog.Duration("elapsed", elapsed))
			writeJSON(w, http.StatusOK, queryResponse{
				Request: id, TraceID: tb.TraceID(), Seq: v.Seq, Path: path, Goal: goalText,
				Answers: [][]string{}, ProvedEmpty: true, Cached: cached, ElapsedSeconds: elapsed.Seconds(),
			})
			s.finishTrace(tb, http.StatusOK, "ok")
			return
		}
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout == 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}

	// The evaluation context merges three cancellation sources: the
	// client hanging up (r.Context), a server-wide drain abort, and the
	// per-request deadline. The causes carry the request id, so the
	// engine's wrapped errors name the query they stopped.
	evalCtx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stop := context.AfterFunc(s.abortCtx, func() {
		cancel(context.Cause(s.abortCtx))
	})
	defer stop()
	if timeout > 0 {
		var tcancel context.CancelFunc
		evalCtx, tcancel = context.WithTimeoutCause(evalCtx, timeout,
			fmt.Errorf("request %s exceeded its %s timeout", id, timeout))
		defer tcancel()
	}

	// Bounded admission: take an evaluation slot now, wait briefly in
	// the query-class queue, or get rejected/shed. The wait is bounded
	// by both the queue timeout and the request's own deadline.
	admitSpan := tb.Start("queue")
	if aerr := s.adm.admit(evalCtx, admitQuery); aerr != nil {
		tb.End(admitSpan)
		s.rejectAdmit(w, r, id, admitQuery, aerr, tb)
		return
	}
	tb.End(admitSpan)
	defer s.adm.release()

	finish := s.reg.QueryStarted()
	defer finish()

	evalSpan := tb.Start("eval")
	tb.Attr(evalSpan, "path", path)
	if tb != nil {
		tb.Attr(evalSpan, "seq", strconv.FormatUint(v.Seq, 10))
	}
	var res *engine.Result
	var answers [][]string
	var evalErr error
	switch path {
	case pathEvaluated:
		opts := existdlog.EvalOptions{
			BooleanCut:   true,
			Trace:        true,
			MaxFacts:     s.cfg.MaxFacts,
			PassTimes:    tb != nil,
			ReorderJoins: true,
		}
		res, evalErr = existdlog.EvalContext(evalCtx, c.prog, v.EDB, opts)
		if res != nil {
			answers = res.Answers(c.goal)
		}
	case pathMaterialized:
		// Dropping anonymous positions answers exactly what the
		// goal's optimized program would, whose projections were pushed.
		answers, evalErr = v.Mat.DB.Select(goal, true)
	default:
		answers, evalErr = v.EDB.Select(goal, false)
	}
	tb.End(evalSpan)
	if res != nil {
		s.graftPassSpans(tb, evalSpan, res)
	}
	elapsed := s.now().Sub(start)
	if evalErr != nil && (res == nil || !res.Partial) {
		status := errStatus(evalErr)
		if errors.Is(evalErr, existdlog.ErrArityMismatch) {
			status = http.StatusBadRequest
		}
		fail(status, evalErr)
		return
	}

	// Only an evaluation has statistics; a selection derives nothing.
	var stats engine.Stats
	var metrics *trace.Metrics
	outcome := obs.OutcomeOK
	resp := queryResponse{
		Request:        id,
		TraceID:        tb.TraceID(),
		Seq:            v.Seq,
		Path:           path,
		Goal:           goalText,
		Answers:        answers,
		Count:          len(answers),
		Cached:         cached,
		ElapsedSeconds: elapsed.Seconds(),
	}
	if res != nil {
		stats, metrics = res.Stats, res.Trace
		if res.Partial {
			outcome = obs.OutcomePartial
		}
		resp.Partial, resp.Incomplete = res.Partial, res.Incomplete
		resp.Stats = statsJSON{
			Iterations:    stats.Iterations,
			FactsDerived:  stats.FactsDerived,
			Derivations:   stats.Derivations,
			DuplicateHits: stats.DuplicateHits,
			JoinProbes:    stats.JoinProbes,
			RulesRetired:  stats.RulesRetired,
		}
		if req.Trace && metrics != nil {
			resp.Rules = metrics.Rules
			resp.Passes = metrics.Passes
		}
	}
	s.reg.ObserveQuery(stats, metrics, elapsed, outcome, tb.TraceID())
	s.reg.QueryPath(path)

	respondSpan := tb.Start("respond")
	if resp.Answers == nil {
		resp.Answers = [][]string{}
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "query",
		slog.String("request", id),
		slog.String("goal", goalText),
		slog.String("path", path),
		slog.Uint64("seq", v.Seq),
		slog.String("outcome", string(outcome)),
		slog.Int("answers", len(answers)),
		slog.Int("facts", stats.FactsDerived),
		slog.Bool("cached", cached),
		slog.Duration("elapsed", elapsed))
	writeJSON(w, http.StatusOK, resp)
	tb.End(respondSpan)
	s.finishTrace(tb, http.StatusOK, string(outcome))
}

// graftPassSpans converts an evaluation's per-pass wall-clock offsets
// (engine.Result.PassTimes, measured from evaluation start) into child
// spans of the eval span, annotated with the pass metrics the trace
// collector recorded at the same barriers.
func (s *Server) graftPassSpans(tb *tracespan.Builder, evalSpan int, res *engine.Result) {
	if tb == nil || len(res.PassTimes) == 0 {
		return
	}
	base := tb.SpanStart(evalSpan)
	prev := time.Duration(0)
	for i, off := range res.PassTimes {
		sp := tb.Add("pass "+strconv.Itoa(i+1), evalSpan, base+prev, base+off)
		if res.Trace != nil && i < len(res.Trace.Passes) {
			ps := &res.Trace.Passes[i]
			tb.Attr(sp, "facts", strconv.Itoa(ps.Facts))
			tb.Attr(sp, "versions", strconv.Itoa(ps.Versions))
			if len(ps.Cuts) > 0 {
				tb.Attr(sp, "cuts", strconv.Itoa(len(ps.Cuts)))
			}
		}
		prev = off
	}
}

// mutationRequest is the POST /update and POST /retract body.
type mutationRequest struct {
	// Facts are ground atoms in source syntax, e.g. "e(1,2)" or
	// "edge('a,b',c)". /update adds them to the base facts, /retract
	// removes them; derived predicates are rejected.
	Facts []string `json:"facts"`
	// TimeoutMS bounds the wait for the write to become durable and
	// applied (0 = the server's default timeout).
	TimeoutMS int64 `json:"timeout_ms"`
}

// mutationResponse acknowledges a durable, applied write. Seq names the
// first store version that includes it: a subsequent query observes
// this mutation's effect.
type mutationResponse struct {
	Request        string  `json:"request"`
	TraceID        string  `json:"trace,omitempty"`
	Op             string  `json:"op"`
	Facts          int     `json:"facts"`
	Seq            uint64  `json:"seq"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// parseFacts parses the request's fact strings into WAL facts.
func parseFacts(in []string) ([]wal.Fact, error) {
	if len(in) == 0 {
		return nil, errors.New("no facts in request")
	}
	out := make([]wal.Fact, 0, len(in))
	for _, src := range in {
		src = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(src), "."))
		res, err := parser.Parse(src + ".")
		if err != nil {
			return nil, fmt.Errorf("parsing fact %q: %w", src, err)
		}
		if len(res.Facts) != 1 || len(res.Program.Rules) > 0 || res.Program.Query.Pred != "" {
			return nil, fmt.Errorf("%q is not a single ground fact", src)
		}
		atom := res.Facts[0]
		row := make([]string, len(atom.Args))
		for i, t := range atom.Args {
			if t.Kind != ast.Constant {
				return nil, fmt.Errorf("fact %q is not ground", src)
			}
			row[i] = t.Name
		}
		out = append(out, wal.Fact{Key: atom.Key(), Row: row})
	}
	return out, nil
}

// handleMutation serves POST /update and POST /retract: parse the
// facts, submit them to the store's applier, and acknowledge once the
// write is durable and an including version is installed. Mutations are
// refused while draining; one already accepted still completes — the
// applier is never aborted mid-batch, so the drain abort that cancels
// in-flight queries does not touch writes.
func (s *Server) handleMutation(w http.ResponseWriter, r *http.Request) {
	op := wal.OpUpdate
	if r.URL.Path == "/retract" {
		op = wal.OpRetract
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	id := fmt.Sprintf("m%d", s.reqSeq.Add(1))
	tb := s.beginTrace(r, id, string(op), "")
	if !s.enter() {
		s.reject(w, r, id, admitMutation, "draining", http.StatusServiceUnavailable,
			errors.New("server is draining"), tb)
		return
	}
	defer s.inflight.Done()

	// Fail fast in degraded mode: the WAL is refusing writes, so a
	// mutation cannot be made durable — reject it before it occupies
	// queue capacity that reads could use.
	if deg, cause := s.store.Degraded(); deg {
		s.reject(w, r, id, admitMutation, "degraded", http.StatusServiceUnavailable,
			fmt.Errorf("%w: %s", ErrDegraded, cause), tb)
		return
	}

	start := s.now()
	fail := func(status int, err error) {
		s.reg.ObserveMutation(string(op), false)
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "mutation failed",
			slog.String("request", id),
			slog.String("op", string(op)),
			slog.Int("status", status),
			slog.String("error", err.Error()))
		writeJSON(w, status, errorResponse{Request: id, TraceID: tb.TraceID(), Error: err.Error()})
		s.finishTrace(tb, status, "error")
	}

	decodeSpan := tb.Start("decode")
	var req mutationRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		fail(http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			fail(http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
	}
	facts, err := parseFacts(req.Facts)
	if err != nil {
		fail(http.StatusBadRequest, err)
		return
	}
	tb.End(decodeSpan)
	tb.SetDetail(strconv.Itoa(len(facts)) + " facts")

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout == 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Mutations share the slot pool with queries but queue at lower
	// priority: under contention reads keep flowing while writes wait,
	// are bounded, or are rejected for the (idempotent) client to retry.
	admitSpan := tb.Start("queue")
	if aerr := s.adm.admit(ctx, admitMutation); aerr != nil {
		tb.End(admitSpan)
		s.rejectAdmit(w, r, id, admitMutation, aerr, tb)
		return
	}
	tb.End(admitSpan)
	defer s.adm.release()

	storeSpan := tb.Start("store")
	seq, enq, timing, err := s.store.MutateTraced(ctx, Mutation{
		Op: op, Facts: facts, ID: r.Header.Get("Idempotency-Key"),
		Req: id, Trace: tb.TraceID(),
	})
	tb.End(storeSpan)
	s.graftStoreSpans(tb, storeSpan, enq, timing, seq)
	if err != nil {
		if errors.Is(err, ErrDegraded) {
			// The WAL failed under us (possibly mid-batch, after this
			// mutation was queued): nothing was applied or acked.
			s.reject(w, r, id, admitMutation, "degraded", http.StatusServiceUnavailable, err, tb)
			return
		}
		status := errStatus(err)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			status = http.StatusServiceUnavailable
		}
		fail(status, err)
		return
	}
	elapsed := s.now().Sub(start)
	s.reg.ObserveMutation(string(op), true)
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "mutation",
		slog.String("request", id),
		slog.String("op", string(op)),
		slog.Int("facts", len(facts)),
		slog.Uint64("seq", seq),
		slog.Duration("elapsed", elapsed))
	writeJSON(w, http.StatusOK, mutationResponse{
		Request:        id,
		TraceID:        tb.TraceID(),
		Op:             string(op),
		Facts:          len(facts),
		Seq:            seq,
		ElapsedSeconds: elapsed.Seconds(),
	})
	s.finishTrace(tb, http.StatusOK, "ok")
}

// graftStoreSpans converts the applier's batch timing stamps into child
// spans of the handler's "store" span: the queue-to-applier handoff,
// the batched maintenance pass, the WAL append and group-commit fsync,
// the version install (checkpoint policy included, tagged with the seq it
// installed), and the ack wait.
func (s *Server) graftStoreSpans(tb *tracespan.Builder, storeSpan int, enq time.Time, t *batchTiming, seq uint64) {
	if tb == nil || t == nil {
		return
	}
	qStart := tb.OffsetOf(enq)
	deq := tb.OffsetOf(t.dequeued)
	sp := tb.Add("applier_queue", storeSpan, qStart, deq)
	tb.Attr(sp, "batch", strconv.Itoa(t.size))
	applied := tb.OffsetOf(t.applied)
	tb.Add("maintain", storeSpan, deq, applied)
	installFrom := applied
	if !t.walDone.IsZero() {
		walDone := tb.OffsetOf(t.walDone)
		synced := tb.OffsetOf(t.synced)
		tb.Add("wal_append", storeSpan, applied, walDone)
		tb.Add("wal_fsync", storeSpan, walDone, synced)
		installFrom = synced
	}
	installed := tb.OffsetOf(t.installed)
	sp = tb.Add("install", storeSpan, installFrom, installed)
	tb.Attr(sp, "seq", strconv.FormatUint(seq, 10))
	tb.Add("ack", storeSpan, installed, tb.Offset())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "metrics scrape failed",
			slog.String("error", err.Error()))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	// Identity and uptime ride along (the liveness contract is only the
	// 200 and the first line; probes that grep "ok" are unaffected).
	b := s.reg.BuildInfo()
	fmt.Fprintf(w, "version: %s\ngo: %s\ncommit: %s\nuptime: %s\n",
		orUnknown(b.Version), orUnknown(b.GoVersion), orUnknown(b.Commit),
		s.reg.Uptime().Round(time.Second))
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	// Degraded is not-ready with a reason: orchestrators can steer
	// writes elsewhere, but /query keeps answering from the last
	// installed version, so the process stays up.
	if deg, cause := s.store.Degraded(); deg {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: %s\n", cause)
		return
	}
	fmt.Fprintln(w, "ready")
}
