package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"existdlog/internal/ast"
	"existdlog/internal/failpoint"
	"existdlog/internal/ierr"
	"existdlog/internal/trace"
)

// Strategy selects the fixpoint evaluation algorithm.
type Strategy int

const (
	// SemiNaive is differential evaluation: each iteration joins the
	// previous iteration's new facts (the delta) against the full
	// relations, one rule version per derived body occurrence. Rule
	// versions read the relation state frozen at the start of the pass and
	// their derivations are merged at the end of the pass, in rule order.
	SemiNaive Strategy = iota
	// Naive re-evaluates every rule against the full relations each
	// iteration. Kept for cross-checking the semi-naive implementation.
	Naive
)

// Options configures an evaluation.
type Options struct {
	Strategy Strategy
	// BooleanCut enables the runtime optimization of Section 3.1: a rule
	// defining a boolean (arity-0) predicate is removed from the fixpoint
	// once the predicate holds, and rules that fed only retired rules are
	// retired in cascade ("if q4 does not appear anywhere else in the
	// program, the rule defining it can also be discarded after B2 is
	// shown true"). With the cut enabled, non-query derived relations may
	// legitimately be under-computed; query answers are unaffected. Cut
	// decisions are taken only at pass barriers, never mid-pass, against
	// the relation state the whole pass merged.
	BooleanCut bool
	// MaxIterations bounds the fixpoint (default 1<<20).
	MaxIterations int
	// MaxFacts bounds the number of derived facts (0 = unlimited); the
	// guard matters for programs using the arithmetic builtins. The limit
	// is exact: the insert that would exceed it is rejected, so
	// Stats.FactsDerived never overshoots MaxFacts.
	MaxFacts int
	// TrackProvenance records one justification per derived fact so that
	// derivation trees (Section 1.1 of the paper) can be reconstructed.
	TrackProvenance bool
	// ReorderJoins evaluates each rule's body in a greedy bound-first
	// order (starting from the delta literal in semi-naive versions)
	// instead of the textual order. The order is replanned at every pass
	// barrier from the live relation and delta cardinalities, bound slots
	// are propagated through the chosen prefix to precompute each probe's
	// bound-column index signature, and versions whose body provably joins
	// empty (a positive relation or delta with zero live tuples) are
	// skipped before the pass runs. Answers are unaffected; join probe
	// counts usually drop on badly ordered rules.
	ReorderJoins bool
	// Trace collects per-rule and per-pass evaluation metrics into
	// Result.Trace: firings, emitted tuples, duplicates, join probes,
	// delta sizes, and boolean-cut events. Mid-pass counters accumulate in
	// the runner's shard, drained only at pass barriers, so the metrics
	// are deterministic. Disabled (the default), the evaluation hot path
	// performs no extra allocations — only nil checks.
	Trace bool
	// PassTimes additionally records, in Result.PassTimes, the wall-clock
	// offset (from evaluation start, real monotonic clock) at which each
	// pass barrier completed — one entry per pass, aligned with
	// Trace.Passes when Trace is also set. Request tracing uses this to
	// graft per-pass spans into a request's span tree. Off (the default),
	// the pass barrier performs no clock reads.
	PassTimes bool
}

// ErrFactLimit is returned when MaxFacts is exceeded.
var ErrFactLimit = errors.New("engine: derived fact limit exceeded")

// ErrIterationLimit is returned when MaxIterations is exceeded.
var ErrIterationLimit = errors.New("engine: iteration limit exceeded")

// ErrCanceled is returned (wrapped around the context cause) when the
// evaluation context is canceled mid-fixpoint.
var ErrCanceled = errors.New("engine: evaluation canceled")

// ErrDeadline is returned (wrapped around the context cause) when the
// evaluation context's deadline expires mid-fixpoint.
var ErrDeadline = errors.New("engine: evaluation deadline exceeded")

// Failpoint names compiled into the engine (active only under the
// failpoint build tag; see internal/failpoint). The catalog is documented
// in DESIGN.md §7.
const (
	// FPPass fires at every pass barrier, before the pass runs.
	FPPass = "engine/pass"
	// FPMerge fires at the merge barrier, before buffered emissions land.
	FPMerge = "engine/merge"
	// FPInsert fires on every derived-fact insert during a merge.
	FPInsert = "engine/insert"
	// FPWorker fires inside rule-version evaluation, before each rule
	// version runs — the place to inject evaluation panics and mid-pass
	// delays.
	FPWorker = "engine/worker"
)

// ctxCheckInterval is how many units of mid-pass work (join probes and
// merge inserts) may elapse between cancellation checks. Small enough that
// aborts land well within the documented 100ms bound on real workloads,
// large enough that the per-probe cost is one predictable branch.
const ctxCheckInterval = 1024

// Stats are the evaluation counters reported by the benchmarks. The paper
// argues arity reduction cuts both the facts produced and the duplicate
// elimination cost, so both are counted explicitly. The counters are
// deterministic for every strategy.
type Stats struct {
	Iterations    int   // fixpoint passes
	FactsDerived  int   // distinct new facts added to derived relations
	Derivations   int64 // head tuples produced, including duplicates
	DuplicateHits int64 // derivations rejected by duplicate elimination
	JoinProbes    int64 // index probes performed during joins
	RulesRetired  int   // rules removed at runtime by the boolean cut
}

// FactRef identifies a fact for provenance.
type FactRef struct {
	Key string
	Row Tuple
}

// Justification records how a fact was first derived: the rule index in the
// evaluated program and the body facts used.
type Justification struct {
	Rule int
	Body []FactRef
}

// Result is the outcome of an evaluation.
type Result struct {
	// DB extends the input EDB with the derived relations. The input
	// database is never mutated.
	DB    *Database
	Stats Stats
	// Partial reports that the evaluation stopped before reaching the
	// fixpoint — canceled, past a deadline, over a limit, or aborted by an
	// injected fault. Every fact in DB is still soundly derived (the
	// partial database is a subset of the full fixpoint for cut-free runs),
	// and Stats exactly describe DB, but answers may be missing.
	Partial bool
	// Incomplete names why a Partial result stopped early: "canceled",
	// "deadline exceeded", "fact limit exceeded", "iteration limit
	// exceeded", or the abort error's message.
	Incomplete string
	// Trace holds the per-rule/per-pass metrics of a run with
	// Options.Trace set (nil otherwise). On partial runs the per-rule
	// counters still partition Stats exactly.
	Trace *trace.Metrics
	// PassTimes, under Options.PassTimes, holds the wall-clock offset
	// from evaluation start at which each pass barrier completed
	// (monotonically increasing; pass i ran in the interval
	// [PassTimes[i-1], PassTimes[i]], with PassTimes[-1] taken as 0).
	PassTimes []time.Duration
	prov      map[string]*provSet
}

// builtinKind enumerates the arithmetic/comparison builtins available to
// rewritten programs (the counting rewrite needs succ). A predicate name is
// treated as a builtin only if it is neither derived nor present in the
// EDB.
type builtinKind int

const (
	notBuiltin  builtinKind = iota
	builtinSucc             // succ(X,Y): Y = X+1, X must be bound
	builtinLt               // lt(X,Y): numeric <, both bound
	builtinNeq              // neq(X,Y): distinct constants, both bound
)

type argRef struct {
	isConst bool
	constID int32
	slot    int
}

type literalPlan struct {
	key     string
	args    []argRef
	derived bool
	negated bool
	builtin builtinKind
	// occ is this literal's index among the rule's positive derived
	// occurrences (negated literals always read the finished relation of a
	// lower stratum, never a delta).
	occ int
}

type rulePlan struct {
	idx     int // index in the program's rule list
	headKey string
	head    []argRef
	body    []literalPlan
	// nDeltas counts the body literals that can act as the delta in a
	// semi-naive version: positive derived literals always, and positive
	// base literals for incremental updates (their deltas are only
	// populated by Update, so ordinary runs skip those versions).
	nDeltas  int
	slots    int
	boolHead bool
	stratum  int
	// vplans caches the greedy join plan per delta occurrence (-1 for
	// the naive/startup version) for one pass epoch; planEpoch records
	// which. The evaluator bumps its epoch at every pass barrier, so
	// stale entries are recomputed from live cardinalities.
	vplans    map[int]*versionPlan
	planEpoch uint64
}

// versionPlan is one rule version's join plan for one pass epoch,
// computed at the pass barrier from live relation and delta sizes.
type versionPlan struct {
	// order[k] is the body literal evaluated at step k.
	order []int
	// boundCols[k] lists the argument positions of order[k] that are
	// bound (a constant, or a slot bound by an earlier step) when the
	// literal is probed — the bound-column index signature its Match
	// calls will use.
	boundCols [][]int
	// sizes[k] is the live cardinality the planner saw for order[k]: the
	// delta size for the delta literal, the full relation size otherwise,
	// 1 for builtins.
	sizes []int
	// empty marks a version that provably derives nothing this pass:
	// some positive non-builtin literal reads a relation (or delta) with
	// zero live tuples. Negated literals never count — negation over an
	// empty relation succeeds.
	empty bool
}

// version identifies one semi-naive rule version: a rule plan and the body
// occurrence reading the delta (-1 for naive/startup versions). A pass is a
// list of versions; the list order is the merge order.
type version struct {
	pi  int
	occ int
}

// emitBuf buffers one rule version's head derivations awaiting the merge
// barrier, as one flat head-width-strided []int32 (head i occupies
// heads[i*w:(i+1)*w]) — a version emitting thousands of heads costs a few
// amortized slice growths, not an allocation per derivation. n counts
// emissions explicitly because zero-arity heads contribute no int32s.
// justs is populated (parallel to emissions) only under TrackProvenance.
type emitBuf struct {
	heads []int32
	w     int
	n     int
	justs [][]FactRef
}

type evaluator struct {
	opt Options
	// ctx bounds the evaluation; done caches ctx.Done() and is nil for
	// non-cancelable contexts, reducing every cancellation check to one
	// nil comparison on the hot path.
	ctx     context.Context
	done    <-chan struct{}
	out     *Database
	plans   []*rulePlan
	active  []bool
	derived map[string]bool
	arity   map[string]int
	deltas  map[string]*Relation
	next    map[string]*Relation
	stats   Stats
	prov    map[string]*provSet
	// run holds the join recursion's scratch state, shared by every
	// evaluation path (passes, naive iterations, Update, Retract).
	run       runner
	baseFacts int
	queryKey  string
	maxStrat  int
	// planEpoch distinguishes pass barriers for the join planner: it is
	// bumped at the start of every pass, invalidating each rulePlan's
	// cached versionPlans so orders are recomputed from live sizes.
	planEpoch uint64
	// passOrders accumulates the planner's per-version order records for
	// the pass being traced; tracedPass (and updatePass) attach them to
	// the pass record and reset the slice.
	passOrders []trace.VersionOrder
	// tc collects the per-rule/per-pass metrics of Options.Trace; nil when
	// tracing is disabled, which reduces every instrumentation site to one
	// nil comparison.
	tc *trace.Collector
	// passClock anchors Options.PassTimes offsets; zero when disabled,
	// reducing every barrier to one IsZero check. passTimes accumulates
	// the per-barrier completion offsets.
	passClock time.Time
	passTimes []time.Duration
}

// runner is the join recursion's evaluation state: its scratch buffers
// plus the trace shard and cancellation budget it counts down.
type runner struct {
	ev        *evaluator
	slotVals  []int32
	slotBound []bool
	bodyFacts []FactRef
	colsBuf   [][]int
	valsBuf   []Tuple
	newlyBuf  [][]int
	// headBuf is the emission-site scratch tuple: every emit callback
	// either copies it (arena insert, buffered append) or reads it before
	// returning, so one buffer serves every emission of a rule version.
	headBuf Tuple
	// shard holds the mid-pass per-rule trace counters (firings, join
	// probes); nil when tracing is disabled. It is drained into the
	// collector only at pass barriers.
	shard *trace.Shard
	// budget counts down mid-pass work units to the next cancellation
	// check (see ctxCheckInterval).
	budget int
}

// tick is the mid-pass cancellation point: called once per join probe and
// per merge insert, it checks the context every ctxCheckInterval units so
// an abort lands with bounded latency even inside one enormous pass.
func (r *runner) tick() error {
	if r.ev.done == nil {
		return nil
	}
	r.budget--
	if r.budget > 0 {
		return nil
	}
	r.budget = ctxCheckInterval
	return r.ev.checkCtx()
}

// checkCtx is the pass-barrier cancellation point. It returns nil while
// the context is live and ErrCanceled/ErrDeadline wrapped around the
// context cause once it is not.
func (ev *evaluator) checkCtx() error {
	if ev.done == nil {
		return nil
	}
	select {
	case <-ev.done:
		return ev.ctxErr()
	default:
		return nil
	}
}

func (ev *evaluator) ctxErr() error {
	err := ev.ctx.Err()
	if err == nil {
		return nil
	}
	sentinel := ErrCanceled
	if errors.Is(err, context.DeadlineExceeded) {
		sentinel = ErrDeadline
	}
	if cause := context.Cause(ev.ctx); cause != nil {
		return fmt.Errorf("%w: %w", sentinel, cause)
	}
	return fmt.Errorf("%w: %w", sentinel, err)
}

// incompleteReason renders an abort error as Result.Incomplete.
func incompleteReason(err error) string {
	switch {
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrDeadline):
		return "deadline exceeded"
	case errors.Is(err, ErrFactLimit):
		return "fact limit exceeded"
	case errors.Is(err, ErrIterationLimit):
		return "iteration limit exceeded"
	}
	return err.Error()
}

// finish packages the evaluator's state as a Result. Runtime aborts return
// the partial database — everything soundly derived up to the abort, with
// Stats exactly describing it — alongside the error, so callers can use
// the prefix (graceful degradation) or discard it.
func (ev *evaluator) finish(evalErr error) (*Result, error) {
	res := &Result{DB: ev.out, Stats: ev.stats, prov: ev.prov, PassTimes: ev.passTimes}
	if ev.tc != nil {
		// Final drain of the runner's shard (Update/Retract loops and
		// naive tails that did not end on a traced barrier).
		ev.tc.Merge(ev.run.shard)
		res.Trace = ev.tc.Metrics()
	}
	if evalErr != nil {
		res.Partial = true
		res.Incomplete = incompleteReason(evalErr)
	}
	return res, evalErr
}

// initTrace arms metrics collection when Options.Trace is set: one
// collector for the run plus the runner's counter shard.
// Everything tracing allocates happens here and at pass barriers; with
// Trace off ev.tc stays nil and every instrumentation site is a single
// nil comparison.
func (ev *evaluator) initTrace(p *ast.Program) {
	if !ev.opt.Trace {
		return
	}
	texts := make([]string, len(p.Rules))
	for i := range p.Rules {
		texts[i] = p.Rules[i].String()
	}
	ev.tc = trace.NewCollector(texts)
	ev.run.shard = ev.tc.NewShard()
}

// deltaSizes snapshots the current delta relation sizes, sorted by
// predicate, for a pass record.
func (ev *evaluator) deltaSizes() []trace.DeltaSize {
	if len(ev.deltas) == 0 {
		return nil
	}
	keys := make([]string, 0, len(ev.deltas))
	for k := range ev.deltas {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]trace.DeltaSize, len(keys))
	for i, k := range keys {
		out[i] = trace.DeltaSize{Predicate: k, Size: ev.deltas[k].Len()}
	}
	return out
}

// tracedPass is runPass plus the pass-barrier metrics work: the delta
// snapshot is taken before the pass runs, the pass record lands after the
// merge (aborted passes included, with whatever they added before the
// abort), and the runner's shard is drained.
func (ev *evaluator) tracedPass(vs []version, collectNext bool, stratum int) error {
	if ev.tc == nil {
		err := ev.runPass(vs, collectNext)
		ev.markPass()
		return err
	}
	deltas := ev.deltaSizes()
	before := ev.stats.FactsDerived
	err := ev.runPass(vs, collectNext)
	ev.tc.Merge(ev.run.shard)
	ev.tc.Pass(trace.PassStats{
		Pass: ev.stats.Iterations, Stratum: stratum, Versions: len(vs),
		Facts: ev.stats.FactsDerived - before, Deltas: deltas,
		Orders: ev.takeOrders(),
	})
	ev.markPass()
	return err
}

// recordOrder converts one version's join plan into the trace record
// attached to the enclosing pass: the literals in chosen order, the live
// cardinalities that justified the choice, and each step's bound-argument
// count. No-op unless tracing is on.
func (ev *evaluator) recordOrder(plan *rulePlan, occ int, vp *versionPlan) {
	if ev.tc == nil || vp == nil {
		return
	}
	vo := trace.VersionOrder{
		Rule: plan.idx, Occ: occ, Skipped: vp.empty,
		Literals: make([]string, len(vp.order)),
		Sizes:    append([]int(nil), vp.sizes...),
		Bound:    make([]int, len(vp.order)),
	}
	for k, li := range vp.order {
		lp := &plan.body[li]
		name := lp.key
		switch {
		case lp.negated:
			name = "not " + name
		case lp.builtin == notBuiltin && lp.occ >= 0 && lp.occ == occ:
			name = "~" + name // the delta occurrence
		}
		vo.Literals[k] = name
		vo.Bound[k] = len(vp.boundCols[k])
	}
	ev.passOrders = append(ev.passOrders, vo)
}

// takeOrders hands the accumulated order records to the pass being
// closed and resets the accumulator.
func (ev *evaluator) takeOrders() []trace.VersionOrder {
	o := ev.passOrders
	ev.passOrders = nil
	return o
}

// markPass records the wall-clock offset of a completed pass barrier
// under Options.PassTimes (one IsZero branch when disabled).
func (ev *evaluator) markPass() {
	if ev.passClock.IsZero() {
		return
	}
	ev.passTimes = append(ev.passTimes, time.Since(ev.passClock))
}

// Eval evaluates program p bottom-up over the extensional database edb and
// returns the derived database and statistics. The input database is not
// mutated. Facts present in edb for derived predicates are honored as
// seeds, which is what the uniform-equivalence tests of Sections 3.3-5
// require ("Input = an instance of the DB", IDB predicates included).
// Eval cannot be interrupted; use EvalContext to bound a query.
func Eval(p *ast.Program, edb *Database, opt Options) (*Result, error) {
	return EvalContext(context.Background(), p, edb, opt)
}

// EvalContext is Eval under a context: cancellation and deadline are
// checked at every pass barrier and every ctxCheckInterval units of
// mid-pass work, so an aborted query returns within a bounded latency with
// ErrCanceled or ErrDeadline (wrapped around the context cause) and a
// partial Result — the soundly derived prefix of the fixpoint, with
// Result.Partial set and Stats exactly describing the partial database.
// Limit aborts (ErrFactLimit, ErrIterationLimit) return partial results
// the same way. Internal panics are recovered into a *ierr.InternalError
// instead of crossing the API boundary.
func EvalContext(ctx context.Context, p *ast.Program, edb *Database, opt Options) (res *Result, err error) {
	defer ierr.Rescue(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 1 << 20
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ev := &evaluator{
		opt:      opt,
		ctx:      ctx,
		done:     ctx.Done(),
		out:      edb.Clone(),
		derived:  p.Derived,
		arity:    make(map[string]int),
		deltas:   make(map[string]*Relation),
		next:     make(map[string]*Relation),
		queryKey: p.Query.Key(),
	}
	ev.run = runner{ev: ev}
	ev.baseFacts = ev.out.TotalFacts()
	if opt.PassTimes {
		ev.passClock = time.Now()
	}
	if opt.TrackProvenance {
		ev.prov = make(map[string]*provSet)
	}
	ev.initTrace(p)
	if err := ev.compile(p); err != nil {
		return nil, err
	}
	var evalErr error
	if opt.Strategy == Naive {
		evalErr = ev.runNaive()
	} else {
		evalErr = ev.runSemiNaive()
	}
	return ev.finish(evalErr)
}

func builtinFor(name string, arity int) builtinKind {
	switch {
	case name == "succ" && arity == 2:
		return builtinSucc
	case name == "lt" && arity == 2:
		return builtinLt
	case name == "neq" && arity == 2:
		return builtinNeq
	}
	return notBuiltin
}

func (ev *evaluator) compile(p *ast.Program) error {
	// Record arities of every predicate and materialize derived relations
	// so that empty derived predicates exist in the output. Conflicts —
	// between two uses in the program, or between a use and the database —
	// are rejected here with the typed arity error rather than discovered
	// as a panic mid-evaluation.
	note := func(a ast.Atom) error {
		if n, ok := ev.arity[a.Key()]; ok {
			if n != a.Arity() {
				return fmt.Errorf("atom %s: %w", a, &ArityMismatchError{Key: a.Key(), Want: a.Arity(), Have: n})
			}
			return nil
		}
		if err := ev.out.CheckArity(a.Key(), a.Arity()); err != nil {
			return fmt.Errorf("atom %s: %w", a, err)
		}
		ev.arity[a.Key()] = a.Arity()
		return nil
	}
	for _, r := range p.Rules {
		if err := note(r.Head); err != nil {
			return err
		}
		for _, b := range r.Body {
			if err := note(b); err != nil {
				return err
			}
		}
	}
	if p.Query.Pred != "" {
		if err := note(p.Query); err != nil {
			return err
		}
	}
	for key := range ev.derived {
		if n, ok := ev.arity[key]; ok {
			ev.out.Relation(key, n)
		}
	}

	for i, r := range p.Rules {
		plan := &rulePlan{idx: i, headKey: r.Head.Key(), boolHead: r.Head.Arity() == 0}
		slots := make(map[string]int)
		slotOf := func(name string) int {
			if s, ok := slots[name]; ok {
				return s
			}
			s := len(slots)
			slots[name] = s
			return s
		}
		refFor := func(t ast.Term) argRef {
			if t.Kind == ast.Constant {
				return argRef{isConst: true, constID: ev.out.Syms.Intern(t.Name)}
			}
			return argRef{slot: slotOf(t.Name)}
		}
		// Positive literals first (they bind the variables), negated
		// literals moved to the end (safety guarantees their variables are
		// bound by then); relative order within each group is preserved.
		var negatedLits []literalPlan
		for _, b := range r.Body {
			lp := literalPlan{key: b.Key(), occ: -1, negated: b.Negated}
			lp.derived = ev.derived[b.Key()]
			if !lp.derived && !ev.out.Has(b.Key()) {
				lp.builtin = builtinFor(b.Pred, b.Arity())
			}
			if b.Negated && lp.builtin != notBuiltin {
				return fmt.Errorf("rule %d: negated builtin %s", i+1, b)
			}
			for _, t := range b.Args {
				lp.args = append(lp.args, refFor(t))
			}
			if b.Negated {
				negatedLits = append(negatedLits, lp)
				continue
			}
			if lp.builtin == notBuiltin {
				lp.occ = plan.nDeltas
				plan.nDeltas++
			}
			plan.body = append(plan.body, lp)
		}
		plan.body = append(plan.body, negatedLits...)
		// Head: variables must already have slots (range restriction),
		// except anonymous head variables, which evaluate to the reserved
		// constant.
		for _, t := range r.Head.Args {
			if t.Kind == ast.Variable {
				if _, ok := slots[t.Name]; !ok {
					if !t.IsAnon() {
						return fmt.Errorf("rule %d: unbound head variable %s", i+1, t.Name)
					}
					plan.head = append(plan.head, argRef{isConst: true, constID: AnonID})
					continue
				}
			}
			plan.head = append(plan.head, refFor(t))
		}
		plan.slots = len(slots)
		ev.plans = append(ev.plans, plan)
	}
	// Materialize every non-builtin body relation up front, so relation
	// lookup during a pass is read-only. Existing relations are left
	// untouched.
	for _, plan := range ev.plans {
		for i := range plan.body {
			lp := &plan.body[i]
			if lp.builtin == notBuiltin && !ev.out.Has(lp.key) {
				ev.out.Relation(lp.key, len(lp.args))
			}
		}
	}
	ev.active = make([]bool, len(ev.plans))
	for i := range ev.active {
		ev.active[i] = true
	}
	// Stratify for negation-as-failure; positive programs land in one
	// stratum.
	strata, err := Stratify(p)
	if err != nil {
		return err
	}
	for _, plan := range ev.plans {
		plan.stratum = strata[plan.headKey]
		if plan.stratum > ev.maxStrat {
			ev.maxStrat = plan.stratum
		}
	}
	return nil
}

// relationFor resolves the relation a literal reads during a given rule
// version: deltaOcc selects which derived occurrence reads the delta
// (-1 for none, i.e. naive or startup passes).
func (ev *evaluator) relationFor(lp *literalPlan, deltaOcc int) *Relation {
	if lp.occ >= 0 && lp.occ == deltaOcc {
		if d, ok := ev.deltas[lp.key]; ok {
			return d
		}
	}
	r, ok := ev.out.Lookup(lp.key)
	if !ok {
		// Base predicate with no facts: a shared immutable empty relation
		// of the right arity. (Unreachable after compile's materialization
		// pass; kept as a safety net for direct callers.) The fallback must
		// NOT create the relation in ev.out: a pass only reads the database
		// it is joining against.
		return emptyRelation(len(lp.args))
	}
	return r
}

// emptyRels caches the shared immutable empty relations handed out by
// relationFor's fallback, one per arity. They are only ever read (Match
// may lazily build an empty index, which Relation guards internally), so
// sharing them across evaluations and goroutines is safe.
var (
	emptyRelMu sync.Mutex
	emptyRels  = map[int]*Relation{}
)

func emptyRelation(arity int) *Relation {
	emptyRelMu.Lock()
	defer emptyRelMu.Unlock()
	r, ok := emptyRels[arity]
	if !ok {
		r = &Relation{arity: arity}
		emptyRels[arity] = r
	}
	return r
}

// planVersion returns (computing and caching if needed) the join plan for
// a rule version at the current pass epoch, or nil when reordering is
// off. Plans for a pass are computed at its barrier, before any version
// runs, and a plan's live sizes are stable for the whole pass (inserts
// happen only at merge barriers).
func (ev *evaluator) planVersion(plan *rulePlan, deltaOcc int) *versionPlan {
	if !ev.opt.ReorderJoins {
		return nil
	}
	if plan.planEpoch != ev.planEpoch {
		plan.planEpoch = ev.planEpoch
		clear(plan.vplans)
	}
	if vp, ok := plan.vplans[deltaOcc]; ok {
		return vp
	}
	vp := ev.computePlan(plan, deltaOcc)
	if plan.vplans == nil {
		plan.vplans = make(map[int]*versionPlan)
	}
	plan.vplans[deltaOcc] = vp
	return vp
}

// computePlan runs the greedy ordering for one rule version against the
// live relation state: the delta literal first (sized by the delta), then
// repeatedly the ready literal with the most bound arguments — preferring
// base relations over derived ones (their sizes are stable across
// passes), then the smaller live relation, then the textual order. Bound
// slots propagate through the chosen prefix, so each step also records
// the argument positions bound at probe time — its index signature — and
// the version is marked empty when any positive non-builtin literal reads
// a relation (or delta) with zero live tuples: its join provably derives
// nothing this pass.
func (ev *evaluator) computePlan(plan *rulePlan, deltaOcc int) *versionPlan {
	n := len(plan.body)
	vp := &versionPlan{
		order:     make([]int, 0, n),
		boundCols: make([][]int, 0, n),
		sizes:     make([]int, 0, n),
	}
	boundSlot := make([]bool, plan.slots)
	used := make([]bool, n)
	liveSize := func(lp *literalPlan) int {
		if lp.builtin != notBuiltin {
			return 1
		}
		if lp.occ >= 0 && lp.occ == deltaOcc {
			if d, ok := ev.deltas[lp.key]; ok {
				return d.Len()
			}
			return 0
		}
		if rel, ok := ev.out.Lookup(lp.key); ok {
			return rel.Len()
		}
		return 0
	}
	take := func(li, size int) {
		lp := &plan.body[li]
		used[li] = true
		var cols []int
		for i, a := range lp.args {
			if a.isConst || boundSlot[a.slot] {
				cols = append(cols, i)
			}
		}
		vp.order = append(vp.order, li)
		vp.boundCols = append(vp.boundCols, cols)
		vp.sizes = append(vp.sizes, size)
		if lp.builtin == notBuiltin && !lp.negated && size == 0 {
			vp.empty = true
		}
		if lp.negated {
			return // negation binds nothing at runtime
		}
		for _, a := range lp.args {
			if !a.isConst {
				boundSlot[a.slot] = true
			}
		}
	}
	// Semi-naive versions start from the literal reading the delta
	// (derived occurrences in ordinary runs; base occurrences under
	// incremental Update).
	if deltaOcc >= 0 {
		for li := range plan.body {
			lp := &plan.body[li]
			if lp.occ == deltaOcc {
				take(li, liveSize(lp))
				break
			}
		}
	}
	ready := func(lp *literalPlan) bool {
		if lp.negated {
			return false // negated literals run last (fallback order)
		}
		boundOf := func(i int) bool {
			a := lp.args[i]
			return a.isConst || boundSlot[a.slot]
		}
		switch lp.builtin {
		case builtinSucc:
			return boundOf(0) || boundOf(1)
		case builtinLt, builtinNeq:
			return boundOf(0) && boundOf(1)
		}
		return true
	}
	for len(vp.order) < n {
		best, bestBound, bestBase, bestSize := -1, -1, false, 0
		for li := range plan.body {
			if used[li] {
				continue
			}
			lp := &plan.body[li]
			if !ready(lp) {
				continue
			}
			boundArgs := 0
			for _, a := range lp.args {
				if a.isConst || boundSlot[a.slot] {
					boundArgs++
				}
			}
			isBase := lp.builtin == notBuiltin && !lp.derived
			size := liveSize(lp)
			// More bound arguments first; then base over derived; then the
			// smaller live relation; the ascending scan with strict
			// improvement keeps the textual order on full ties.
			better := boundArgs > bestBound
			if !better && boundArgs == bestBound {
				switch {
				case isBase != bestBase:
					better = isBase
				case size < bestSize:
					better = true
				}
			}
			if better {
				best, bestBound, bestBase, bestSize = li, boundArgs, isBase, size
			}
		}
		if best >= 0 {
			take(best, liveSize(&plan.body[best]))
			continue
		}
		// Nothing is ready: only negated literals and builtins whose
		// binding requirements are unmet remain. Force exactly one — the
		// textually first non-negated literal if any, else the textually
		// first negated one — and rerun the selection, so a builtin forced
		// here can still make a later builtin ready and negated literals
		// stay at the tail. If the forced builtin's arguments are genuinely
		// never bound, the runtime reports the binding error, and reports
		// it deterministically because this order is.
		forced := -1
		for li := range plan.body {
			if used[li] {
				continue
			}
			if !plan.body[li].negated {
				forced = li
				break
			}
			if forced < 0 {
				forced = li
			}
		}
		take(forced, liveSize(&plan.body[forced]))
	}
	return vp
}

// evalRule joins the body of plan (with the deltaOcc-th derived occurrence
// reading the delta) and feeds the head tuples to emit. It reads relations
// but never writes them; the only counter it touches is the runner's
// JoinProbes.
func (r *runner) evalRule(plan *rulePlan, deltaOcc int, emit func(Tuple, []FactRef) error) error {
	ev := r.ev
	if r.shard != nil {
		r.shard.Firings[plan.idx]++
	}
	if cap(r.slotVals) < plan.slots {
		r.slotVals = make([]int32, plan.slots)
		r.slotBound = make([]bool, plan.slots)
	}
	vals := r.slotVals[:plan.slots]
	bound := r.slotBound[:plan.slots]
	for i := range bound {
		bound[i] = false
	}
	if ev.opt.TrackProvenance {
		if cap(r.bodyFacts) < len(plan.body) {
			r.bodyFacts = make([]FactRef, len(plan.body))
		}
	}
	// Per-depth scratch for the bound-column probe and the newly bound
	// slots, reused across all tuples of a literal.
	for len(r.colsBuf) < len(plan.body) {
		r.colsBuf = append(r.colsBuf, make([]int, 0, 8))
		r.valsBuf = append(r.valsBuf, make(Tuple, 0, 8))
		r.newlyBuf = append(r.newlyBuf, make([]int, 0, 8))
	}
	vp := ev.planVersion(plan, deltaOcc)
	var rec func(step int) error
	rec = func(step int) error {
		li := step
		if vp != nil && step < len(vp.order) {
			li = vp.order[step]
		}
		if step == len(plan.body) {
			// Emission site: also a cancellation point, so rules whose last
			// literal scans a huge relation (many emissions per probe)
			// still abort promptly.
			if err := r.tick(); err != nil {
				return err
			}
			if cap(r.headBuf) < len(plan.head) {
				r.headBuf = make(Tuple, len(plan.head))
			}
			head := r.headBuf[:len(plan.head)]
			for i, a := range plan.head {
				if a.isConst {
					head[i] = a.constID
				} else {
					head[i] = vals[a.slot]
				}
			}
			var just []FactRef
			if ev.opt.TrackProvenance {
				just = append(just, r.bodyFacts[:len(plan.body)]...)
			}
			return emit(head, just)
		}
		lp := &plan.body[li]
		if lp.builtin != notBuiltin {
			return r.evalBuiltin(plan, lp, step, vals, bound, rec)
		}
		rel := ev.relationFor(lp, deltaOcc)
		var cols []int
		var cvals Tuple
		if vp != nil {
			// The planner precomputed this step's bound argument positions
			// (they depend only on the order, which binds the same slots the
			// runtime does); only the probe values vary per invocation.
			cols = vp.boundCols[step]
			cvals = r.valsBuf[step][:0]
			for _, i := range cols {
				if a := lp.args[i]; a.isConst {
					cvals = append(cvals, a.constID)
				} else {
					cvals = append(cvals, vals[a.slot])
				}
			}
			r.valsBuf[step] = cvals
		} else {
			cols = r.colsBuf[step][:0]
			cvals = r.valsBuf[step][:0]
			for i, a := range lp.args {
				if a.isConst {
					cols = append(cols, i)
					cvals = append(cvals, a.constID)
				} else if bound[a.slot] {
					cols = append(cols, i)
					cvals = append(cvals, vals[a.slot])
				}
			}
			r.colsBuf[step], r.valsBuf[step] = cols, cvals
		}
		if lp.negated {
			// Negation as failure against the finished lower-stratum
			// relation. Safety has bound every named variable; remaining
			// unbound positions are anonymous wildcards.
			r.ev.stats.JoinProbes++
			if r.shard != nil {
				r.shard.Probes[plan.idx]++
			}
			if err := r.tick(); err != nil {
				return err
			}
			matched := rel.Len() > 0
			if len(cols) > 0 {
				matched = len(rel.Match(cols, cvals)) > 0
			}
			if !matched {
				if ev.opt.TrackProvenance {
					r.bodyFacts[li] = FactRef{}
				}
				return rec(step + 1)
			}
			return nil
		}
		r.ev.stats.JoinProbes++
		if r.shard != nil {
			r.shard.Probes[plan.idx]++
		}
		if err := r.tick(); err != nil {
			return err
		}
		// An unconstrained literal scans the arena directly instead of
		// asking Match to materialize an all-rows identity slice.
		var bucket []int32
		count := rel.Len()
		if len(cols) > 0 {
			bucket = rel.Match(cols, cvals)
			count = len(bucket)
		}
		for bi := 0; bi < count; bi++ {
			ti := bi
			if bucket != nil {
				ti = int(bucket[bi])
			}
			t := rel.Tuple(ti)
			newly := r.newlyBuf[step][:0]
			ok := true
			for i, a := range lp.args {
				if a.isConst {
					continue
				}
				if bound[a.slot] {
					if vals[a.slot] != t[i] {
						ok = false
						break
					}
				} else {
					vals[a.slot] = t[i]
					bound[a.slot] = true
					newly = append(newly, a.slot)
				}
			}
			r.newlyBuf[step] = newly
			if ok {
				if ev.opt.TrackProvenance {
					r.bodyFacts[li] = FactRef{Key: lp.key, Row: t}
				}
				if err := rec(step + 1); err != nil {
					return err
				}
			}
			for _, s := range newly {
				bound[s] = false
			}
		}
		return nil
	}
	return rec(0)
}

func (r *runner) evalBuiltin(plan *rulePlan, lp *literalPlan, step int, vals []int32, bound []bool, rec func(int) error) error {
	syms := r.ev.out.Syms
	get := func(a argRef) (int32, bool) {
		if a.isConst {
			return a.constID, true
		}
		if bound[a.slot] {
			return vals[a.slot], true
		}
		return 0, false
	}
	num := func(id int32) (int, bool) {
		n, err := strconv.Atoi(syms.Name(id))
		return n, err == nil
	}
	x, xok := get(lp.args[0])
	y, yok := get(lp.args[1])
	switch lp.builtin {
	case builtinSucc:
		// succ(I,J) over the naturals: J = I+1. Either side may be bound;
		// the counting rewrite uses both directions (climbing binds I,
		// descending binds J).
		switch {
		case xok:
			n, ok := num(x)
			if !ok {
				return nil // non-numeric constant: no successor
			}
			ny := syms.Intern(strconv.Itoa(n + 1))
			if yok {
				if y == ny {
					return rec(step + 1)
				}
				return nil
			}
			a := lp.args[1]
			vals[a.slot], bound[a.slot] = ny, true
			err := rec(step + 1)
			bound[a.slot] = false
			return err
		case yok:
			n, ok := num(y)
			if !ok || n < 1 {
				return nil
			}
			nx := syms.Intern(strconv.Itoa(n - 1))
			a := lp.args[0]
			vals[a.slot], bound[a.slot] = nx, true
			err := rec(step + 1)
			bound[a.slot] = false
			return err
		default:
			return fmt.Errorf("rule %d: succ/2 requires at least one argument bound", plan.idx+1)
		}
	case builtinLt:
		if !xok || !yok {
			return fmt.Errorf("rule %d: lt/2 requires both arguments bound", plan.idx+1)
		}
		nx, ok1 := num(x)
		ny, ok2 := num(y)
		if ok1 && ok2 && nx < ny {
			return rec(step + 1)
		}
		return nil
	case builtinNeq:
		if !xok || !yok {
			return fmt.Errorf("rule %d: neq/2 requires both arguments bound", plan.idx+1)
		}
		if x != y {
			return rec(step + 1)
		}
		return nil
	}
	return fmt.Errorf("rule %d: unknown builtin", plan.idx+1)
}

// evalVersion runs one rule version to completion, buffering every head
// derivation instead of inserting it. The buffer is merged at the pass
// barrier, in version order.
func (r *runner) evalVersion(plan *rulePlan, occ int) (emitBuf, error) {
	buf := emitBuf{w: len(plan.head)}
	track := r.ev.opt.TrackProvenance
	err := r.evalRule(plan, occ, func(t Tuple, just []FactRef) error {
		buf.heads = append(buf.heads, t...)
		buf.n++
		if track {
			buf.justs = append(buf.justs, just)
		}
		return nil
	})
	if err != nil {
		return emitBuf{}, err
	}
	return buf, nil
}

// runVersion is evalVersion behind the engine's fault bulkhead: a panic
// during rule-version evaluation (a bug, or an injected FPWorker panic) is
// recovered into a stack-carrying *ierr.InternalError, so the pass fails
// like any other errored version — surfaced once, partial result kept.
func (r *runner) runVersion(plan *rulePlan, occ int) (buf emitBuf, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			buf, err = emitBuf{}, ierr.New(rec)
		}
	}()
	if err := failpoint.Inject(FPWorker); err != nil {
		return emitBuf{}, err
	}
	return r.evalVersion(plan, occ)
}

// insertDerived adds a head tuple to the full relation (and the "next"
// delta for semi-naive), maintaining counters, limits, and provenance.
func (ev *evaluator) insertDerived(plan *rulePlan, head Tuple, just []FactRef, collectNext bool) error {
	ev.stats.Derivations++
	// The per-rule counter moves in lockstep with the aggregate, BEFORE
	// the abort points below, so partial runs keep the partition invariant
	// (sum of per-rule Emitted == Stats.Derivations).
	if ev.tc != nil {
		ev.tc.Emit(plan.idx)
	}
	// Merge-side cancellation point (the merge of a huge pass can itself
	// take a while) and fault-injection site. Aborting mid-merge is sound:
	// the facts already inserted are valid consequences, and Stats count
	// exactly them.
	if err := ev.run.tick(); err != nil {
		return err
	}
	if err := failpoint.Inject(FPInsert); err != nil {
		return err
	}
	rel := ev.out.Relation(plan.headKey, len(head))
	// MaxFacts is exact: the insert that would exceed the limit is
	// rejected before it lands, so FactsDerived never overshoots — the
	// merge loop stops mid-buffer on the first over-limit fact. Duplicate
	// derivations past the limit are still counted, not errors.
	if ev.opt.MaxFacts > 0 && ev.stats.FactsDerived >= ev.opt.MaxFacts && !rel.Contains(head) {
		return ErrFactLimit
	}
	if !rel.Insert(head) {
		ev.stats.DuplicateHits++
		if ev.tc != nil {
			ev.tc.Duplicate(plan.idx)
		}
		return nil
	}
	ev.stats.FactsDerived++
	if ev.tc != nil {
		ev.tc.Fact(plan.idx)
	}
	if collectNext {
		nx, ok := ev.next[plan.headKey]
		if !ok {
			nx = NewRelation(len(head))
			ev.next[plan.headKey] = nx
		}
		nx.Insert(head)
	}
	if ev.opt.TrackProvenance {
		m, ok := ev.prov[plan.headKey]
		if !ok {
			m = newProvSet()
			ev.prov[plan.headKey] = m
		}
		kept := just[:0]
		for _, f := range just {
			if f.Key != "" {
				kept = append(kept, f)
			}
		}
		m.put(head, Justification{Rule: plan.idx, Body: kept})
	}
	return nil
}

// runPass evaluates the given rule versions against the pass's frozen
// relation state, buffering every derivation, then merges the buffers in
// (rule, occurrence, emission) order. Relations mutate only during the
// merge, so every version of a pass reads the same state whatever the
// version order, and the boolean cut decides only on merged passes.
// collectNext routes genuinely new facts into the next delta.
func (ev *evaluator) runPass(versions []version, collectNext bool) error {
	if len(versions) == 0 {
		return nil
	}
	// Pass barrier: cancellation is always checked here, and the FPPass
	// failpoint can abort a build under test before the pass runs.
	if err := ev.checkCtx(); err != nil {
		return err
	}
	if err := failpoint.Inject(FPPass); err != nil {
		return err
	}
	// Plan barrier: bump the epoch and recompute every version's join plan
	// from the live relation and delta cardinalities (sizes are stable in
	// a pass). Versions whose plan proves the join empty are dropped here.
	ev.planEpoch++
	if ev.opt.ReorderJoins {
		kept := make([]version, 0, len(versions))
		for _, v := range versions {
			plan := ev.plans[v.pi]
			vp := ev.planVersion(plan, v.occ)
			ev.recordOrder(plan, v.occ, vp)
			if !vp.empty {
				kept = append(kept, v)
			}
		}
		versions = kept
	}
	bufs := make([]emitBuf, 0, len(versions))
	var runErr error
	for _, v := range versions {
		buf, err := ev.run.runVersion(ev.plans[v.pi], v.occ)
		if err != nil {
			runErr = err // the pass fails; later versions are moot
			break
		}
		bufs = append(bufs, buf)
	}
	// Merge barrier: versions in order, emissions in the order their
	// version produced them. A failed version aborts the evaluation after
	// the versions before it have merged, so the partial result keeps
	// everything they soundly derived.
	if err := failpoint.Inject(FPMerge); err != nil {
		return err
	}
	for vi := range bufs {
		plan := ev.plans[versions[vi].pi]
		buf := &bufs[vi]
		var just []FactRef
		for i := 0; i < buf.n; i++ {
			head := Tuple(buf.heads[i*buf.w : (i+1)*buf.w])
			if buf.justs != nil {
				just = buf.justs[i]
			}
			if err := ev.insertDerived(plan, head, just, collectNext); err != nil {
				return err
			}
		}
	}
	if runErr != nil {
		return runErr
	}
	// A cancellation that arrived during the merge is reported at the
	// latest here, keeping abort latency within one pass tail.
	return ev.checkCtx()
}

func (ev *evaluator) runNaive() error {
	for level := 0; level <= ev.maxStrat; level++ {
		if err := ev.runNaiveStratum(level); err != nil {
			return err
		}
	}
	return nil
}

func (ev *evaluator) runNaiveStratum(level int) error {
	for {
		// Naive passes have no runPass barrier, so the iteration head is
		// their cancellation point (mid-pass ticks cover the rest) and
		// their FPPass site.
		if err := ev.checkCtx(); err != nil {
			return err
		}
		if err := failpoint.Inject(FPPass); err != nil {
			return err
		}
		ev.stats.Iterations++
		if ev.stats.Iterations > ev.opt.MaxIterations {
			return ErrIterationLimit
		}
		// Naive iterations replan too, but lazily (inserts land mid-pass
		// here, so there is no frozen state to plan against up front) and
		// without empty-version skipping — naive exists as an answer-set
		// cross-check, not a bit-identical one.
		ev.planEpoch++
		before := ev.stats.FactsDerived
		versions := 0
		var evalErr error
		for pi, plan := range ev.plans {
			if !ev.active[pi] || plan.stratum != level {
				continue
			}
			versions++
			evalErr = ev.run.evalRule(plan, -1, func(t Tuple, just []FactRef) error {
				return ev.insertDerived(plan, t, just, false)
			})
			if evalErr != nil {
				break
			}
		}
		// Naive iterations are their own barriers: drain the shard and
		// record the pass (aborted iterations included) before the cut.
		if ev.tc != nil {
			ev.tc.Merge(ev.run.shard)
			ev.tc.Pass(trace.PassStats{
				Pass: ev.stats.Iterations, Stratum: level, Versions: versions,
				Facts: ev.stats.FactsDerived - before,
			})
		}
		ev.markPass()
		if evalErr != nil {
			return evalErr
		}
		ev.applyCut()
		if ev.stats.FactsDerived == before {
			return nil
		}
	}
}

func (ev *evaluator) runSemiNaive() error {
	for level := 0; level <= ev.maxStrat; level++ {
		if err := ev.runSemiNaiveStratum(level); err != nil {
			return err
		}
	}
	return nil
}

// deltaKey returns the relation key of plan's occ-th delta occurrence.
func deltaKey(plan *rulePlan, occ int) string {
	for i := range plan.body {
		if plan.body[i].occ == occ {
			return plan.body[i].key
		}
	}
	return ""
}

// runSemiNaiveStratum runs the SemiNaive fixpoint for one stratum. Every
// pass (the startup pass and each delta iteration) is a barrier: rule
// versions read the relation state frozen at the start of the pass, their
// emissions merge at the end, and boolean-cut retirement is decided only
// between passes (Section 3.1).
func (ev *evaluator) runSemiNaiveStratum(level int) error {
	// Startup pass: evaluate this stratum's rules against the full
	// relations (which contain lower strata and any derived-predicate
	// seeds); everything then in this stratum's relations becomes the
	// first delta.
	ev.stats.Iterations++
	stratumKeys := map[string]bool{}
	var startup []version
	for pi, plan := range ev.plans {
		if plan.stratum != level {
			continue
		}
		stratumKeys[plan.headKey] = true
		if !ev.active[pi] {
			continue
		}
		startup = append(startup, version{pi: pi, occ: -1})
	}
	if err := ev.tracedPass(startup, false, level); err != nil {
		return err
	}
	ev.deltas = make(map[string]*Relation)
	for key := range stratumKeys {
		if rel, ok := ev.out.Lookup(key); ok && rel.Len() > 0 {
			ev.deltas[key] = rel.Clone()
		}
	}
	ev.applyCut()

	for len(ev.deltas) > 0 {
		ev.stats.Iterations++
		if ev.stats.Iterations > ev.opt.MaxIterations {
			return ErrIterationLimit
		}
		ev.next = make(map[string]*Relation)
		var vs []version
		for pi, plan := range ev.plans {
			if !ev.active[pi] || plan.stratum != level || plan.nDeltas == 0 {
				continue
			}
			for occ := 0; occ < plan.nDeltas; occ++ {
				// Skip versions whose delta occurrence has an empty delta.
				if _, ok := ev.deltas[deltaKey(plan, occ)]; !ok {
					continue
				}
				vs = append(vs, version{pi: pi, occ: occ})
			}
		}
		if err := ev.tracedPass(vs, true, level); err != nil {
			return err
		}
		ev.deltas = ev.next
		ev.applyCut()
	}
	return nil
}

// applyCut retires boolean rules whose head already holds and cascades to
// rules that now feed nothing (Section 3.1). It is only ever called at
// pass barriers, so a rule version never sees a retirement mid-pass.
func (ev *evaluator) applyCut() {
	if !ev.opt.BooleanCut {
		return
	}
	changed := false
	for pi, plan := range ev.plans {
		if ev.active[pi] && plan.boolHead && ev.out.Count(plan.headKey) > 0 {
			ev.active[pi] = false
			ev.stats.RulesRetired++
			if ev.tc != nil {
				ev.tc.Cut(pi, ev.stats.Iterations)
			}
			changed = true
		}
	}
	if !changed {
		return
	}
	// Cascade: a predicate is needed only if it is reachable from the
	// query through the bodies of still-active rules (a recursive rule
	// must not keep its own head alive). Rules whose head is no longer
	// needed retire, which can unneed further predicates.
	for {
		needed := map[string]bool{ev.queryKey: true}
		for grew := true; grew; {
			grew = false
			for pi, plan := range ev.plans {
				if !ev.active[pi] || !needed[plan.headKey] {
					continue
				}
				for _, lp := range plan.body {
					if !needed[lp.key] {
						needed[lp.key] = true
						grew = true
					}
				}
			}
		}
		retired := false
		for pi, plan := range ev.plans {
			if ev.active[pi] && !needed[plan.headKey] {
				ev.active[pi] = false
				ev.stats.RulesRetired++
				if ev.tc != nil {
					ev.tc.Cut(pi, ev.stats.Iterations)
				}
				retired = true
			}
		}
		if !retired {
			return
		}
	}
}
