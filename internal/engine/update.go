package engine

import (
	"context"
	"fmt"

	"existdlog/internal/ast"
	"existdlog/internal/ierr"
	"existdlog/internal/trace"
)

// Update extends a previous evaluation result with newly added base facts
// and brings the derived relations up to date incrementally: the
// semi-naive delta loop is seeded with just the additions, so unaffected
// parts of the fixpoint are never re-derived (view maintenance for
// monotone programs).
//
// Restrictions: added may only contain facts for base (non-derived)
// predicates, and the program must be positive — fact insertion under
// negation can retract derived facts, which requires deletion propagation
// (DRed) that this engine does not implement; Update returns an error in
// both cases, and callers should fall back to a full Eval.
//
// prev must come from an Eval (or Update) of the same program with the
// same options; provenance continuity is preserved when TrackProvenance
// was set there.
func Update(p *ast.Program, prev *Result, added *Database, opt Options) (*Result, error) {
	return UpdateContext(context.Background(), p, prev, added, opt)
}

// UpdateContext is Update under a context, with the same cancellation
// points and partial-result semantics as EvalContext: an abort returns the
// soundly maintained prefix with Result.Partial set.
func UpdateContext(ctx context.Context, p *ast.Program, prev *Result, added *Database, opt Options) (res *Result, err error) {
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
	if p.HasNegation() {
		return nil, fmt.Errorf("engine: incremental update under negation is not supported (re-evaluate)")
	}
	for _, key := range added.Keys() {
		if p.Derived[key] {
			return nil, fmt.Errorf("engine: Update cannot add facts for derived predicate %s", key)
		}
	}

	ev := &evaluator{
		opt:      opt,
		ctx:      ctx,
		done:     ctx.Done(),
		out:      prev.DB.Clone(),
		derived:  p.Derived,
		arity:    make(map[string]int),
		deltas:   make(map[string]*Relation),
		next:     make(map[string]*Relation),
		queryKey: p.Query.Key(),
	}
	ev.run = runner{ev: ev}
	if opt.TrackProvenance {
		ev.prov = make(map[string]*provSet)
		for k, m := range prev.prov {
			ev.prov[k] = m.clone()
		}
	}
	ev.initTrace(p)
	if err := ev.compile(p); err != nil {
		return nil, err
	}

	// Merge the additions, keeping only genuinely new tuples as deltas.
	for _, key := range added.Keys() {
		rel, _ := added.Lookup(key)
		for _, row := range added.Facts(key) {
			t := make(Tuple, len(row))
			for i, name := range row {
				t[i] = ev.out.Syms.Intern(name)
			}
			if ev.out.Relation(key, rel.Arity()).Insert(t) {
				d, ok := ev.deltas[key]
				if !ok {
					d = NewRelation(rel.Arity())
					ev.deltas[key] = d
				}
				d.Insert(t)
			}
		}
	}
	if len(ev.deltas) == 0 {
		return ev.finish(nil)
	}

	// Delta loop only — no startup pass: everything derivable without the
	// additions is already in prev.
	for len(ev.deltas) > 0 {
		if err := ev.checkCtx(); err != nil {
			return ev.finish(err)
		}
		ev.stats.Iterations++
		if ev.stats.Iterations > ev.opt.MaxIterations {
			return ev.finish(ErrIterationLimit)
		}
		ev.next = make(map[string]*Relation)
		if err := ev.updatePass(); err != nil {
			return ev.finish(err)
		}
		ev.deltas = ev.next
		ev.applyCut()
	}
	return ev.finish(nil)
}

// updatePass runs one incremental delta pass sequentially, recording a
// pass metrics entry when tracing (aborted passes included — the partial
// metrics must keep partitioning the partial Stats).
func (ev *evaluator) updatePass() error {
	deltas := ev.deltaSizes()
	before := ev.stats.FactsDerived
	// Incremental passes are sequential, but they replan per pass like
	// the fixpoint barriers do: live sizes (the base relation's delta
	// among them) drive the order, and provably empty versions are
	// skipped.
	ev.planEpoch++
	versions := 0
	var evalErr error
outer:
	for pi, plan := range ev.plans {
		if !ev.active[pi] || plan.nDeltas == 0 {
			continue
		}
		for occ := 0; occ < plan.nDeltas; occ++ {
			if _, ok := ev.deltas[deltaKey(plan, occ)]; !ok {
				continue
			}
			versions++
			if vp := ev.planVersion(plan, occ); vp != nil {
				ev.recordOrder(plan, occ, vp)
				if vp.empty {
					continue
				}
			}
			evalErr = ev.run.evalRule(plan, occ, func(t Tuple, just []FactRef) error {
				return ev.insertDerived(plan, t, just, true)
			})
			if evalErr != nil {
				break outer
			}
		}
	}
	if ev.tc != nil {
		ev.tc.Merge(ev.run.shard)
		ev.tc.Pass(trace.PassStats{
			Pass: ev.stats.Iterations, Stratum: 0, Versions: versions,
			Facts: ev.stats.FactsDerived - before, Deltas: deltas,
			Orders: ev.takeOrders(),
		})
	}
	return evalErr
}
