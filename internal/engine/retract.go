package engine

import (
	"context"
	"fmt"

	"existdlog/internal/ast"
	"existdlog/internal/ierr"
	"existdlog/internal/trace"
)

// Retract removes base facts from a previous evaluation result and brings
// the derived relations up to date with the delete-and-rederive (DRed)
// strategy:
//
//  1. over-delete: every derived fact with a derivation using a deleted
//     fact is marked, semi-naively, against the pre-deletion relations;
//  2. the marked facts are removed;
//  3. re-derive: marked facts with alternative derivations from the
//     surviving facts are put back, and the insertions propagate
//     semi-naively.
//
// Positive programs only (negation would need stratified DRed), and
// removed may only name base predicates. prev must come from Eval, Update
// or Retract of the same program.
func Retract(p *ast.Program, prev *Result, removed *Database, opt Options) (*Result, error) {
	return RetractContext(context.Background(), p, prev, removed, opt)
}

// RetractContext is Retract under a context, checked at every loop
// barrier. Caution on aborts: unlike EvalContext, a Result with Partial
// set here can OVER-approximate the post-retraction fixpoint — DRed may
// not have finished propagating deletions — so a partial retract result is
// diagnostic, not a sound database; callers needing soundness should
// re-evaluate from scratch.
func RetractContext(ctx context.Context, p *ast.Program, prev *Result, removed *Database, opt Options) (res *Result, err error) {
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
		return nil, fmt.Errorf("engine: incremental retraction under negation is not supported (re-evaluate)")
	}
	for _, key := range removed.Keys() {
		if p.Derived[key] {
			return nil, fmt.Errorf("engine: Retract cannot remove facts for derived predicate %s", key)
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

	// Dead sets, seeded with the removed base facts that actually exist.
	// They are Relations: the arena's verified set semantics (Insert
	// reports newness, Contains is exact under fingerprint collisions)
	// are exactly what marking needs.
	dead := map[string]*Relation{}
	markDead := func(key string, t Tuple) bool {
		m, ok := dead[key]
		if !ok {
			m = NewRelation(len(t))
			dead[key] = m
		}
		return m.Insert(t)
	}
	for _, key := range removed.Keys() {
		rel, _ := removed.Lookup(key)
		cur, ok := ev.out.Lookup(key)
		if !ok {
			continue
		}
		for _, row := range removed.Facts(key) {
			t := make(Tuple, len(row))
			miss := false
			for i, name := range row {
				id, ok := ev.out.Syms.Lookup(name)
				if !ok {
					miss = true
					break
				}
				t[i] = id
			}
			if miss || !cur.Contains(t) {
				continue
			}
			if markDead(key, t) {
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

	// Phase 1 — over-delete, semi-naively against PRE-deletion relations:
	// a head is marked if some rule instance uses a marked fact.
	for len(ev.deltas) > 0 {
		if err := ev.checkCtx(); err != nil {
			return ev.finish(err)
		}
		ev.stats.Iterations++
		if ev.stats.Iterations > ev.opt.MaxIterations {
			return ev.finish(ErrIterationLimit)
		}
		ev.next = make(map[string]*Relation)
		deltas := ev.deltaSizes()
		// Over-delete passes replan per pass like every other barrier;
		// marking joins run against the pre-deletion relations.
		ev.planEpoch++
		versions := 0
		var passErr error
	overdelete:
		for pi, plan := range ev.plans {
			if !ev.active[pi] || plan.nDeltas == 0 {
				continue
			}
			for occ := 0; occ < plan.nDeltas; occ++ {
				if _, ok := ev.deltas[deltaKey(plan, occ)]; !ok {
					continue
				}
				versions++
				passErr = ev.run.evalRule(plan, occ, func(t Tuple, _ []FactRef) error {
					ev.stats.Derivations++
					// Over-deletion derivations are attributed to their rule
					// too, so the per-rule partition of Stats.Derivations
					// survives retraction.
					if ev.tc != nil {
						ev.tc.Emit(plan.idx)
					}
					if rel, ok := ev.out.Lookup(plan.headKey); ok && rel.Contains(t) && markDead(plan.headKey, t) {
						nx, ok := ev.next[plan.headKey]
						if !ok {
							nx = NewRelation(len(t))
							ev.next[plan.headKey] = nx
						}
						nx.Insert(t)
					}
					return nil
				})
				if passErr != nil {
					break overdelete
				}
			}
		}
		if ev.tc != nil {
			ev.tc.Merge(ev.run.shard)
			ev.tc.Pass(trace.PassStats{
				Pass: ev.stats.Iterations, Stratum: 0, Versions: versions,
				Deltas: deltas,
			})
		}
		if passErr != nil {
			return ev.finish(passErr)
		}
		ev.deltas = ev.next
	}

	// Phase 2 — physically remove the marked facts (and their recorded
	// justifications).
	for key, dm := range dead {
		old, ok := ev.out.Lookup(key)
		if !ok {
			continue
		}
		fresh := NewRelation(old.Arity())
		for ti := 0; ti < old.Len(); ti++ {
			t := old.Tuple(ti)
			if !dm.Contains(t) {
				fresh.Insert(t)
			}
		}
		ev.out.Replace(key, fresh)
		if ev.prov != nil {
			if m, ok := ev.prov[key]; ok {
				for ti := 0; ti < dm.Len(); ti++ {
					m.del(dm.Tuple(ti))
				}
			}
		}
	}

	// Phase 3 — re-derive: evaluate the rules whose heads were touched,
	// keep heads that were marked dead (alternative derivations), and
	// propagate the re-insertions semi-naively.
	ev.deltas = make(map[string]*Relation)
	ev.next = make(map[string]*Relation)
	// Phase 2 physically changed the relations, so re-derivation plans
	// must not reuse phase 1's cached orders.
	ev.planEpoch++
	for pi, plan := range ev.plans {
		if !ev.active[pi] {
			continue
		}
		dm, touched := dead[plan.headKey]
		if !touched {
			continue
		}
		err := ev.run.evalRule(plan, -1, func(t Tuple, just []FactRef) error {
			if !dm.Contains(t) {
				return nil // still present; nothing to re-derive
			}
			if err := ev.insertDerived(plan, t, just, true); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			return ev.finish(err)
		}
	}
	ev.deltas = ev.next
	// The re-derivation seeding acts as this run's startup pass, so the
	// boolean cut applies at its barrier and after every propagation pass
	// below — exactly as in Eval and Update. Without it, boolean rules
	// whose heads survive the retraction were never retired, and both
	// Stats.RulesRetired and the trace's Cut events diverged from a fresh
	// Eval of the post-retraction database.
	ev.applyCut()
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
