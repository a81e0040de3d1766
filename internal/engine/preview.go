package engine

import (
	"existdlog/internal/ast"
	"existdlog/internal/trace"
)

// PlanPreview compiles p against edb and returns the join orders the
// runtime planner would choose for every rule's startup version (delta
// occurrence -1), with the live EDB cardinalities that justify them — the
// EXPLAIN view of the planner, without running the fixpoint. Delta
// versions are not previewed: their orders depend on delta sizes that
// only exist during evaluation (run with Options.Trace and ReorderJoins
// to see them, per pass, in Result.Trace).
func PlanPreview(p *ast.Program, edb *Database) ([]trace.VersionOrder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ev := &evaluator{
		opt:      Options{ReorderJoins: true, Trace: true},
		out:      edb.Clone(),
		derived:  p.Derived,
		arity:    make(map[string]int),
		deltas:   make(map[string]*Relation),
		next:     make(map[string]*Relation),
		queryKey: p.Query.Key(),
	}
	ev.run = runner{ev: ev}
	ev.initTrace(p)
	if err := ev.compile(p); err != nil {
		return nil, err
	}
	ev.planEpoch++
	for _, plan := range ev.plans {
		ev.recordOrder(plan, -1, ev.planVersion(plan, -1))
	}
	return ev.takeOrders(), nil
}
