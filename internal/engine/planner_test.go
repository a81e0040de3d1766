package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"existdlog/internal/parser"
	"existdlog/internal/trace"
)

// versionOrders collects every trace.VersionOrder recorded for one rule
// version across all passes, in pass order.
func versionOrders(res *Result, rule, occ int) []trace.VersionOrder {
	var out []trace.VersionOrder
	if res.Trace == nil {
		return out
	}
	for _, p := range res.Trace.Passes {
		for _, o := range p.Orders {
			if o.Rule == rule && o.Occ == occ {
				out = append(out, o)
			}
		}
	}
	return out
}

// TestReorderTieBreakPrefersBase pins the documented tie order of the
// greedy planner: bound-argument count first, then base relations over
// derived ones, then the smaller live relation, then the textual order.
// The old heuristic skipped the base-over-derived step and jumped
// straight to size, so the derived d (2 live rows) beat the base
// relation (9 rows) on a bound-count tie. Here both candidates have
// exactly one bound argument after the delta literal, so the planner
// must pick base despite its larger size.
func TestReorderTieBreakPrefersBase(t *testing.T) {
	p := mustParse(t, `
g(X,Y) :- e(X,Y).
g(X,Y) :- g(X,Z), e(Z,Y).
d(X,Y) :- seed(X,Y).
q(A,B,C) :- g(A,B), base(A,C), d(A,E).
?- q(A,B,C).
`)
	db := NewDatabase()
	for i := 0; i < 5; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	for i := 0; i < 9; i++ {
		db.Add("base", fmt.Sprint(i%5), fmt.Sprint(100+i))
	}
	db.Add("seed", "0", "s0")
	db.Add("seed", "1", "s1")
	res, err := Eval(p, db, Options{ReorderJoins: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	// Rule 3 is q; occurrence 0 is the Δg version. In every pass where it
	// was planned with both g-delta facts and the tie candidates live,
	// base (9 rows, base relation) must precede d (2 rows, derived).
	orders := versionOrders(res, 3, 0)
	if len(orders) == 0 {
		t.Fatal("no order records for the Δg version of q")
	}
	checked := 0
	for _, o := range orders {
		if len(o.Literals) != 3 || o.Literals[0] != "~g" {
			t.Fatalf("Δg version order = %v, want ~g first", o.Literals)
		}
		if o.Sizes[0] == 0 {
			continue // empty delta: skipped version, tie not exercised
		}
		if o.Literals[1] != "base" || o.Literals[2] != "d" {
			t.Fatalf("tie broken wrong: order %v sizes %v — base must beat derived d on a bound-count tie",
				o.Literals, o.Sizes)
		}
		if o.Sizes[1] != 9 || o.Sizes[2] != 2 {
			t.Fatalf("recorded sizes %v, want base=9 d=2", o.Sizes)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no pass exercised the tie (delta always empty?)")
	}
}

// TestRelationForFallbackDoesNotMutate exercises relationFor's safety
// net directly: a literal whose relation exists in neither the database
// nor the deltas must get a shared immutable empty relation of the right
// arity — and must NOT create the relation in the database the pass is
// joining against.
func TestRelationForFallbackDoesNotMutate(t *testing.T) {
	db := NewDatabase()
	db.Add("real", "a")
	ev := &evaluator{out: db, deltas: map[string]*Relation{}}
	lp := &literalPlan{key: "ghost", occ: -1, args: []argRef{{slot: 0}, {slot: 1}, {slot: 2}}}
	r := ev.relationFor(lp, -1)
	if r == nil {
		t.Fatal("fallback returned nil")
	}
	if r.Len() != 0 || r.Arity() != 3 {
		t.Fatalf("fallback relation: len=%d arity=%d, want empty arity 3", r.Len(), r.Arity())
	}
	if db.Has("ghost") {
		t.Fatal("fallback created the missing relation in the shared database")
	}
	if again := ev.relationFor(lp, -1); again != r {
		t.Error("fallback relation is not shared across calls")
	}
	// Distinct arities get distinct (still shared, still empty) relations.
	lp2 := &literalPlan{key: "ghost2", occ: -1, args: []argRef{{slot: 0}}}
	if r2 := ev.relationFor(lp2, -1); r2 == r || r2.Arity() != 1 {
		t.Errorf("arity-1 fallback: got arity %d, same pointer as arity-3: %v", r2.Arity(), r2 == r)
	}
}

// TestPlannerOrdersFlipAcrossPasses is the live-replanning proof: the
// Δg version of q ties h (static, 12 rows) against h2 (a growing
// closure) on bound arguments, so the greedy order follows whichever is
// smaller THIS pass — h2 first while |h2| < 12, h first once the
// closure outgrows it. The test requires both orders to appear across
// passes of one evaluation, and the planner-off run to give the same
// answers.
func TestPlannerOrdersFlipAcrossPasses(t *testing.T) {
	p := mustParse(t, `
g(X,Y) :- e(X,Y).
g(X,Y) :- g(X,Z), e(Z,Y).
h(X,Y) :- f(X,Y).
h2(X,Y) :- f2(X,Y).
h2(X,Z) :- h2(X,Y), f2(Y,Z).
q(B,D,E) :- g(B,C), h(C,D), h2(C,E).
?- q(B,D,E).
`)
	db := NewDatabase()
	for i := 0; i < 12; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1)) // long chain: Δg lives ~12 passes
		db.Add("f", fmt.Sprint(i), fmt.Sprint(200+i))
	}
	for i := 0; i < 8; i++ {
		db.Add("f2", fmt.Sprint(i), fmt.Sprint(i+1)) // closure grows 8,15,21,... past |h|=12
	}
	opts := Options{ReorderJoins: true, Trace: true}
	sn, err := Eval(p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	// q is rule 5; occurrence 0 is Δg. Collect the distinct (h, h2)
	// relative orders chosen across non-skipped passes.
	seen := map[string]bool{}
	for _, o := range versionOrders(sn, 5, 0) {
		if o.Skipped || o.Sizes[0] == 0 {
			continue
		}
		seen[fmt.Sprint(o.Literals)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("planner never changed the Δg order across passes: %v", seen)
	}

	// Planner-off answers are identical after the canonical Answers sort.
	off, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sn.Answers(p.Query)) != fmt.Sprint(off.Answers(p.Query)) {
		t.Fatal("planner changed the answers")
	}
}

// TestPlannerEmptyJoinSkip: a rule version whose join provably derives
// nothing this pass (some positive literal reads an empty relation) is
// skipped before any probe. The never-satisfiable rule must contribute
// zero probes with the planner on, a skipped order record in the trace,
// and unchanged answers.
func TestPlannerEmptyJoinSkip(t *testing.T) {
	p := mustParse(t, `
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
dead(X,Y) :- a(X,Y), nothing(X).
?- a(X,Y).
`)
	db := chainDB(6)
	on, err := Eval(p, db, Options{ReorderJoins: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Eval(p, db, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(on.Answers(p.Query)) != fmt.Sprint(off.Answers(p.Query)) {
		t.Fatal("empty-join skip changed the answers")
	}
	if on.DB.Count("dead") != 0 || off.DB.Count("dead") != 0 {
		t.Fatal("dead must be empty either way")
	}
	// The dead rule (index 2) must have recorded skipped plans and spent
	// zero probes; nothing() is empty in every pass.
	var skips int
	for _, o := range append(versionOrders(on, 2, -1), versionOrders(on, 2, 0)...) {
		if !o.Skipped {
			t.Fatalf("dead-rule order not marked skipped: %+v", o)
		}
		skips++
	}
	if skips == 0 {
		t.Fatal("no skip records for the dead rule")
	}
	if on.Trace != nil {
		if pr := on.Trace.Rules[2].JoinProbes; pr != 0 {
			t.Errorf("dead rule spent %d probes despite empty-join skip", pr)
		}
	}
	if on.Stats.JoinProbes >= off.Stats.JoinProbes {
		t.Errorf("planner probes %d, textual probes %d — skip should save work",
			on.Stats.JoinProbes, off.Stats.JoinProbes)
	}
}

// TestPlannerProbesMonotone evaluates every committed example program
// with the planner off and on and requires planner-on join probes to
// never exceed planner-off — the planner's whole claim is that live
// cardinalities only ever shave work. Answers must agree exactly.
func TestPlannerProbesMonotone(t *testing.T) {
	var files []string
	for _, dir := range []string{
		filepath.Join("..", "..", "cmd", "existdlog", "testdata"),
		filepath.Join("..", "..", "testdata", "corpus"),
	} {
		fs, err := filepath.Glob(filepath.Join(dir, "*.dl"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	if len(files) == 0 {
		t.Skip("no committed .dl programs found")
	}
	sort.Strings(files)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		res, err := parser.Parse(string(src))
		if err != nil {
			continue // non-program fixtures
		}
		db := NewDatabase()
		if err := db.AddAtoms(res.Facts); err != nil {
			continue
		}
		p := res.Program
		off, err := Eval(p, db, Options{})
		if err != nil {
			continue // programs that error do so under any order
		}
		on, err := Eval(p, db, Options{ReorderJoins: true})
		if err != nil {
			t.Fatalf("%s: planner-on errored where planner-off succeeded: %v", file, err)
		}
		if on.Stats.JoinProbes > off.Stats.JoinProbes {
			t.Errorf("%s: planner-on probes %d > planner-off %d",
				file, on.Stats.JoinProbes, off.Stats.JoinProbes)
		}
		for key := range p.Derived {
			if fmt.Sprint(on.DB.Facts(key)) != fmt.Sprint(off.DB.Facts(key)) {
				t.Errorf("%s: planner changed %s", file, key)
			}
		}
	}
}

// TestPlanPreviewReportsStartupOrders covers the EXPLAIN entry point:
// PlanPreview returns one startup-pass order per rule, annotated with
// the live EDB cardinalities, without running the fixpoint.
func TestPlanPreviewReportsStartupOrders(t *testing.T) {
	p := mustParse(t, `
ans(X,W) :- big(Y,Z), sel(X,Y), big(Z,W).
?- ans(X,W).
`)
	db := NewDatabase()
	for i := 0; i < 60; i++ {
		db.Add("big", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	db.Add("sel", "s", "3")
	orders, err := PlanPreview(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(orders) != 1 {
		t.Fatalf("got %d orders, want 1", len(orders))
	}
	o := orders[0]
	if o.Literals[0] != "sel" {
		t.Fatalf("startup order %v (sizes %v): the 1-row sel must come first", o.Literals, o.Sizes)
	}
	if o.Sizes[0] != 1 {
		t.Errorf("sel size annotated %d, want 1", o.Sizes[0])
	}
	// The two big probes run with a bound join column each.
	if o.Bound[1] == 0 || o.Bound[2] == 0 {
		t.Errorf("bound-column counts %v, want both big probes indexed", o.Bound)
	}
}
