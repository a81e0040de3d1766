package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"existdlog/internal/parser"
)

// orderedFacts decodes a relation's tuples to constant names in insertion
// order (DB.Facts sorts; here the order itself is under test — it is what
// keeps downstream output byte-identical).
func orderedFacts(res *Result, key string) [][]string {
	rel, ok := res.DB.Lookup(key)
	if !ok {
		return nil
	}
	out := make([][]string, 0, rel.Len())
	for _, t := range rel.Tuples() {
		out = append(out, res.RowStrings(t))
	}
	return out
}

// TestStrategiesAgree is the differential harness of ISSUE 1: hundreds of
// random programs (positive-recursive and stratified-negated), random
// databases, every Strategy × BooleanCut × ReorderJoins combination.
// Invariants checked:
//
//   - query answers always equal the no-cut naive reference (the cut may
//     under-compute non-query predicates but never the query);
//   - without the cut, every strategy derives exactly the reference
//     fixpoint, relation by relation, with equal FactsDerived;
//   - SemiNaive over the refcheck storage mirror is bit-identical to plain
//     SemiNaive under the same toggles: full Stats, per-relation insertion
//     order, and the complete per-rule / per-pass trace metrics (runs
//     evaluate with Trace set), not just set equality.
func TestStrategiesAgree(t *testing.T) {
	defer checkNoLeakedGoroutines(t)()
	rng := rand.New(rand.NewSource(424242))
	trials := 220
	for trial := 0; trial < trials; trial++ {
		var src string
		if trial%2 == 0 {
			src = randomProgram(rng)
		} else {
			src = randomStratifiedProgram(rng)
		}
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		db := NewDatabase()
		n := 3 + rng.Intn(5)
		for i := 0; i < 2*n; i++ {
			db.Add("e", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
			db.Add("f", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
		}

		ref, err := Eval(p, db, Options{Strategy: Naive})
		if err != nil {
			t.Fatalf("trial %d reference: %v\n%s", trial, err, src)
		}
		refAnswers := fmt.Sprint(ref.Answers(p.Query))

		for _, cut := range []bool{false, true} {
			for _, reorder := range []bool{false, true} {
				// SemiNaive result per toggle pair, kept to compare the
				// refcheck run against bit-for-bit.
				var sn *Result
				for _, strat := range []Strategy{Naive, SemiNaive} {
					opt := Options{Strategy: strat, BooleanCut: cut, ReorderJoins: reorder, Trace: true}
					res, err := Eval(p, db, opt)
					if err != nil {
						t.Fatalf("trial %d strat=%d cut=%v reorder=%v: %v\n%s",
							trial, strat, cut, reorder, err, src)
					}
					if got := fmt.Sprint(res.Answers(p.Query)); got != refAnswers {
						t.Fatalf("trial %d strat=%d cut=%v reorder=%v: answers diverge\ngot: %s\nref: %s\n%s",
							trial, strat, cut, reorder, got, refAnswers, src)
					}
					if !cut {
						// Without retirement every strategy computes the full
						// fixpoint: same relations, same number of new facts.
						if res.Stats.FactsDerived != ref.Stats.FactsDerived {
							t.Fatalf("trial %d strat=%d reorder=%v: FactsDerived %d, reference %d\n%s",
								trial, strat, reorder, res.Stats.FactsDerived, ref.Stats.FactsDerived, src)
						}
						for key := range p.Derived {
							if fmt.Sprint(res.DB.Facts(key)) != fmt.Sprint(ref.DB.Facts(key)) {
								t.Fatalf("trial %d strat=%d reorder=%v: %s diverges from reference\n%s",
									trial, strat, reorder, key, src)
							}
						}
					}
					if strat == SemiNaive {
						sn = res
					}
				}

				// Re-run SemiNaive with the
				// map-of-strings reference storage mirrored into every
				// relation (refcheck.go verifies newness, order, membership,
				// and probes operation by operation and panics on the first
				// divergence), then assert the mirror-on results are
				// bit-identical to the mirror-off ones — answers, Stats,
				// Trace, and per-relation insertion order. Every 4th trial:
				// the mirror's brute-force Match verification is quadratic.
				if trial%4 == 0 {
					func() {
						refCheckEnabled = true
						defer func() { refCheckEnabled = false }()
						opt := Options{BooleanCut: cut, ReorderJoins: reorder, Trace: true}
						res, err := Eval(p, db, opt)
						if err != nil {
							t.Fatalf("trial %d refcheck cut=%v reorder=%v: %v\n%s",
								trial, cut, reorder, err, src)
						}
						if got := fmt.Sprint(res.Answers(p.Query)); got != refAnswers {
							t.Fatalf("trial %d refcheck: answers diverge\ngot: %s\nref: %s\n%s",
								trial, got, refAnswers, src)
						}
						if res.Stats != sn.Stats {
							t.Fatalf("trial %d refcheck: stats diverge\nmirror: %+v\nplain:  %+v\n%s",
								trial, res.Stats, sn.Stats, src)
						}
						if !reflect.DeepEqual(res.Trace, sn.Trace) {
							t.Fatalf("trial %d refcheck: trace diverges\n%s", trial, src)
						}
						for key := range p.Derived {
							a, b := orderedFacts(sn, key), orderedFacts(res, key)
							if fmt.Sprint(a) != fmt.Sprint(b) {
								t.Fatalf("trial %d refcheck: %s insertion order diverges\nplain:  %v\nmirror: %v\n%s",
									trial, key, a, b, src)
							}
						}
					}()
				}
			}
		}
	}
}

// TestFactLimitExactAcrossStrategies pins down MaxFacts/ErrFactLimit
// behavior directly (previously only enforced, never tested): a limit
// equal to the fixpoint size succeeds with FactsDerived exactly at the
// limit, any smaller limit fails with ErrFactLimit — identically for
// Naive and SemiNaive. The semi-naive merge must reject the overshooting
// insert, not error after the fact.
func TestFactLimitExactAcrossStrategies(t *testing.T) {
	p := mustParse(t, tcSrc)
	db := chainDB(10)
	full, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	limit := full.Stats.FactsDerived // 55: closure of a 10-edge chain
	if limit != 55 {
		t.Fatalf("fixpoint size = %d, want 55", limit)
	}
	for _, strat := range []Strategy{Naive, SemiNaive} {
		opt := Options{Strategy: strat, MaxFacts: limit}
		res, err := Eval(p, db, opt)
		if err != nil {
			t.Fatalf("strat=%d: limit == fixpoint must succeed: %v", strat, err)
		}
		if res.Stats.FactsDerived != limit {
			t.Errorf("strat=%d: FactsDerived = %d, want exactly %d", strat, res.Stats.FactsDerived, limit)
		}
		for _, mf := range []int{limit - 1, 10, 1} {
			opt.MaxFacts = mf
			if _, err := Eval(p, db, opt); err != ErrFactLimit {
				t.Errorf("strat=%d MaxFacts=%d: err = %v, want ErrFactLimit", strat, mf, err)
			}
		}
	}
}
