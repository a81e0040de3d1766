package existdlog

// One benchmark per experiment table of EXPERIMENTS.md (see DESIGN.md §4
// for the per-experiment index). Each benchmark prints its full table once
// — the same rows `existdlog bench` produces — and then times every
// variant × workload cell as a sub-benchmark, reporting derived facts and
// duplicate hits as custom metrics.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"existdlog/internal/engine"
	"existdlog/internal/experiments"
	"existdlog/internal/harness"
)

var tableOnce sync.Map // experiment ID -> *sync.Once

func printTableOnce(b *testing.B, e *experiments.Experiment) {
	onceI, _ := tableOnce.LoadOrStore(e.ID, &sync.Once{})
	onceI.(*sync.Once).Do(func() {
		rows, err := e.Run()
		if err != nil {
			b.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(os.Stderr, "\n== %s: %s ==\nclaim: %s\n", e.ID, e.Title, e.Claim)
		harness.WriteTable(os.Stderr, rows)
		if len(e.Variants) >= 2 {
			fmt.Fprintln(os.Stderr, "speedups (first variant vs last):")
			fmt.Fprint(os.Stderr, harness.Speedup(rows, e.Variants[0].Name, e.Variants[len(e.Variants)-1].Name))
		}
	})
}

func benchExperiment(b *testing.B, ctor func() (*experiments.Experiment, error)) {
	e, err := ctor()
	if err != nil {
		b.Fatal(err)
	}
	printTableOnce(b, e)
	for _, wl := range e.Workloads {
		db := wl.Build()
		for _, v := range e.Variants {
			b.Run(wl.Name+"/"+v.Name, func(b *testing.B) {
				var stats engine.Stats
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := engine.Eval(v.Program, db, v.Opts)
					if err != nil {
						b.Fatal(err)
					}
					stats = res.Stats
				}
				b.ReportMetric(float64(stats.FactsDerived), "facts/op")
				b.ReportMetric(float64(stats.DuplicateHits), "dups/op")
			})
		}
	}
}

// E1 — Examples 1/3: projection pushing makes transitive closure unary.
func BenchmarkE1ProjectionTC(b *testing.B) { benchExperiment(b, experiments.E1) }

// E2 — Example 2: boolean subqueries and the runtime cut.
func BenchmarkE2BooleanCut(b *testing.B) { benchExperiment(b, experiments.E2) }

// E3 — Examples 5/6: rule deletion makes the query non-recursive.
func BenchmarkE3DeleteRecursion(b *testing.B) { benchExperiment(b, experiments.E3) }

// E4 — Example 7: summary-based deletion, 7 rules to 3.
func BenchmarkE4Example7(b *testing.B) { benchExperiment(b, experiments.E4) }

// E5 — Example 8: compile-time empty answer.
func BenchmarkE5Example8(b *testing.B) { benchExperiment(b, experiments.E5) }

// E6 — Example 10: Lemma 5.3 vs Lemma 5.1.
func BenchmarkE6Example10(b *testing.B) { benchExperiment(b, experiments.E6) }

// E7 — Examples 9/11: the rewrite that exposes a subsumed rule.
func BenchmarkE7Example11(b *testing.B) { benchExperiment(b, experiments.E7) }

// E8 — Example 12: invariant existential argument reduction.
func BenchmarkE8Example12(b *testing.B) { benchExperiment(b, experiments.E8) }

// E9 — magic-sets / projection composition (orthogonality).
func BenchmarkE9MagicComposition(b *testing.B) { benchExperiment(b, experiments.E9) }

// E10 — Theorem 3.3: binary chain program vs constructed monadic program.
func BenchmarkE10Monadic(b *testing.B) { benchExperiment(b, experiments.E10) }

// E11 — counting vs magic sets on bound same-generation.
func BenchmarkE11Counting(b *testing.B) { benchExperiment(b, experiments.E11) }

// E13 — pipeline ablation: each phase's contribution.
func BenchmarkE13Ablation(b *testing.B) { benchExperiment(b, experiments.E13) }

// E12 — the deletion capability matrix, timed as optimizer (compile-time)
// cost.
func BenchmarkE12CapabilityMatrix(b *testing.B) {
	onceI, _ := tableOnce.LoadOrStore("E12", &sync.Once{})
	onceI.(*sync.Once).Do(func() {
		rows, err := experiments.CapabilityMatrix()
		if err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "\n== E12: deletion capability matrix (rules remaining per test) ==\n")
		fmt.Fprint(os.Stderr, experiments.FormatCapabilityMatrix(rows))
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CapabilityMatrix(); err != nil {
			b.Fatal(err)
		}
	}
}

// Optimizer compile cost on the paper's running example.
func BenchmarkOptimizePipeline(b *testing.B) {
	prog := MustParseProgram(`
query(X) :- a(X,Y).
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- query(X).
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(prog, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// Engine micro-benchmarks: the substrate costs the experiment tables rest
// on.
func BenchmarkEngineSemiNaiveTCChain512(b *testing.B) {
	prog := MustParseProgram(`
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)
	db := NewDatabase()
	for i := 0; i < 512; i++ {
		db.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(prog, db, EvalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineNaiveTCChain128(b *testing.B) {
	prog := MustParseProgram(`
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)
	db := NewDatabase()
	for i := 0; i < 128; i++ {
		db.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(prog, db, EvalOptions{Strategy: Naive}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	src := `
query(X) :- a(X,Y).
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
b2 :- q3(U,V), q4(V).
?- query(X).
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseProgram(src); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: greedy join reordering on a badly ordered rule (engine-level
// optimization, independent of the paper's rewritings).
func BenchmarkJoinReorderAblation(b *testing.B) {
	prog := MustParseProgram(`
ans(X,W) :- big(Y,Z), sel(X,Y), big(Z,W).
?- ans(X,W).
`)
	db := NewDatabase()
	for i := 0; i < 2000; i++ {
		db.Add("big", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	db.Add("sel", "s", "3")
	for _, cfg := range []struct {
		name string
		opts EvalOptions
	}{
		{"textual-order", EvalOptions{}},
		{"reordered", EvalOptions{ReorderJoins: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Eval(prog, db, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: plain vs supplementary magic on the non-linear
// same-generation program (two derived calls share a prefix join).
func BenchmarkSupplementaryMagicAblation(b *testing.B) {
	src := `
sg(X,Y) :- up(X,U), sg(U,V), flat(V,W), sg(W,Z), dn(Z,Y).
sg(X,Y) :- flat(X,Y).
?- sg(t0a0, Y).
`
	prog := MustParseProgram(src)
	plain, err := MagicRewrite(prog)
	if err != nil {
		b.Fatal(err)
	}
	supp, err := SupplementaryMagicRewrite(prog)
	if err != nil {
		b.Fatal(err)
	}
	db := NewDatabase()
	for tw := 0; tw < 6; tw++ {
		for i := 0; i < 7; i++ {
			db.Add("up", fmt.Sprintf("t%da%d", tw, i), fmt.Sprintf("t%da%d", tw, i+1))
			db.Add("dn", fmt.Sprintf("t%db%d", tw, i+1), fmt.Sprintf("t%db%d", tw, i))
			db.Add("flat", fmt.Sprintf("t%da%d", tw, i), fmt.Sprintf("t%db%d", tw, i))
		}
		db.Add("flat", fmt.Sprintf("t%da7", tw), fmt.Sprintf("t%db7", tw))
	}
	for _, cfg := range []struct {
		name string
		p    *Program
	}{
		{"plain-magic", plain},
		{"supplementary", supp},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Eval(cfg.p, db, EvalOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Exact regular-equivalence decision cost (Lemma 4.1's decidable
// fragment).
func BenchmarkRegularEquivalence(b *testing.B) {
	p1 := MustParseProgram(`
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)
	p2 := MustParseProgram(`
a(X,Y) :- p(X,Z), p(Z,W), a(W,Y).
a(X,Y) :- p(X,Z), p(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := ChainQueryEquivalent(p1, p2)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// Incremental view maintenance: one added edge against recomputing the
// whole closure.
func BenchmarkIncrementalUpdate(b *testing.B) {
	prog := MustParseProgram(`
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)
	db := NewDatabase()
	for i := 0; i < 400; i++ {
		db.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	base, err := Eval(prog, db, EvalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full-reeval", func(b *testing.B) {
		db2 := db.Clone()
		db2.Add("p", "900", "901")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Eval(prog, db2, EvalOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		added := NewDatabase()
		added.Add("p", "900", "901")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Update(prog, base, added, EvalOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// DRed retraction of one edge vs recomputing the closure.
func BenchmarkIncrementalRetract(b *testing.B) {
	prog := MustParseProgram(`
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)
	db := NewDatabase()
	for i := 0; i < 400; i++ {
		db.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	db.Add("p", "900", "901")
	base, err := Eval(prog, db, EvalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	removed := NewDatabase()
	removed.Add("p", "900", "901") // disconnected edge: O(1) retraction
	b.Run("retract-disconnected", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Retract(prog, base, removed, EvalOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-reeval", func(b *testing.B) {
		db2 := db.Clone()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Eval(prog, db2, EvalOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
