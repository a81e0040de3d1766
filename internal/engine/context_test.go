package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"existdlog/internal/parser"
)

// divergentProgram counts forever through the succ builtin: the fixpoint
// is infinite, so only cancellation (or a limit) can end the evaluation.
const divergentProgram = `
count(X) :- zero(X).
count(Y) :- count(X), succ(X,Y).
?- count(X).
`

func divergentDB() *Database {
	db := NewDatabase()
	db.Add("zero", "0")
	return db
}

// widePassProgram derives a cube of a base relation: all the work lands in
// very few passes, so aborting it promptly exercises the mid-pass
// cancellation ticks rather than the pass barrier.
const widePassProgram = `
q(X,Y,Z) :- n(X), n(Y), n(Z).
?- q(X,Y,Z).
`

func widePassDB(n int) *Database {
	db := NewDatabase()
	for i := 0; i < n; i++ {
		db.Add("n", fmt.Sprint(i))
	}
	return db
}

var allStrategies = []struct {
	name string
	opt  Options
}{
	{"naive", Options{Strategy: Naive}},
	{"seminaive", Options{Strategy: SemiNaive}},
}

// TestCancelBoundedLatency is the tentpole's latency bound: cancel a
// divergent query mid-flight and the evaluator must return within 100ms,
// with ErrCanceled wrapping the cause and a non-nil partial Result, under
// every strategy, leaking no goroutines.
func TestCancelBoundedLatency(t *testing.T) {
	p, err := parser.ParseProgram(divergentProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range allStrategies {
		t.Run(s.name, func(t *testing.T) {
			defer checkNoLeakedGoroutines(t)()
			cause := errors.New("operator hit stop")
			ctx, cancel := context.WithCancelCause(context.Background())
			type outcome struct {
				res *Result
				err error
			}
			ch := make(chan outcome, 1)
			go func() {
				res, err := EvalContext(ctx, p, divergentDB(), s.opt)
				ch <- outcome{res, err}
			}()
			time.Sleep(30 * time.Millisecond) // let the fixpoint spin up
			cancel(cause)
			start := time.Now()
			var got outcome
			select {
			case got = <-ch:
			case <-time.After(2 * time.Second):
				t.Fatal("evaluation did not return after cancel")
			}
			if lat := time.Since(start); lat > 100*time.Millisecond {
				t.Fatalf("abort latency %v exceeds 100ms bound", lat)
			}
			if !errors.Is(got.err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", got.err)
			}
			if !errors.Is(got.err, cause) {
				t.Fatalf("err = %v does not wrap the cancellation cause", got.err)
			}
			if got.res == nil || !got.res.Partial || got.res.Incomplete != "canceled" {
				t.Fatalf("want partial result with reason, got %+v", got.res)
			}
		})
	}
}

// TestCancelMidPass aborts a single enormous pass (a cube join), which
// only the mid-pass tick can interrupt. The deadline fires while the pass
// is running; the evaluation must still return promptly.
func TestCancelMidPass(t *testing.T) {
	p, err := parser.ParseProgram(widePassProgram)
	if err != nil {
		t.Fatal(err)
	}
	db := widePassDB(200) // 8M derivations in ~one pass
	for _, s := range allStrategies {
		t.Run(s.name, func(t *testing.T) {
			defer checkNoLeakedGoroutines(t)()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			start := time.Now()
			res, err := EvalContext(ctx, p, db, s.opt)
			elapsed := time.Since(start)
			if err == nil {
				t.Skip("machine evaluated the cube inside the deadline")
			}
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("err = %v, want ErrDeadline", err)
			}
			if elapsed > 500*time.Millisecond {
				t.Fatalf("mid-pass abort took %v", elapsed)
			}
			if res == nil || !res.Partial || res.Incomplete != "deadline exceeded" {
				t.Fatalf("want partial result with deadline reason, got %+v", res)
			}
		})
	}
}

// TestPartialResultIsSoundSubset pins the graceful-degradation contract on
// a finite workload: whatever an aborted evaluation returns is a subset of
// the true fixpoint, and Stats exactly describe the partial database.
func TestPartialResultIsSoundSubset(t *testing.T) {
	src := `
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), e(Y,Z).
?- t(X,Y).
`
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for i := 0; i < 160; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	full, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullRel, _ := full.DB.Lookup("t")
	base := db.TotalFacts()

	for _, s := range allStrategies {
		for _, timeout := range []time.Duration{time.Nanosecond, 500 * time.Microsecond, 5 * time.Millisecond} {
			t.Run(fmt.Sprintf("%s/%v", s.name, timeout), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				res, err := EvalContext(ctx, p, db, s.opt)
				if err == nil {
					return // finished inside the deadline; nothing partial to check
				}
				if !errors.Is(err, ErrDeadline) {
					t.Fatalf("err = %v, want ErrDeadline", err)
				}
				if res == nil || !res.Partial {
					t.Fatalf("want partial result, got %+v", res)
				}
				rel, ok := res.DB.Lookup("t")
				if ok {
					for _, tuple := range rel.Tuples() {
						row := res.RowStrings(tuple)
						want := make(Tuple, len(row))
						sound := true
						for i, name := range row {
							id, ok := full.DB.Syms.Lookup(name)
							if !ok {
								sound = false
								break
							}
							want[i] = id
						}
						if !sound || !fullRel.Contains(want) {
							t.Fatalf("partial fact t%v is not in the true fixpoint", row)
						}
					}
				}
				if got := res.DB.TotalFacts() - base; got != res.Stats.FactsDerived {
					t.Fatalf("Stats.FactsDerived = %d but partial DB holds %d derived facts",
						res.Stats.FactsDerived, got)
				}
			})
		}
	}
}

// TestPreCanceledContext: a context canceled before the call returns
// immediately with the partial (here: empty) result and no work done.
func TestPreCanceledContext(t *testing.T) {
	p, err := parser.ParseProgram(divergentProgram)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := EvalContext(ctx, p, divergentDB(), Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("want partial result, got %+v", res)
	}
	if res.Stats.FactsDerived != 0 {
		t.Fatalf("pre-canceled evaluation derived %d facts", res.Stats.FactsDerived)
	}
}

// TestNilContextMeansBackground: nil is accepted and cannot cancel.
func TestNilContextMeansBackground(t *testing.T) {
	p, err := parser.ParseProgram(`p(X) :- e(X,X). ?- p(X).`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.Add("e", "a", "a")
	res, err := EvalContext(nil, p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Incomplete != "" {
		t.Fatalf("complete run flagged partial: %+v", res)
	}
	if res.Stats.FactsDerived != 1 {
		t.Fatalf("FactsDerived = %d, want 1", res.Stats.FactsDerived)
	}
}

// TestLimitsReturnPartialResults: limit aborts carry the same partial
// contract as cancellation — non-nil Result, Partial set, reason named —
// while the sentinel identity (err == ErrFactLimit) stays intact for
// existing callers.
func TestLimitsReturnPartialResults(t *testing.T) {
	p, err := parser.ParseProgram(divergentProgram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvalContext(context.Background(), p, divergentDB(), Options{MaxFacts: 10})
	if err != ErrFactLimit {
		t.Fatalf("err = %v, want ErrFactLimit (identical sentinel)", err)
	}
	if res == nil || !res.Partial || res.Incomplete != "fact limit exceeded" {
		t.Fatalf("want partial result, got %+v", res)
	}
	if res.Stats.FactsDerived != 10 {
		t.Fatalf("FactsDerived = %d, want exactly 10", res.Stats.FactsDerived)
	}

	res, err = EvalContext(context.Background(), p, divergentDB(), Options{MaxIterations: 5})
	if err != ErrIterationLimit {
		t.Fatalf("err = %v, want ErrIterationLimit (identical sentinel)", err)
	}
	if res == nil || !res.Partial || res.Incomplete != "iteration limit exceeded" {
		t.Fatalf("want partial result, got %+v", res)
	}
}

// TestUpdateAndRetractHonorContext: the incremental entry points accept a
// context and return partial results on pre-canceled contexts.
func TestUpdateAndRetractHonorContext(t *testing.T) {
	src := `
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), e(Y,Z).
?- t(X,Y).
`
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for i := 0; i < 40; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	prev, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	added := NewDatabase()
	added.Add("e", "40", "41")
	res, err := UpdateContext(ctx, p, prev, added, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("UpdateContext err = %v, want ErrCanceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("UpdateContext: want partial result, got %+v", res)
	}

	removed := NewDatabase()
	removed.Add("e", "0", "1")
	res, err = RetractContext(ctx, p, prev, removed, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("RetractContext err = %v, want ErrCanceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("RetractContext: want partial result, got %+v", res)
	}
}
