//go:build failpoint

package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"existdlog/internal/failpoint"
	"existdlog/internal/ierr"
	"existdlog/internal/parser"
)

// The fault suite evaluates this transitive closure over a long chain: it
// runs enough passes, versions, and inserts that every failpoint site is
// reached under every strategy.
const faultProgram = `
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), e(Y,Z).
?- t(X,Y).
`

func faultDB(n int) *Database {
	db := NewDatabase()
	for i := 0; i < n; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	return db
}

// TestInjectedErrorPerSite arms each engine failpoint in turn with a
// distinctive error and checks the evaluation contract at every site: the
// injected error surfaces (exactly that error, wrapped at most), the
// result is a sound partial, shutdown is clean, and no goroutines leak.
func TestInjectedErrorPerSite(t *testing.T) {
	p, err := parser.ParseProgram(faultProgram)
	if err != nil {
		t.Fatal(err)
	}
	db := faultDB(60)
	full, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullRel, _ := full.DB.Lookup("t")
	// Sites reached per strategy: Naive evaluates rules inline (no version
	// buffers), so only the pass barrier and the insert path exist there;
	// SemiNaive runs buffered versions and merges them at the barrier.
	sitesFor := map[Strategy][]string{
		Naive:     {FPPass, FPInsert},
		SemiNaive: {FPPass, FPMerge, FPInsert, FPWorker},
	}
	for _, s := range allStrategies {
		for _, site := range sitesFor[s.opt.Strategy] {
			t.Run(fmt.Sprintf("%s/%s", s.name, strings.TrimPrefix(site, "engine/")), func(t *testing.T) {
				defer checkNoLeakedGoroutines(t)()
				defer failpoint.Reset()
				boom := fmt.Errorf("boom at %s", site)
				// Fire on a later hit so some sound work lands first.
				failpoint.EnableError(site, boom, 3)
				res, err := EvalContext(context.Background(), p, db, s.opt)
				if failpoint.Hits(site) == 0 {
					t.Fatalf("site %s was never reached", site)
				}
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want the injected %v", err, boom)
				}
				if res == nil || !res.Partial || res.Incomplete == "" {
					t.Fatalf("want partial result, got %+v", res)
				}
				// Soundness: every partial fact is in the true fixpoint.
				if rel, ok := res.DB.Lookup("t"); ok {
					for _, tuple := range rel.Tuples() {
						row := res.RowStrings(tuple)
						want := make(Tuple, len(row))
						for i, name := range row {
							id, ok := full.DB.Syms.Lookup(name)
							if !ok {
								t.Fatalf("partial fact t%v uses unknown constant", row)
							}
							want[i] = id
						}
						if !fullRel.Contains(want) {
							t.Fatalf("partial fact t%v is not in the true fixpoint", row)
						}
					}
				}
				if got := res.DB.TotalFacts() - db.TotalFacts(); got != res.Stats.FactsDerived {
					t.Fatalf("Stats.FactsDerived = %d but partial DB holds %d derived facts",
						res.Stats.FactsDerived, got)
				}
			})
		}
	}
}

// TestErrorOnEveryHitSingleSurface floods the worker site — the error
// fires on every rule version — and pins that exactly one error comes
// back (the first in version order), with a clean drain.
func TestErrorOnEveryHitSingleSurface(t *testing.T) {
	defer checkNoLeakedGoroutines(t)()
	defer failpoint.Reset()
	p, err := parser.ParseProgram(faultProgram)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("every version fails")
	failpoint.EnableError(FPWorker, boom, 1)
	res, err := EvalContext(context.Background(), p, faultDB(60), Options{Strategy: SemiNaive})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected error", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("want partial result, got %+v", res)
	}
	if n := failpoint.Hits(FPWorker); n == 0 {
		t.Fatal("worker site never hit")
	}
}

// TestWorkerPanicBecomesInternalError injects a panic into rule-version
// evaluation: the bulkhead must catch it, convert it to a stack-carrying
// *ierr.InternalError, and return a partial result — never crash the
// process or skip the pass barrier.
func TestWorkerPanicBecomesInternalError(t *testing.T) {
	for _, s := range allStrategies {
		if s.opt.Strategy == Naive {
			continue // no version bulkhead: naive panics are caught by the API-boundary Rescue
		}
		t.Run(s.name, func(t *testing.T) {
			defer checkNoLeakedGoroutines(t)()
			defer failpoint.Reset()
			p, err := parser.ParseProgram(faultProgram)
			if err != nil {
				t.Fatal(err)
			}
			failpoint.EnablePanic(FPWorker, 2)
			res, err := EvalContext(context.Background(), p, faultDB(40), s.opt)
			if err == nil {
				t.Fatal("injected panic did not surface")
			}
			var ie *ierr.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("err = %v (%T), want *ierr.InternalError", err, err)
			}
			if !strings.Contains(fmt.Sprint(ie.Recovered), "injected panic") {
				t.Fatalf("recovered value %v does not name the injection", ie.Recovered)
			}
			if len(ie.Stack) == 0 {
				t.Fatal("internal error carries no stack")
			}
			if res == nil || !res.Partial {
				t.Fatalf("want partial result, got %+v", res)
			}
		})
	}
}

// TestBoundaryRescueCatchesPanic: a panic outside the version bulkhead
// (here: the naive pass barrier) is recovered at the API boundary into a
// *ierr.InternalError rather than escaping to the caller.
func TestBoundaryRescueCatchesPanic(t *testing.T) {
	defer checkNoLeakedGoroutines(t)()
	defer failpoint.Reset()
	p, err := parser.ParseProgram(faultProgram)
	if err != nil {
		t.Fatal(err)
	}
	failpoint.EnablePanic(FPPass, 2)
	_, err = EvalContext(context.Background(), p, faultDB(40), Options{Strategy: Naive})
	var ie *ierr.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *ierr.InternalError", err, err)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("internal error carries no stack")
	}
}

// TestDelayedWorkerHitsDeadline slows every rule version down and runs
// under a deadline: the injected latency must not defeat cancellation —
// the pass drains and ErrDeadline surfaces.
func TestDelayedWorkerHitsDeadline(t *testing.T) {
	defer checkNoLeakedGoroutines(t)()
	defer failpoint.Reset()
	p, err := parser.ParseProgram(faultProgram)
	if err != nil {
		t.Fatal(err)
	}
	failpoint.EnableDelay(FPWorker, 10*time.Millisecond, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := EvalContext(ctx, p, faultDB(120), Options{Strategy: SemiNaive})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// Bound is generous: the deadline plus one in-flight delayed version
	// plus scheduling slack.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("drain after deadline took %v", elapsed)
	}
	if res == nil || !res.Partial {
		t.Fatalf("want partial result, got %+v", res)
	}
}

// TestNoFaultsBitIdentical: with the failpoint build active but nothing
// armed, SemiNaive reaches the full fixpoint and derives the same facts,
// in the same order, with the same Stats on every run — the instrumented
// build changes nothing unless a fault is injected.
func TestNoFaultsBitIdentical(t *testing.T) {
	failpoint.Reset()
	p, err := parser.ParseProgram(faultProgram)
	if err != nil {
		t.Fatal(err)
	}
	db := faultDB(80)
	first, err := Eval(p, db, Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Eval(p, db, Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	if first.Partial || first.Stats.FactsDerived != 80*81/2 {
		t.Fatalf("unarmed build did not reach the fixpoint: %+v", first.Stats)
	}
	if first.Stats != again.Stats {
		t.Fatalf("stats diverge under failpoint build:\nfirst %+v\nagain %+v", first.Stats, again.Stats)
	}
	a, b := orderedFacts(first, "t"), orderedFacts(again, "t")
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("insertion order diverges under failpoint build")
	}
}
