package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"existdlog/internal/engine"
	"existdlog/internal/parser"
	"existdlog/internal/workload"
)

// CancellationRow is one measurement of the abort path: evaluate a heavy
// transitive closure under a deadline and record how long past the
// deadline the engine took to hand back the partial result, and how much
// of the fixpoint it had soundly derived by then.
type CancellationRow struct {
	Strategy string
	Deadline time.Duration
	Overrun  time.Duration // time from deadline expiry to return
	Facts    int           // facts in the partial result
	Partial  bool          // false when the run finished inside the deadline
}

// CancellationLatency measures the engine's abort latency (DESIGN.md §7):
// for each strategy and deadline, evaluate transitive closure over a
// dense cyclic graph — heavy enough that short deadlines always land
// mid-evaluation — and time the return past the deadline. The tentpole
// bound is 100ms; measured overruns are recorded in EXPERIMENTS.md.
func CancellationLatency(deadlines []time.Duration) ([]CancellationRow, error) {
	p, err := parser.ParseProgram(`
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), e(Y,Z).
?- t(X,Y).
`)
	if err != nil {
		return nil, err
	}
	db := engine.NewDatabase()
	workload.Cycle(db, "e", 1200)

	strategies := []struct {
		name string
		opts engine.Options
	}{
		{"naive", engine.Options{Strategy: engine.Naive}},
		{"seminaive", engine.Options{Strategy: engine.SemiNaive}},
	}
	var rows []CancellationRow
	for _, s := range strategies {
		for _, d := range deadlines {
			ctx, cancel := context.WithTimeout(context.Background(), d)
			start := time.Now()
			res, err := engine.EvalContext(ctx, p, db, s.opts)
			elapsed := time.Since(start)
			cancel()
			row := CancellationRow{Strategy: s.name, Deadline: d}
			switch {
			case err == nil:
				row.Facts = res.Stats.FactsDerived
			case errors.Is(err, engine.ErrDeadline):
				row.Partial = true
				row.Overrun = elapsed - d
				if row.Overrun < 0 {
					row.Overrun = 0
				}
				row.Facts = res.Stats.FactsDerived
			default:
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatCancellationTable renders CancellationLatency rows as the aligned
// table bench -cancel prints and EXPERIMENTS.md records.
func FormatCancellationTable(rows []CancellationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %10s %12s %10s %9s\n", "strategy", "deadline", "overrun", "facts", "partial")
	for _, r := range rows {
		overrun := "-"
		if r.Partial {
			overrun = r.Overrun.Round(10 * time.Microsecond).String()
		}
		fmt.Fprintf(&sb, "%-10s %10s %12s %10d %9v\n",
			r.Strategy, r.Deadline, overrun, r.Facts, r.Partial)
	}
	return sb.String()
}
