// Command soundness is a randomized end-to-end soundness campaign for the
// optimizer: it generates random programs (recursion, argument flips,
// self-joins, disconnected guards, stratified negation), optimizes them
// with the full default pipeline, and compares answers against the
// unoptimized program over random databases. Any divergence is printed
// with a reproducer. Exit status 1 on failure.
//
//	go run ./cmd/soundness -trials 2000 -seed 7
//
// `go test ./cmd/soundness` runs the same campaign at the default seed
// (500 trials, 100 under -short).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"existdlog"
)

// defaultSeed is the campaign's fixed seed, shared by the command's
// default and the test.
const defaultSeed = 20260704

func main() {
	trials := flag.Int("trials", 500, "number of random programs to try")
	seed := flag.Int64("seed", defaultSeed, "random seed")
	flag.Parse()
	fails := campaign(*trials, *seed, os.Stdout)
	fmt.Printf("campaign complete: %d trials, %d failures\n", *trials, fails)
	if fails > 0 {
		os.Exit(1)
	}
}

// campaign is the extended randomized soundness campaign: random programs
// (recursion, flips, self-joins, disconnected guards, negation in the
// query rule), random databases; optimized answers must match the
// original's on the needed column. It writes a reproducer for every
// divergence to w and returns the number of failures.
func campaign(trials int, seed int64, w io.Writer) int {
	rng := rand.New(rand.NewSource(seed))
	derived := []string{"d1", "d2", "d3"}
	base := []string{"e", "f"}
	fails := 0
	for trial := 0; trial < trials; trial++ {
		var sb strings.Builder
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			h := derived[rng.Intn(3)]
			switch rng.Intn(7) {
			case 0:
				fmt.Fprintf(&sb, "%s(X,Y) :- %s(X,Z), %s(Z,Y).\n", h, base[rng.Intn(2)], derived[rng.Intn(3)])
			case 1:
				fmt.Fprintf(&sb, "%s(X,Y) :- %s(X,Z), %s(Z,Y).\n", h, derived[rng.Intn(3)], base[rng.Intn(2)])
			case 2:
				fmt.Fprintf(&sb, "%s(X,Y) :- %s(Y,X).\n", h, derived[rng.Intn(3)])
			case 3:
				fmt.Fprintf(&sb, "%s(X,Y) :- %s(X,Y).\n", h, derived[rng.Intn(3)])
			case 4:
				fmt.Fprintf(&sb, "%s(X,X) :- %s(X,Y), %s(Y,X).\n", h, base[rng.Intn(2)], base[rng.Intn(2)])
			case 5:
				fmt.Fprintf(&sb, "%s(X,Y) :- %s(X,Y), %s(Y,W).\n", h, derived[rng.Intn(3)], base[rng.Intn(2)])
			case 6:
				fmt.Fprintf(&sb, "%s(X,Y) :- %s(X,Z), %s(Z,W), %s(W,Y).\n", h,
					base[rng.Intn(2)], derived[rng.Intn(3)], base[rng.Intn(2)])
			}
		}
		for _, d := range derived {
			fmt.Fprintf(&sb, "%s(X,Y) :- e(X,Y).\n", d)
		}
		switch rng.Intn(5) {
		case 0:
			sb.WriteString("query(X) :- d1(X,Y).\n")
		case 1:
			sb.WriteString("query(X) :- d1(X,Y), d2(Y,Z).\n")
		case 2:
			sb.WriteString("query(X) :- d1(X,Y), f(U,V).\n")
		case 3:
			sb.WriteString("query(X) :- d1(X,Y), not mark(X).\n")
		case 4:
			sb.WriteString("query(X) :- d1(X,Y), d2(X,Z), not mark(Z).\n")
		}
		sb.WriteString("?- query(X).\n")
		src := sb.String()
		prog, err := existdlog.ParseProgram(src)
		if err != nil {
			fmt.Fprintln(w, "PARSE FAIL:", err, "\n", src)
			fails++
			continue
		}
		res, err := existdlog.Optimize(prog, existdlog.DefaultOptions())
		if err != nil {
			fmt.Fprintln(w, "OPTIMIZE FAIL:", err, "\n", src)
			fails++
			continue
		}
		for round := 0; round < 3; round++ {
			db := existdlog.NewDatabase()
			m := 3 + rng.Intn(5)
			for i := 0; i < 2*m; i++ {
				db.Add("e", fmt.Sprint(rng.Intn(m)), fmt.Sprint(rng.Intn(m)))
				db.Add("f", fmt.Sprint(rng.Intn(m)), fmt.Sprint(rng.Intn(m)))
			}
			if rng.Intn(2) == 0 {
				db.Add("mark", fmt.Sprint(rng.Intn(m)))
			}
			before, err := existdlog.Eval(prog, db, existdlog.EvalOptions{})
			if err != nil {
				fmt.Fprintln(w, "EVAL FAIL:", err, "\n", src)
				fails++
				break
			}
			after, err := existdlog.Eval(res.Program, db, existdlog.EvalOptions{BooleanCut: true})
			if err != nil {
				fmt.Fprintln(w, "EVAL-OPT FAIL:", err, "\n", src)
				fails++
				break
			}
			a := before.Answers(prog.Query)
			b := after.Answers(res.Program.Query)
			sa := map[string]bool{}
			for _, r := range a {
				sa[r[0]] = true
			}
			sbm := map[string]bool{}
			for _, r := range b {
				sbm[r[0]] = true
			}
			if len(sa) != len(sbm) {
				fmt.Fprintf(w, "MISMATCH trial %d round %d:\n%s\noptimized:\n%s\nbefore=%v after=%v\n",
					trial, round, src, res.Program, sa, sbm)
				fails++
				break
			}
			for k := range sa {
				if !sbm[k] {
					fmt.Fprintf(w, "MISSING %s trial %d:\n%s\noptimized:\n%s\n", k, trial, src, res.Program)
					fails++
					break
				}
			}
		}
	}
	return fails
}
