// Command existdlog is the command-line front end to the existential
// Datalog optimizer:
//
//	existdlog optimize [-mode 51|53] [-magic] file.dl   step-by-step optimization report
//	existdlog adorn file.dl                             print the adorned program
//	existdlog run [-noopt] [-nocut] [-naive] [-reorder] [-explain] [-trace] [-timeout 1s] file.dl  evaluate and print answers + stats
//	existdlog explain [-json] [-plan] file.dl           optimizer EXPLAIN: what each stage decided
//	existdlog why file.dl 'a@nd(1)'                     print one answer's derivation tree
//	existdlog grammar file.dl                           chain-program/grammar analysis
//	existdlog equiv left.dl right.dl                    Section 4 equivalence report
//	existdlog bench [-repeat n] [-json f] [-cpuprofile f] [-memprofile f]  run the experiment suite tables
//	existdlog serve [-addr host:port] [-timeout 10s] [-wal dir] file.dl  HTTP query service with metrics and health probes
//	existdlog loadgen [-scenario s] [-seed n] [-duration 5s] [-slo p99=50ms,errors=0]  open-loop traffic + SLO harness against a served instance
//	existdlog repl [-server URL] [file.dl...]           interactive session; :add/:retract mutate a served instance
//
// Program files contain rules, ground facts, and one "?- goal." query in
// the syntax of the parser package (p@nd writes the paper's p^nd).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"existdlog"
	"existdlog/internal/adorn"
	"existdlog/internal/grammar"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "optimize":
		err = cmdOptimize(os.Args[2:])
	case "adorn":
		err = cmdAdorn(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "why":
		err = cmdWhy(os.Args[2:])
	case "grammar":
		err = cmdGrammar(os.Args[2:])
	case "equiv":
		err = cmdEquiv(os.Args[2:])
	case "repl":
		err = cmdRepl(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "existdlog:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: existdlog <command> [flags] [file]

commands:
  optimize   print the optimization pipeline report for a program
  adorn      print the existentially adorned program
  run        evaluate a program over its facts and print the answers
  explain    print the optimizer's stage-by-stage EXPLAIN report
  why        print the derivation tree of one answer
  grammar    analyze a binary chain program as a grammar
  equiv      compare two programs under the paper's equivalences
  repl       interactive session (rules, facts, ?- queries; -server connects :add/:retract to a served instance)
  bench      run the experiment suite and print its tables
  serve      HTTP query service: /query, /update, /retract, /metrics, /healthz, /debug/pprof (-wal makes writes durable)
  loadgen    open-loop traffic generator + SLO harness against a served instance; writes BENCH_<scenario>.json
`)
}

func load(path string) (*existdlog.Program, *existdlog.Database, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return existdlog.Parse(string(src))
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	mode := fs.String("mode", "53", "summary deletion mode: 51 or 53")
	magicFlag := fs.Bool("magic", false, "finish with the magic-sets rewriting")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("optimize: expected one program file")
	}
	prog, _, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	opts := existdlog.DefaultOptions()
	if *mode == "51" {
		opts.DeletionMode = existdlog.Lemma51
	}
	opts.MagicSets = *magicFlag
	res, err := existdlog.Optimize(prog, opts)
	if err != nil {
		return err
	}
	fmt.Println("== input ==")
	fmt.Print(prog.String())
	for _, s := range res.Steps {
		fmt.Printf("\n== after %s ==\n", s.Name)
		for _, n := range s.Notes {
			fmt.Printf("%% %s\n", n)
		}
		fmt.Print(s.Program)
	}
	if len(res.Deletions) > 0 {
		fmt.Println("\n== deletions ==")
		for _, d := range res.Deletions {
			fmt.Printf("- %s\n    %s\n", d.Rule, d.Reason)
		}
	}
	if res.EmptyAnswer {
		fmt.Println("\n== the answer is empty (proved at compile time) ==")
	}
	return nil
}

func cmdAdorn(args []string) error {
	fs := flag.NewFlagSet("adorn", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("adorn: expected one program file")
	}
	prog, _, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	ad, err := adorn.Adorn(prog)
	if err != nil {
		return err
	}
	fmt.Print(ad.String())
	return nil
}

// relFlags accumulates repeated -rel name=path.csv flags.
type relFlags []string

func (r *relFlags) String() string     { return strings.Join(*r, ",") }
func (r *relFlags) Set(v string) error { *r = append(*r, v); return nil }

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	noopt := fs.Bool("noopt", false, "evaluate the program as written")
	nocut := fs.Bool("nocut", false, "disable the runtime boolean cut")
	naive := fs.Bool("naive", false, "use naive instead of semi-naive evaluation")
	reorder := fs.Bool("reorder", false, "greedy bound-first join reordering")
	explain := fs.Bool("explain", false, "print the optimizer's EXPLAIN report before the answers")
	traceFlag := fs.Bool("trace", false, "collect per-rule/per-pass metrics and print them after the stats")
	maxAnswers := fs.Int("max", 50, "print at most this many answers (0 = all)")
	timeout := fs.Duration("timeout", 0, "abort evaluation after this long, printing the partial result (0 = no limit)")
	var rels relFlags
	fs.Var(&rels, "rel", "load a relation from CSV: -rel name=path.csv (repeatable)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run: expected one program file")
	}
	prog, db, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	for _, spec := range rels {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("run: -rel wants name=path.csv, got %q", spec)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		n, err := db.LoadCSV(name, f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("%% loaded %d rows into %s from %s\n", n, name, path)
	}
	if prog.Query.Pred == "" {
		return fmt.Errorf("run: the program has no ?- query")
	}
	goal := prog.Query
	if !*noopt {
		res, err := existdlog.Optimize(prog, existdlog.DefaultOptions())
		if err != nil {
			return err
		}
		if *explain {
			res.Explain.Format(os.Stdout)
		}
		prog = res.Program
		goal = prog.Query
		if res.EmptyAnswer {
			fmt.Println("answer proved empty at compile time")
			return nil
		}
	} else if *explain {
		fmt.Println("% -explain has no report under -noopt (the optimizer did not run)")
	}
	if *explain && *reorder {
		if err := printPlanPreview(prog, db); err != nil {
			return err
		}
	}
	opts := existdlog.EvalOptions{BooleanCut: !*nocut, ReorderJoins: *reorder, Trace: *traceFlag}
	if *naive {
		opts.Strategy = existdlog.Naive
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := existdlog.EvalContext(ctx, prog, db, opts)
	if err != nil && (res == nil || !res.Partial) {
		return err
	}
	answers := res.Answers(goal)
	for i, row := range answers {
		if *maxAnswers > 0 && i >= *maxAnswers {
			fmt.Printf("... and %d more\n", len(answers)-i)
			break
		}
		fmt.Printf("%s(%s)\n", goal.Key(), strings.Join(row, ","))
	}
	if err != nil {
		// Graceful degradation: a timed-out (or limit-hit) query prints
		// whatever was soundly derived, marked as partial, and exits 0.
		fmt.Printf("%%%% partial result (%s)\n", res.Incomplete)
	}
	s := res.Stats
	fmt.Printf("%% %d answers; %d facts derived in %d iterations; %d derivations (%d duplicates); %d join probes; %d rules retired\n",
		len(answers), s.FactsDerived, s.Iterations, s.Derivations, s.DuplicateHits, s.JoinProbes, s.RulesRetired)
	if res.Trace != nil {
		res.Trace.Format(os.Stdout)
	}
	return nil
}

// printPlanPreview renders the runtime join planner's startup-pass
// orders with the live relation cardinalities that justified them — the
// EXPLAIN view of -reorder. Delta (semi-naive) rule versions replan at
// every pass barrier; run with -reorder -trace to watch those.
func printPlanPreview(prog *existdlog.Program, db *existdlog.Database) error {
	orders, err := existdlog.PlanPreview(prog, db)
	if err != nil {
		return err
	}
	fmt.Println("== join planner (startup-pass orders from live cardinalities) ==")
	if len(orders) == 0 {
		fmt.Println("% no rules to plan")
		return nil
	}
	for i := range orders {
		fmt.Printf("%% %s\n", orders[i].String())
	}
	return nil
}

// cmdExplain prints the optimizer's stage-by-stage EXPLAIN report for a
// program: adornments chosen, boolean components split off, positions
// projected away, and which check deleted which rule. With a second
// argument (a ground goal) it keeps its historical meaning and delegates
// to "why", printing that answer's derivation tree. -plan appends the
// runtime join planner's chosen orders for the optimized program.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	mode := fs.String("mode", "53", "summary deletion mode: 51 or 53")
	magicFlag := fs.Bool("magic", false, "finish with the magic-sets rewriting")
	plan := fs.Bool("plan", false, "append the runtime join planner's startup orders with their cardinalities (text output only)")
	fs.Parse(args)
	if fs.NArg() == 2 {
		return cmdWhy(fs.Args())
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("explain: expected one program file (or a file and a ground goal, as in 'why')")
	}
	prog, db, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	opts := existdlog.DefaultOptions()
	if *mode == "51" {
		opts.DeletionMode = existdlog.Lemma51
	}
	opts.MagicSets = *magicFlag
	res, err := existdlog.Optimize(prog, opts)
	if err != nil {
		return err
	}
	if *jsonOut {
		b, err := res.Explain.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	res.Explain.Format(os.Stdout)
	if *plan && !res.EmptyAnswer {
		return printPlanPreview(res.Program, db)
	}
	return nil
}

// cmdWhy evaluates the program with provenance tracking and prints the
// derivation tree of one ground answer, grounded in base facts.
func cmdWhy(args []string) error {
	fs := flag.NewFlagSet("why", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("why: expected a program file and a ground goal like 'a(1,2)'")
	}
	prog, db, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := existdlog.Eval(prog, db, existdlog.EvalOptions{TrackProvenance: true})
	if err != nil {
		return err
	}
	tree, err := existdlog.Why(res, fs.Arg(1))
	if errors.Is(err, existdlog.ErrNotDerivable) {
		fmt.Printf("%s is not derivable\n", fs.Arg(1))
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Print(existdlog.FormatTree(tree, prog, res))
	return nil
}

func cmdGrammar(args []string) error {
	fs := flag.NewFlagSet("grammar", flag.ExitOnError)
	maxLen := fs.Int("len", 5, "enumerate languages up to this length")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("grammar: expected one program file")
	}
	prog, _, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	g, err := grammar.FromChainProgram(prog)
	if err != nil {
		return err
	}
	fmt.Printf("start symbol: %s\n", g.Start)
	fmt.Printf("classification: %v\n", classString(grammar.Classify(g)))
	fmt.Printf("L(G) up to length %d:\n", *maxLen)
	for _, s := range g.Language(*maxLen) {
		fmt.Printf("  %s\n", strings.Join(s, " "))
	}
	fmt.Printf("extended language up to length %d:\n", *maxLen)
	for _, s := range g.ExtendedLanguage(*maxLen) {
		fmt.Printf("  %s\n", strings.Join(s, " "))
	}
	for _, ad := range []existdlog.Adornment{"dn", "nd"} {
		mp, err := grammar.MonadicFromChain(prog, ad)
		if err != nil {
			fmt.Printf("monadic construction (%s): %v\n", ad, err)
			continue
		}
		fmt.Printf("monadic program for query %s@%s (Theorem 3.3):\n", g.Start, ad)
		fmt.Print(indentLines(mp.Program.String(), "  "))
	}
	return nil
}

func classString(c grammar.Linearity) string {
	switch c {
	case grammar.RightLinear:
		return "right-linear (regular)"
	case grammar.LeftLinear:
		return "left-linear (regular)"
	case grammar.Acyclic:
		return "acyclic (trivially regular)"
	default:
		return "not linear (regularity undecidable)"
	}
}

func indentLines(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
