package existdlog_test

// Allocation-ceiling guard for the columnar arena storage (ISSUE 8
// satellite 5). The arena rewrite's whole value is its allocation
// profile — tuple fingerprints instead of string keys, flat []int32
// instead of per-row slices — so CI re-runs the engine benchmark-pair
// workloads under testing.Benchmark and FAILS when allocs/op creep past
// the pinned ceilings, rather than just logging numbers nobody reads.
//
// Ceilings carry ~40-50% headroom over the values measured on the
// machine that pinned them (see EXPERIMENTS.md "Columnar arena storage"
// for the measured table). Allocation counts, unlike wall-clock, are
// deterministic per workload, so a ceiling breach means a real
// regression — e.g. per-tuple keys or per-probe boxing coming back —
// not a noisy runner.
//
// The guard costs a few seconds of benchmarking, so it only runs when
// EXISTDLOG_BENCH_GUARD is set (the CI bench job sets it); ordinary
// `go test ./...` skips it.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"existdlog"
	"existdlog/internal/server"
	"existdlog/internal/workload"
)

func TestBenchAllocCeilings(t *testing.T) {
	if os.Getenv("EXISTDLOG_BENCH_GUARD") == "" {
		t.Skip("set EXISTDLOG_BENCH_GUARD=1 to run the alloc-ceiling guard (the CI bench job does)")
	}

	chain := func(n int) *existdlog.Database {
		db := existdlog.NewDatabase()
		for i := 0; i < n; i++ {
			db.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
		}
		return db
	}
	tcProg := existdlog.MustParseProgram(`
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)

	cases := []struct {
		name    string
		ceiling int64 // allocs/op; measured value in the comment
		opts    existdlog.EvalOptions
		prog    *existdlog.Program
		db      *existdlog.Database
	}{
		// BenchmarkEngineSemiNaiveTCChain512: measured 167,453 allocs/op
		// (seed storage: 1,876,170).
		{"SemiNaiveTCChain512", 250_000, existdlog.EvalOptions{}, tcProg, chain(512)},
		// The trace pair's disabled side (BenchmarkEvalTraceOff's
		// chain-10 workload, minus the harness's option plumbing):
		// measured 439 allocs/op here; the in-engine pin with tracing
		// plumbing is 1,715 (seed storage: 7,828).
		{"EvalTraceOffChain10", 700, existdlog.EvalOptions{}, tcProg, chain(10)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := existdlog.Eval(c.prog, c.db, c.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			if got := r.AllocsPerOp(); got > c.ceiling {
				t.Errorf("%s: %d allocs/op exceeds the pinned ceiling %d — per-tuple allocation has crept back into the arena paths (run the %s benchmarks with -benchmem to localize)",
					c.name, got, c.ceiling, c.name)
			} else {
				t.Logf("%s: %d allocs/op (ceiling %d), %v/op over %d iterations",
					c.name, got, c.ceiling, r.NsPerOp(), r.N)
			}
		})
	}
}

// TestPlannerJoinProbeCeilings pins exact JoinProbes counts for the
// BenchmarkJoinReorderAblation pair and the transitive-closure chain,
// planner off and on. Unlike allocs these need no benchmark loop or
// headroom: probe counts are a pure function of program, database, and
// planner, so any drift is a real planner (or join-loop) change and the
// pinned numbers should be re-derived consciously, not absorbed. The
// planner-on numbers are also the acceptance evidence for the runtime
// planner: they must stay strictly below their planner-off pair.
func TestPlannerJoinProbeCeilings(t *testing.T) {
	reorderProg := existdlog.MustParseProgram(`
ans(X,W) :- big(Y,Z), sel(X,Y), big(Z,W).
?- ans(X,W).
`)
	reorderDB := existdlog.NewDatabase()
	for i := 0; i < 2000; i++ {
		reorderDB.Add("big", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	reorderDB.Add("sel", "s", "3")
	tcProg := existdlog.MustParseProgram(`
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)
	tcDB := existdlog.NewDatabase()
	for i := 0; i < 512; i++ {
		tcDB.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
	}

	cases := []struct {
		name    string
		reorder bool
		want    int64
		prog    *existdlog.Program
		db      *existdlog.Database
	}{
		{"ReorderAblation/textual", false, 2002, reorderProg, reorderDB},
		{"ReorderAblation/planner", true, 3, reorderProg, reorderDB},
		{"TCChain512/textual", false, 263170, tcProg, tcDB},
		{"TCChain512/planner", true, 131841, tcProg, tcDB},
	}
	probes := map[string]int64{}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res, err := existdlog.Eval(c.prog, c.db, existdlog.EvalOptions{ReorderJoins: c.reorder})
			if err != nil {
				t.Fatal(err)
			}
			probes[c.name] = res.Stats.JoinProbes
			if res.Stats.JoinProbes != c.want {
				t.Errorf("%s: JoinProbes = %d, want exactly %d (probe counts are deterministic; re-derive the pin if the planner changed on purpose)",
					c.name, res.Stats.JoinProbes, c.want)
			}
		})
	}
	for _, pair := range [][2]string{
		{"ReorderAblation/planner", "ReorderAblation/textual"},
		{"TCChain512/planner", "TCChain512/textual"},
	} {
		if probes[pair[0]] >= probes[pair[1]] {
			t.Errorf("planner must beat the textual order: %s=%d vs %s=%d",
				pair[0], probes[pair[0]], pair[1], probes[pair[1]])
		}
	}
}

// TestServedReadPathPins pins what the serve read paths cost on the
// steady scenario's 200-node chain. Before any write, the all-needed
// point goal tc(14,X) is evaluated per goal: projection pushing leaves
// tc binary, so it derives all 20,100 tc facts (in 20,301 join probes)
// to answer 186 rows. One
// write materializes the fixpoint, and from then on the same goal is a
// selection on it that derives nothing and probes no join. A base goal
// never evaluates rules at all.
func TestServedReadPathPins(t *testing.T) {
	srv, err := server.New(server.Config{Source: workload.Scenarios["steady"].Program()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type reply struct {
		Path  string `json:"path"`
		Count int    `json:"count"`
		Stats struct {
			FactsDerived int   `json:"facts_derived"`
			JoinProbes   int64 `json:"join_probes"`
		} `json:"stats"`
	}
	post := func(endpoint, body string) reply {
		t.Helper()
		resp, err := http.Post(ts.URL+endpoint, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", endpoint, body, resp.StatusCode)
		}
		var r reply
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	pin := func(goal, path string, count, facts int, probes int64) {
		t.Helper()
		r := post("/query", `{"goal": "`+goal+`"}`)
		if r.Path != path || r.Count != count || r.Stats.FactsDerived != facts || r.Stats.JoinProbes != probes {
			t.Errorf("%s: path %s, %d answers, facts_derived %d, join_probes %d; want %s, %d, %d, %d",
				goal, r.Path, r.Count, r.Stats.FactsDerived, r.Stats.JoinProbes, path, count, facts, probes)
		}
	}

	pin("tc(14,X)", "evaluated", 186, 20100, 20301)
	pin("e(14,X)", "base", 1, 0, 0)
	post("/update", `{"facts": ["e(u1,0)"]}`)
	pin("tc(14,X)", "materialized", 186, 0, 0)
	pin("e(14,X)", "base", 1, 0, 0)
}
