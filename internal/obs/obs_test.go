package obs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"existdlog/internal/engine"
	"existdlog/internal/parser"
)

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	want := []int64{2, 1, 1, 2} // <=1: {0.5,1}; <=10: {5}; <=100: {50}; +Inf: {500,5000}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if got := s.Sum; math.Abs(got-5556.5) > 1e-9 {
		t.Errorf("sum = %v, want 5556.5", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	// 100 observations uniform in (0,1]: p50 interpolates inside the
	// first bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 1 {
		t.Errorf("p50 = %v, want within (0,1]", q)
	}
	h2 := NewHistogram(1, 2, 4, 8)
	for i := 0; i < 90; i++ {
		h2.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(3) // lands in (2,4]
	}
	if q := h2.Quantile(0.99); q <= 2 || q > 4 {
		t.Errorf("p99 = %v, want within (2,4]", q)
	}
	// +Inf observations clamp to the top finite bound.
	h3 := NewHistogram(1, 2)
	h3.Observe(1000)
	if q := h3.Quantile(0.5); q != 2 {
		t.Errorf("overflow quantile = %v, want clamp to 2", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing bounds should panic")
		}
	}()
	NewHistogram(1, 1)
}

// evalTraced evaluates src with tracing and feeds the registry the way
// the server does.
func evalTraced(t *testing.T, reg *Registry, src string, opts engine.Options) *engine.Result {
	t.Helper()
	res, err := parse(t, src, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func parse(t *testing.T, src string, reg *Registry, opts engine.Options) (*engine.Result, error) {
	t.Helper()
	pr, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	db := engine.NewDatabase()
	if err := db.AddAtoms(pr.Facts); err != nil {
		return nil, err
	}
	opts.Trace = true
	start := time.Now()
	res, err := engine.Eval(pr.Program, db, opts)
	elapsed := time.Since(start)
	outcome := OutcomeOK
	if err != nil {
		if res == nil || !res.Partial {
			reg.ObserveError(elapsed, "")
			return nil, err
		}
		outcome = OutcomePartial
	}
	reg.ObserveQuery(res.Stats, res.Trace, elapsed, outcome, "")
	return res, nil
}

// chainSrc builds a transitive-closure program over a random chain/graph.
func chainSrc(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("a(X,Y) :- p(X,Z), a(Z,Y).\na(X,Y) :- p(X,Y).\n?- a(X,Y).\n")
	n := 3 + rng.Intn(8)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "p(%d,%d).\n", rng.Intn(n), rng.Intn(n))
	}
	return sb.String()
}

// TestRegistryPartitionsStats is the acceptance property test: across a
// randomized query sequence, the registry's lifetime counters equal the
// sum of the per-query Stats exactly — complete and partial (limit-hit)
// queries alike — and the per-rule series sum to the same totals.
func TestRegistryPartitionsStats(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	reg := NewRegistry()
	var want struct {
		facts, derivs, dups, probes, iters, retired, firings int64
		ok, partial                                          int64
	}
	for q := 0; q < 60; q++ {
		src := chainSrc(rng)
		opts := engine.Options{BooleanCut: true}
		if q%7 == 3 {
			opts.MaxFacts = 1 + rng.Intn(3) // force some partial results
		}
		res, err := parse(t, src, reg, opts)
		if err != nil && (res == nil || !res.Partial) {
			t.Fatalf("query %d: %v", q, err)
		}
		if res.Partial {
			want.partial++
		} else {
			want.ok++
		}
		want.facts += int64(res.Stats.FactsDerived)
		want.derivs += res.Stats.Derivations
		want.dups += res.Stats.DuplicateHits
		want.probes += res.Stats.JoinProbes
		want.iters += int64(res.Stats.Iterations)
		want.retired += int64(res.Stats.RulesRetired)
		want.firings += res.Trace.TotalFirings()
	}
	s := reg.Snapshot()
	if s.FactsDerived != want.facts || s.Derivations != want.derivs ||
		s.DuplicateHits != want.dups || s.JoinProbes != want.probes ||
		s.Iterations != want.iters || s.RulesRetired != want.retired ||
		s.RuleFirings != want.firings {
		t.Errorf("registry totals %+v diverge from summed Stats %+v", s, want)
	}
	if s.Queries[OutcomeOK] != want.ok || s.Queries[OutcomePartial] != want.partial {
		t.Errorf("outcomes ok=%d partial=%d, want ok=%d partial=%d",
			s.Queries[OutcomeOK], s.Queries[OutcomePartial], want.ok, want.partial)
	}
	if s.TotalQueries() != 60 {
		t.Errorf("total queries %d, want 60", s.TotalQueries())
	}
	// Per-rule series partition the same totals.
	var ruleFacts, ruleDerivs, ruleDups, ruleProbes, ruleFirings int64
	for _, r := range s.Rules {
		ruleFacts += r.Facts
		ruleDerivs += r.Emitted
		ruleDups += r.Duplicates
		ruleProbes += r.Probes
		ruleFirings += r.Firings
	}
	if ruleFacts != want.facts || ruleDerivs != want.derivs ||
		ruleDups != want.dups || ruleProbes != want.probes || ruleFirings != want.firings {
		t.Errorf("per-rule sums (facts=%d derivs=%d dups=%d probes=%d firings=%d) diverge from %+v",
			ruleFacts, ruleDerivs, ruleDups, ruleProbes, ruleFirings, want)
	}
	// Histogram counts agree with the query count.
	if s.Latency.Count != 60 || s.Facts.Count != 60 {
		t.Errorf("histogram counts latency=%d facts=%d, want 60", s.Latency.Count, s.Facts.Count)
	}
}

// TestExpositionValid renders a populated registry and feeds it through
// the strict exposition parser — the acceptance check that /metrics is
// valid Prometheus text.
func TestExpositionValid(t *testing.T) {
	reg := NewRegistry()
	evalTraced(t, reg, "a(X,Y) :- p(X,Z), a(Z,Y).\na(X,Y) :- p(X,Y).\n?- a(X,Y).\np(1,2). p(2,3).\n",
		engine.Options{BooleanCut: true})
	reg.CacheMiss()
	reg.CacheHit()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	families, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	for _, want := range []string{
		"existdlog_queries_total", "existdlog_queries_in_flight",
		"existdlog_queue_depth", "existdlog_facts_derived_total",
		"existdlog_query_duration_seconds", "existdlog_query_facts",
		"existdlog_delta_size", "existdlog_rule_firings_total",
		"existdlog_rule_cuts_total", "existdlog_optimize_cache_total",
		"existdlog_query_path_total",
		"existdlog_process_start_time_seconds",
	} {
		if families[want] == nil {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	// The rule labels carry the rule text verbatim.
	found := false
	for _, smp := range families["existdlog_rule_firings_total"].Samples {
		if smp.Labels["rule"] == "a(X,Y) :- p(X,Y)." {
			found = true
		}
	}
	if !found {
		t.Errorf("rule label missing:\n%s", sb.String())
	}
}

func TestExpositionParserRejectsMalformed(t *testing.T) {
	bad := []string{
		"existdlog_x 1\n",                               // sample without TYPE
		"# TYPE m counter\nm{le=0.1} 1\n",               // unquoted label value
		"# TYPE m counter\nm{le=\"0.1\"\n",              // unbalanced braces
		"# TYPE m counter\nm notanumber\n",              // bad value
		"# TYPE m wibble\nm 1\n",                        // unknown type
		"# TYPE 0bad counter\n",                         // bad name
		"# TYPE m histogram\nm_bucket{le=\"+Inf\"} 1\n", // missing sum/count
		"# TYPE m counter\nm{x=\"a\"} 1 2 3\n",          // junk after value
		"m 1\n# TYPE m counter\n",                       // sample precedes its TYPE
	}
	for _, src := range bad {
		if _, err := ParseExposition(strings.NewReader(src)); err == nil {
			t.Errorf("parser accepted malformed input %q", src)
		}
	}
	// Non-cumulative histogram buckets are rejected.
	h := `# TYPE m histogram
m_bucket{le="1"} 5
m_bucket{le="2"} 3
m_bucket{le="+Inf"} 5
m_sum 1
m_count 5
`
	if _, err := ParseExposition(strings.NewReader(h)); err == nil {
		t.Error("parser accepted non-cumulative buckets")
	}
}

func TestEscapeLabel(t *testing.T) {
	in := "a \"b\" \\c\nd"
	want := `a \"b\" \\c\nd`
	if got := escapeLabel(in); got != want {
		t.Errorf("escapeLabel = %q, want %q", got, want)
	}
}

// TestConcurrentObserveAndScrape hammers the registry from observer and
// scraper goroutines at once; every scrape must remain valid exposition
// (run under -race in the CI serve job).
func TestConcurrentObserveAndScrape(t *testing.T) {
	reg := NewRegistry()
	stats := engine.Stats{FactsDerived: 3, Derivations: 5, DuplicateHits: 2, JoinProbes: 7, Iterations: 2}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				done := reg.QueryStarted()
				reg.QueueEnter()
				reg.ObserveQuery(stats, nil, time.Millisecond, OutcomeOK, "")
				reg.QueueLeave()
				done()
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				if _, err := ParseExposition(strings.NewReader(sb.String())); err != nil {
					t.Errorf("mid-flight scrape invalid: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := reg.Snapshot()
	if s.Queries[OutcomeOK] != 2000 || s.FactsDerived != 6000 {
		t.Errorf("after concurrent observes: %+v", s)
	}
	if s.InFlight != 0 || s.QueueDepth != 0 {
		t.Errorf("gauges did not return to zero: %+v", s)
	}
}
