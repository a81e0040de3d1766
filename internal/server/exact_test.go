package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"existdlog"
	"existdlog/internal/ast"
)

// exactSrc is transitive closure over a 12-node universe plus tri, a
// derived relation no goal below asks for. tri makes the full fixpoint
// much larger than tc alone (286 facts on the initial chain, tc at most
// 144), so exactMaxFacts disables the store's materialization while
// every per-goal evaluation of a tc goal still completes.
const exactSrc = `tc(X,Y) :- e(X,Y).
tc(X,Y) :- e(X,Z), tc(Z,Y).
tri(X,Y,Z) :- tc(X,Y), tc(Y,Z).
e(0,1). e(1,2). e(2,3). e(3,4). e(4,5). e(5,6).
e(6,7). e(7,8). e(8,9). e(9,10). e(10,11).
`

const (
	exactNodes    = 12
	exactMaxFacts = 150
)

// exactGoal draws one goal of every shape the read paths must agree on:
// point, boolean, anonymous positions, a repeated variable, the full
// closure, a fresh constant, a base relation, and an arity mismatch.
func exactGoal(rng *rand.Rand) string {
	k := func() int { return rng.Intn(exactNodes) }
	switch rng.Intn(9) {
	case 0:
		return fmt.Sprintf("tc(%d,X)", k())
	case 1:
		return fmt.Sprintf("tc(%d,%d)", k(), k())
	case 2:
		return fmt.Sprintf("tc(%d,_)", k())
	case 3:
		return fmt.Sprintf("tc(_,%d)", k())
	case 4:
		return "tc(X,X)"
	case 5:
		return "tc(X,Y)"
	case 6:
		return fmt.Sprintf("tc(fresh%d,X)", rng.Intn(1<<20))
	case 7:
		return fmt.Sprintf("e(%d,X)", k())
	default:
		return "tc(X)"
	}
}

// exactReply is one /query exchange kept for checking after the run.
type exactReply struct {
	goal   string
	status int
	resp   queryResponse
}

func askQuery(url, goal string) (exactReply, error) {
	body, _ := json.Marshal(map[string]string{"goal": goal})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return exactReply{}, err
	}
	defer resp.Body.Close()
	r := exactReply{goal: goal, status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&r.resp)
	}
	return r, err
}

// exactModel is the reference base state of every store version the
// run installed: the e facts after each acknowledged write.
type exactModel struct {
	prog   *ast.Program
	mu     sync.Mutex
	states map[uint64]map[[2]string]bool
}

func newExactModel(t *testing.T) *exactModel {
	prog, edb, err := existdlog.Parse(exactSrc)
	if err != nil {
		t.Fatal(err)
	}
	first := map[[2]string]bool{}
	for _, row := range edb.Facts("e") {
		first[[2]string{row[0], row[1]}] = true
	}
	return &exactModel{prog: prog, states: map[uint64]map[[2]string]bool{0: first}}
}

// write sends one mutation, checks that it installed exactly the next
// version, and records that version's reference state.
func (m *exactModel) write(t *testing.T, url string, seq uint64, op string, a, b int) uint64 {
	t.Helper()
	f := [2]string{fmt.Sprint(a), fmt.Sprint(b)}
	resp, out := postJSON(t, url+"/"+op, fmt.Sprintf(`{"facts": ["e(%s,%s)"]}`, f[0], f[1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s e(%s,%s): status %d (%v)", op, f[0], f[1], resp.StatusCode, out)
	}
	got := uint64(out["seq"].(float64))
	if got != seq+1 {
		t.Fatalf("%s acknowledged seq %d, want %d", op, got, seq+1)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	next := map[[2]string]bool{}
	for k := range m.states[seq] {
		next[k] = true
	}
	if op == "update" {
		next[f] = true
	} else {
		delete(next, f)
	}
	m.states[got] = next
	return got
}

// expect answers goal at version seq from a scratch, unoptimized
// evaluation of the reference state: constants select, repeated
// variables filter, and a derived goal's anonymous positions are
// projected away, as the optimized program serving it does.
func (m *exactModel) expect(t *testing.T, seq uint64, goal string) [][]string {
	t.Helper()
	m.mu.Lock()
	state, ok := m.states[seq]
	m.mu.Unlock()
	if !ok {
		t.Fatalf("%s answered at seq %d, a version no write installed", goal, seq)
	}
	db := existdlog.NewDatabase()
	for f := range state {
		db.Add("e", f[0], f[1])
	}
	res, err := existdlog.Eval(m.prog, db, existdlog.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := parseGoal(goal)
	if err != nil {
		t.Fatal(err)
	}
	project := m.prog.Derived[g.Key()]
	seen := map[string]bool{}
	out := [][]string{}
	for _, row := range res.DB.Facts(g.Key()) {
		bound := map[string]string{}
		var kept []string
		match := true
		for i, a := range g.Args {
			switch {
			case a.Kind == ast.Constant:
				match = match && row[i] == a.Name
			case a.IsAnon():
				if project {
					continue
				}
			default:
				if v, ok := bound[a.Name]; ok {
					match = match && row[i] == v
				}
				bound[a.Name] = row[i]
			}
			kept = append(kept, row[i])
		}
		key := strings.Join(kept, "\x00")
		if match && !seen[key] {
			seen[key] = true
			out = append(out, append([]string{}, kept...))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// check asserts that every reply is exact for the version it pinned and
// names the read path that version allows. wantPath maps a reply's seq
// to the path a derived goal must have taken.
func (m *exactModel) check(t *testing.T, replies []exactReply, wantPath func(seq uint64) string) map[string]int {
	t.Helper()
	paths := map[string]int{}
	for _, r := range replies {
		if r.goal == "tc(X)" {
			if r.status != http.StatusBadRequest {
				t.Errorf("arity mismatch %s: status %d, want 400", r.goal, r.status)
			}
			continue
		}
		if r.status != http.StatusOK {
			t.Errorf("%s: status %d", r.goal, r.status)
			continue
		}
		q := r.resp
		want := pathBase
		if strings.HasPrefix(r.goal, "tc(") {
			want = wantPath(q.Seq)
		}
		if q.Path != want {
			t.Errorf("%s at seq %d: path %q, want %q", r.goal, q.Seq, q.Path, want)
		}
		if q.Partial {
			t.Errorf("%s at seq %d: partial answer (%s)", r.goal, q.Seq, q.Incomplete)
		}
		if q.Path != pathEvaluated && q.Stats != (statsJSON{}) {
			t.Errorf("%s on path %s reported evaluation stats %+v", r.goal, q.Path, q.Stats)
		}
		if exp := m.expect(t, q.Seq, r.goal); !reflect.DeepEqual(q.Answers, exp) {
			t.Errorf("%s at seq %d (path %s): answers %v, want %v", r.goal, q.Seq, q.Path, q.Answers, exp)
		}
		paths[q.Path]++
	}
	return paths
}

// exactRound writes a seeded sequence of updates and retracts while
// queriers ask seeded goals concurrently, and returns every reply with
// the last acknowledged seq. With writes == 0 it only queries.
func (m *exactModel) exactRound(t *testing.T, url string, seed int64, seq uint64, writes, minQueries int) ([]exactReply, uint64) {
	t.Helper()
	const queriers = 3
	var mu sync.Mutex
	var replies []exactReply
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(w)))
			for n := 0; ; n++ {
				if n >= minQueries {
					select {
					case <-done:
						return
					default:
					}
				}
				r, err := askQuery(url, exactGoal(rng))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				replies = append(replies, r)
				mu.Unlock()
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < writes; i++ {
		op := "update"
		if rng.Intn(5) < 2 {
			op = "retract"
		}
		seq = m.write(t, url, seq, op, rng.Intn(exactNodes), rng.Intn(exactNodes))
	}
	close(done)
	wg.Wait()
	return replies, seq
}

// TestServedAnswersExactAtPinnedSeq drives seeded update/retract
// sequences against concurrent queries and checks every answer against
// a scratch evaluation of the reference base state at the seq the
// response names, across the evaluated path (before the first write,
// and with materialization disabled by MaxFacts) and the materialized
// path (after writes, and again after a restart that recovers the
// store from its WAL).
func TestServedAnswersExactAtPinnedSeq(t *testing.T) {
	writes, queries := 40, 30
	if testing.Short() {
		writes, queries = 12, 10
	}
	m := newExactModel(t)
	dir := t.TempDir()
	start := func(cfg Config) (*Server, *httptest.Server) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}
	stop := func(s *Server, ts *httptest.Server) {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	s, ts := start(Config{Source: exactSrc, WALDir: dir})
	replies, _ := m.exactRound(t, ts.URL, 1, 0, 0, queries)
	paths := m.check(t, replies, func(uint64) string { return pathEvaluated })
	t.Logf("before the first write: %v", paths)

	replies, seq := m.exactRound(t, ts.URL, 2, 0, writes, queries)
	materialized := func(from uint64) func(uint64) string {
		return func(seq uint64) string {
			if seq > from {
				return pathMaterialized
			}
			return pathEvaluated
		}
	}
	paths = m.check(t, replies, materialized(0))
	t.Logf("under writes: %v", paths)
	if paths[pathMaterialized] == 0 {
		t.Error("no answer came from the materialized fixpoint")
	}
	stop(s, ts)

	// Restart on the same log: the recovered store has no Mat until its
	// first write.
	s, ts = start(Config{Source: exactSrc, WALDir: dir})
	defer stop(s, ts)
	if got := s.Store().Current().Seq; got != seq {
		t.Fatalf("recovered seq %d, want %d", got, seq)
	}
	replies, seq = m.exactRound(t, ts.URL, 3, seq, writes, queries)
	recovered := seq - uint64(writes)
	paths = m.check(t, replies, materialized(recovered))
	t.Logf("after recovery: %v", paths)
	if paths[pathMaterialized] == 0 {
		t.Error("no answer came from the recovered store's materialized fixpoint")
	}

	// Fresh constants are looked up, never interned: neither the base
	// facts' nor the fixpoint's symbol table grows however many arrive.
	v := s.Store().Current()
	edbSyms, matSyms := v.EDB.Syms.Len(), v.Mat.DB.Syms.Len()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		goal := fmt.Sprintf([]string{"tc(new%d,X)", "tc(X,new%d)", "e(new%d,_)"}[i%3], rng.Int())
		r, err := askQuery(ts.URL, goal)
		if err != nil {
			t.Fatal(err)
		}
		if r.status != http.StatusOK || r.resp.Count != 0 {
			t.Fatalf("%s: status %d, %d answers; want 200 and none", goal, r.status, r.resp.Count)
		}
	}
	if v2 := s.Store().Current(); v2 != v || v.EDB.Syms.Len() != edbSyms || v.Mat.DB.Syms.Len() != matSyms {
		t.Errorf("symbols grew across fresh-constant queries: base %d -> %d, fixpoint %d -> %d",
			edbSyms, v.EDB.Syms.Len(), matSyms, v.Mat.DB.Syms.Len())
	}

	// MaxFacts below the full fixpoint disables materialization: every
	// derived goal keeps evaluating, exactly, under writes.
	m = newExactModel(t)
	s2, ts2 := start(Config{Source: exactSrc, MaxFacts: exactMaxFacts})
	defer stop(s2, ts2)
	edbSyms = s2.Store().Current().EDB.Syms.Len()
	replies, _ = m.exactRound(t, ts2.URL, 5, 0, writes, queries)
	paths = m.check(t, replies, func(uint64) string { return pathEvaluated })
	t.Logf("materialization disabled: %v", paths)
	if v := s2.Store().Current(); v.Mat != nil {
		t.Error("MaxFacts below the fixpoint still materialized")
	} else if v.EDB.Syms.Len() != edbSyms {
		t.Errorf("evaluated fresh-constant queries grew the base symbols %d -> %d", edbSyms, v.EDB.Syms.Len())
	}
}
