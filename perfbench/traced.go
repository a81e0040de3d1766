package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"existdlog"
	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/parser"
	"existdlog/internal/server"
	"existdlog/internal/wal"
)

// span is one timed call into a layer. Times are offsets from the
// replay start; parent indexes the same request's spans (-1 at a root).
type span struct {
	name       string
	req        int32
	parent     int32
	start, end time.Duration
}

// recorder keeps one worker's spans in memory until the replay ends.
// With on false it records nothing but still serves the clock: the
// replay traces every other request, so the untraced half, sent under
// the same load, prices the tracing itself.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// add records a span that has already ended.
func (r *recorder) add(name string, req, parent int32, start, end time.Duration) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{name: name, req: req, parent: parent, start: start, end: end})
	return int32(len(r.spans) - 1)
}

// call times fn as a span under parent.
func (r *recorder) call(name string, req, parent int32, fn func()) {
	t := r.now()
	fn()
	r.add(name, req, parent, t, r.now())
}

// replayer re-runs a schedule in-process against the layers' public
// functions, with the server's evaluation options.
type replayer struct {
	prog  *ast.Program
	store *server.Store
	refs  map[string]uint64
	goals map[string]ast.Atom

	mu    sync.Mutex
	cache map[string]*compiled // goal shape -> optimized program
}

type compiled struct {
	prog *ast.Program
	goal ast.Atom
}

// shapeKey canonicalizes a goal as the server's compile cache does
// (its key function is not exported): predicate, constants, anonymous
// positions and the variable pattern.
func shapeKey(g ast.Atom) string {
	var sb strings.Builder
	sb.WriteString(g.Key())
	first := map[string]int{}
	for _, t := range g.Args {
		switch {
		case t.Kind == ast.Constant:
			fmt.Fprintf(&sb, ",c%d:%s", len(t.Name), t.Name)
		case t.IsAnon():
			sb.WriteString(",_")
		default:
			i, ok := first[t.Name]
			if !ok {
				i = len(first)
				first[t.Name] = i
			}
			fmt.Fprintf(&sb, ",v%d", i)
		}
	}
	return sb.String()
}

// replayStats are what the traced replay measures beyond its spans.
type replayStats struct {
	spans    []span
	results  []result
	rulesOut []int // rules in each freshly optimized program
	wrong    int
}

// newReplayer builds a private store on its own WAL directory.
func newReplayer(src, dir string, refs map[string]uint64, goals map[string]ast.Atom) (*replayer, error) {
	res, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	edb := engine.NewDatabase()
	if err := edb.AddAtoms(res.Facts); err != nil {
		return nil, err
	}
	st, err := server.NewStore(res.Program, edb, server.StoreConfig{WALDir: dir, SnapshotEvery: 1024, ReorderJoins: true})
	if err != nil {
		return nil, err
	}
	return &replayer{prog: res.Program, store: st, refs: refs, goals: goals, cache: map[string]*compiled{}}, nil
}

// replay runs the warm-up, then the main phase open loop with conns
// workers as the HTTP run does, then the probe writes. Main-phase
// operations with an even index are traced. Results are returned for
// main-phase operations only.
func (rp *replayer) replay(s *schedule, conns int) (*replayStats, error) {
	st := &replayStats{}
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	untraced := &recorder{t0: time.Now()}
	for _, o := range s.warm.ops {
		var r result
		if err := rp.do(untraced, 0, -1, o, &r, st); err != nil {
			fail(err)
		}
	}

	t0 := time.Now()
	recs := make([]*recorder, conns)
	for w := range recs {
		recs[w] = &recorder{t0: t0}
	}
	p := newPairs()
	st.results, _ = drive(&s.main, conns, t0, func(w, i int, r *result) {
		rec := recs[w]
		rec.on = i%2 == 0
		o := s.main.ops[i]
		root := rec.add("request", int32(i), -1, r.due, r.due)
		rec.add("workload.wait", int32(i), root, r.due, r.start)
		if o.kind == opRetract {
			<-p.ch(o.pair)
		}
		if err := rp.do(rec, int32(i), root, o, r, st); err != nil {
			fail(err)
		}
		if o.kind == opUpdate {
			close(p.ch(o.pair))
		}
		if root >= 0 {
			rec.spans[root].end = rec.now()
		}
	})
	// The probe writes follow the timed phase one at a time, as in the
	// HTTP run, so a read-only workload still traces its store layer.
	recs[0].on = true
	for j, o := range s.probe.ops {
		var r result
		if err := rp.do(recs[0], int32(len(s.main.ops)+j), -1, o, &r, st); err != nil {
			fail(err)
		}
	}
	for _, rec := range recs {
		st.spans = append(st.spans, rec.spans...)
	}
	return st, firstErr
}

// do performs one operation through the layers' public functions.
func (rp *replayer) do(rec *recorder, req, parent int32, o op, r *result, st *replayStats) error {
	r.kind = o.kind
	if o.kind != opRead {
		kind := wal.OpUpdate
		if o.kind == opRetract {
			kind = wal.OpRetract
		}
		f, err := walFact(o.fact)
		if err != nil {
			return err
		}
		rec.call("store", req, parent, func() {
			_, err = rp.store.Mutate(context.Background(), server.Mutation{Op: kind, Facts: []wal.Fact{f}})
		})
		r.ok = err == nil
		return err
	}

	// The server decodes the request body, then parses its goal.
	body, err := json.Marshal(queryBody{Goal: o.goal, TimeoutMS: requestTimeout.Milliseconds()})
	if err != nil {
		return err
	}
	var in queryBody
	rec.call("decode", req, parent, func() { err = json.Unmarshal(body, &in) })
	if err != nil {
		return err
	}
	var goal ast.Atom
	rec.call("parser", req, parent, func() { goal, err = parseGoal(in.Goal) })
	if err != nil {
		return err
	}
	key := shapeKey(goal)
	rp.mu.Lock()
	c, ok := rp.cache[key]
	rp.mu.Unlock()
	if !ok {
		// As in the server, a goal over a base relation runs as written.
		c = &compiled{prog: rp.prog, goal: goal}
		if rp.prog.Derived[goal.Key()] {
			rec.call("optimizer", req, parent, func() {
				prog := rp.prog.Clone()
				prog.Query = goal
				var res *existdlog.OptimizeResult
				res, err = existdlog.Optimize(prog, existdlog.DefaultOptions())
				if err == nil {
					c = &compiled{prog: res.Program, goal: res.Program.Query}
				}
			})
			if err != nil {
				return err
			}
			rp.mu.Lock()
			st.rulesOut = append(st.rulesOut, len(c.prog.Rules))
			rp.mu.Unlock()
		}
		rp.mu.Lock()
		rp.cache[key] = c
		rp.mu.Unlock()
	}
	var res *existdlog.EvalResult
	rec.call("engine", req, parent, func() {
		res, err = existdlog.EvalContext(context.Background(), c.prog, rp.store.Current().EDB,
			existdlog.EvalOptions{BooleanCut: true, Trace: true, ReorderJoins: true})
	})
	if err != nil {
		return err
	}
	// The server encodes indented JSON; the client decodes it and checks
	// the answer. The client's share runs here too, so the replay loads
	// the cores as the HTTP run does, but it is no server layer.
	var encoded []byte
	rec.call("encode", req, parent, func() {
		encoded, err = json.MarshalIndent(res.Answers(c.goal), "", "  ")
	})
	if err != nil {
		return err
	}
	var answers [][]string
	var sum uint64
	rec.call("client", req, parent, func() {
		if err = json.Unmarshal(encoded, &answers); err == nil {
			sum = digest(rp.goals[o.goal], answers)
		}
	})
	if err != nil {
		return err
	}
	if sum != rp.refs[o.goal] {
		// Counted, not returned: a wrong answer makes the run incorrect,
		// it does not abort it.
		r.wrong = true
		rp.mu.Lock()
		st.wrong++
		rp.mu.Unlock()
		return nil
	}
	r.ok = true
	return nil
}

// walFact parses one ground fact into its logged form.
func walFact(src string) (wal.Fact, error) {
	res, err := parser.Parse(src + ".")
	if err != nil {
		return wal.Fact{}, err
	}
	if len(res.Facts) != 1 {
		return wal.Fact{}, fmt.Errorf("%q is not one fact", src)
	}
	a := res.Facts[0]
	row := make([]string, len(a.Args))
	for i, t := range a.Args {
		row[i] = t.Name
	}
	return wal.Fact{Key: a.Key(), Row: row}, nil
}

// selfTimes returns each span's duration minus the time its children
// cover, keyed by span index. Children of one request never overlap:
// each worker runs one call at a time.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, sp := range spans {
		self[i] += sp.end - sp.start
		if sp.parent >= 0 {
			self[sp.parent] -= sp.end - sp.start
		}
	}
	return self
}

// writeReplay applies the schedule's writes to a private copy of the
// fixpoint through the engine's incremental maintenance and a private
// log, one record and one fsync per write, timing each layer.
func writeReplay(src, dir string, s *schedule, limit int) (maintain, syncT []time.Duration, err error) {
	prog, edb, err := existdlog.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	opts := existdlog.EvalOptions{ReorderJoins: true}
	mat, err := existdlog.Eval(prog, edb, opts)
	if err != nil {
		return nil, nil, err
	}
	log, _, err := wal.Open(filepath.Join(dir, "replay.log"))
	if err != nil {
		return nil, nil, err
	}
	defer log.Close()
	seq := uint64(0)
	for _, ph := range s.phases() {
		for _, o := range ph.ops {
			if o.kind == opRead || len(syncT) >= limit {
				continue
			}
			f, err := walFact(o.fact)
			if err != nil {
				return nil, nil, err
			}
			delta := engine.NewDatabase()
			delta.Add(f.Key, f.Row...)
			t := time.Now()
			if o.kind == opUpdate {
				mat, err = existdlog.Update(prog, mat, delta, opts)
			} else {
				mat, err = existdlog.Retract(prog, mat, delta, opts)
			}
			if err != nil {
				return nil, nil, err
			}
			maintain = append(maintain, time.Since(t))
			seq++
			op := wal.OpUpdate
			if o.kind == opRetract {
				op = wal.OpRetract
			}
			if err := log.Append(wal.Record{Seq: seq, Op: op, Facts: []wal.Fact{f}}); err != nil {
				return nil, nil, err
			}
			t = time.Now()
			if err := log.Sync(); err != nil {
				return nil, nil, err
			}
			syncT = append(syncT, time.Since(t))
		}
	}
	return maintain, syncT, nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
