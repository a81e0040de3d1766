package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"existdlog"
	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/parser"
)

// oracle answers goals from the served program evaluated as written:
// existdlog.Eval without Optimize, so reference answers never depend on
// the optimizer the served answers come from.
type oracle struct {
	db  *engine.Database
	idx map[string]map[string][][]string // "pred/pos" -> constant -> rows
}

// newOracle evaluates the program's full fixpoint over base, or over
// the program's own facts when base is nil.
func newOracle(src string, base *engine.Database) (*oracle, error) {
	prog, edb, err := existdlog.Parse(src)
	if err != nil {
		return nil, err
	}
	if base != nil {
		edb = base
	}
	res, err := existdlog.Eval(prog, edb, existdlog.EvalOptions{})
	if err != nil {
		return nil, fmt.Errorf("reference evaluation: %w", err)
	}
	return &oracle{db: res.DB, idx: map[string]map[string][][]string{}}, nil
}

// answers selects the goal's rows: constants select, repeated
// variables constrain. The first constant position is looked up in an
// index built on first use.
func (o *oracle) answers(g ast.Atom) [][]string {
	pos := -1
	for i, t := range g.Args {
		if t.Kind == ast.Constant {
			pos = i
			break
		}
	}
	var rows [][]string
	if pos < 0 {
		rows = o.db.Facts(g.Pred)
	} else {
		key := fmt.Sprintf("%s/%d", g.Pred, pos)
		ix, ok := o.idx[key]
		if !ok {
			ix = map[string][][]string{}
			for _, row := range o.db.Facts(g.Pred) {
				if pos < len(row) {
					ix[row[pos]] = append(ix[row[pos]], row)
				}
			}
			o.idx[key] = ix
		}
		rows = ix[g.Args[pos].Name]
	}
	var out [][]string
	for _, row := range rows {
		if len(row) == len(g.Args) && matches(g, row) {
			out = append(out, row)
		}
	}
	return out
}

func matches(g ast.Atom, row []string) bool {
	first := map[string]string{}
	for i, t := range g.Args {
		switch {
		case t.Kind == ast.Constant:
			if row[i] != t.Name {
				return false
			}
		case t.IsAnon():
		default:
			if v, ok := first[t.Name]; ok && v != row[i] {
				return false
			} else if !ok {
				first[t.Name] = row[i]
			}
		}
	}
	return true
}

// parseGoal parses a goal the way the server does.
func parseGoal(goal string) (ast.Atom, error) {
	res, err := parser.Parse("?- " + goal + ".")
	if err != nil {
		return ast.Atom{}, err
	}
	return res.Program.Query, nil
}

// digest canonicalizes an answer set. The optimizer serves a goal's
// projection, dropping don't-care positions, so rows as wide as the
// goal are projected onto its non-anonymous positions first; then rows
// are sorted, deduplicated and hashed.
func digest(g ast.Atom, rows [][]string) uint64 {
	keys := make([]string, 0, len(rows))
	for _, row := range rows {
		if len(row) == len(g.Args) {
			var kept []string
			for i, t := range g.Args {
				if !t.IsAnon() {
					kept = append(kept, row[i])
				}
			}
			row = kept
		}
		keys = append(keys, strings.Join(row, "\x00"))
	}
	sort.Strings(keys)
	h := fnv.New64a()
	prev := ""
	for i, k := range keys {
		if i > 0 && k == prev {
			continue
		}
		h.Write([]byte(k))
		h.Write([]byte{1})
		prev = k
	}
	return h.Sum64()
}

// references computes the reference digest of every distinct goal the
// schedule sends.
func references(src string, s *schedule) (map[string]uint64, map[string]ast.Atom, error) {
	or, err := newOracle(src, nil)
	if err != nil {
		return nil, nil, err
	}
	refs := map[string]uint64{}
	goals := map[string]ast.Atom{}
	for _, ph := range s.phases() {
		for _, o := range ph.ops {
			if o.kind != opRead {
				continue
			}
			if _, ok := refs[o.goal]; ok {
				continue
			}
			g, err := parseGoal(o.goal)
			if err != nil {
				return nil, nil, fmt.Errorf("goal %q: %w", o.goal, err)
			}
			refs[o.goal] = digest(g, or.answers(g))
			goals[o.goal] = g
		}
	}
	return refs, goals, nil
}
