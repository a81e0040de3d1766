package engine

import (
	"errors"
	"fmt"
	"sort"

	"existdlog/internal/ast"
)

// ErrArityMismatch is the sentinel matched (via errors.Is) by every arity
// mismatch the database reports, whether returned directly from AddAtom or
// carried out of an internal invariant violation by an InternalError.
var ErrArityMismatch = errors.New("engine: relation arity mismatch")

// ArityMismatchError reports a relation addressed with the wrong arity: Key
// already exists with arity Have, but a tuple or lookup of arity Want was
// applied to it. errors.Is(err, ErrArityMismatch) matches it.
type ArityMismatchError struct {
	Key  string
	Want int // the arity requested
	Have int // the arity the existing relation has
}

func (e *ArityMismatchError) Error() string {
	return fmt.Sprintf("engine: relation %s: arity %d requested, have %d", e.Key, e.Want, e.Have)
}

func (e *ArityMismatchError) Is(target error) bool { return target == ErrArityMismatch }

// Database is a set of named relations sharing one constant interner. It
// serves both as the extensional database and as the output of an
// evaluation (which adds the derived relations).
type Database struct {
	Syms *Symbols
	rels map[string]*Relation
}

// NewDatabase returns an empty database with a fresh interner.
func NewDatabase() *Database {
	return &Database{Syms: NewSymbols(), rels: make(map[string]*Relation)}
}

// Relation returns the relation for key, creating an empty one of the
// given arity if absent. A mismatch with an existing relation is a
// programming error upstream, raised as a typed *ArityMismatchError panic;
// the API boundaries (Eval, Parse, …) recover it into a returned error
// that still matches errors.Is(err, ErrArityMismatch). Input-validating
// paths (AddAtom, LoadCSV) check arities before insertion and return the
// error directly instead.
func (db *Database) Relation(key string, arity int) *Relation {
	if r, ok := db.rels[key]; ok {
		if r.Arity() != arity {
			panic(&ArityMismatchError{Key: key, Want: arity, Have: r.Arity()})
		}
		return r
	}
	r := NewRelation(arity)
	db.rels[key] = r
	return r
}

// Has reports whether a relation named key exists.
func (db *Database) Has(key string) bool {
	_, ok := db.rels[key]
	return ok
}

// Lookup returns the relation for key if present.
func (db *Database) Lookup(key string) (*Relation, bool) {
	r, ok := db.rels[key]
	return r, ok
}

// Keys returns the relation names, sorted.
func (db *Database) Keys() []string {
	out := make([]string, 0, len(db.rels))
	for k := range db.rels {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Add interns the constant names and inserts the tuple into relation key.
// It reports whether the tuple was new.
func (db *Database) Add(key string, consts ...string) bool {
	t := make(Tuple, len(consts))
	for i, c := range consts {
		t[i] = db.Syms.Intern(c)
	}
	return db.Relation(key, len(consts)).Insert(t)
}

// CheckArity returns a typed *ArityMismatchError when relation key exists
// with a different arity, nil otherwise. Input paths call it before
// inserting so malformed data surfaces as an error, not a panic.
func (db *Database) CheckArity(key string, arity int) error {
	if r, ok := db.rels[key]; ok && r.Arity() != arity {
		return &ArityMismatchError{Key: key, Want: arity, Have: r.Arity()}
	}
	return nil
}

// AddAtom inserts a ground atom as a fact. Facts whose predicate already
// exists with a different arity are rejected with an error matching
// ErrArityMismatch.
func (db *Database) AddAtom(a ast.Atom) error {
	consts := make([]string, len(a.Args))
	for i, t := range a.Args {
		if t.Kind != ast.Constant {
			return fmt.Errorf("fact %s is not ground", a)
		}
		consts[i] = t.Name
	}
	if err := db.CheckArity(a.Key(), len(consts)); err != nil {
		return fmt.Errorf("fact %s: %w", a, err)
	}
	db.Add(a.Key(), consts...)
	return nil
}

// AddAtoms inserts ground atoms, stopping at the first error.
func (db *Database) AddAtoms(facts []ast.Atom) error {
	for _, f := range facts {
		if err := db.AddAtom(f); err != nil {
			return err
		}
	}
	return nil
}

// Facts returns relation key's tuples decoded to constant names, sorted
// lexicographically, for stable output in tests and reports.
func (db *Database) Facts(key string) [][]string {
	r, ok := db.rels[key]
	if !ok {
		return nil
	}
	out := make([][]string, 0, r.Len())
	for ti := 0; ti < r.Len(); ti++ {
		out = append(out, db.decode(r.Tuple(ti)))
	}
	sortRows(out)
	return out
}

// Select answers the goal atom q from relation q.Key(): constants in q
// probe the relation's index on their positions, and repeated variables
// filter the matches. With dropAnon, positions holding anonymous
// variables are left out of the rows and the narrowed rows are
// deduplicated on their interned ids before decoding, which is how an
// optimized program whose projections were pushed answers the same
// goal. Rows are decoded and sorted lexicographically.
//
// Goal constants are resolved with Syms.Lookup, never interned: a
// constant the database has never seen selects nothing, and a query
// cannot grow the interner. An absent relation answers nil; a relation
// of another arity is an *ArityMismatchError.
func (db *Database) Select(q ast.Atom, dropAnon bool) ([][]string, error) {
	rel, ok := db.rels[q.Key()]
	if !ok {
		return nil, nil
	}
	if rel.Arity() != len(q.Args) {
		return nil, &ArityMismatchError{Key: q.Key(), Want: len(q.Args), Have: rel.Arity()}
	}
	var cols []int
	var vals []int32
	var same [][2]int // (position, earlier position of the same variable)
	keep := make([]int, 0, len(q.Args))
	first := make(map[string]int)
	for i, a := range q.Args {
		switch {
		case a.Kind == ast.Constant:
			id, found := db.Syms.Lookup(a.Name)
			if !found {
				return nil, nil
			}
			cols = append(cols, i)
			vals = append(vals, id)
		case a.IsAnon():
			if dropAnon {
				continue
			}
		default:
			if j, seen := first[a.Name]; seen {
				same = append(same, [2]int{i, j})
			} else {
				first[a.Name] = i
			}
		}
		keep = append(keep, i)
	}
	// Rows narrowed by dropped positions can repeat; a scratch relation
	// dedupes them on ids, before any name is decoded.
	var uniq *Relation
	if len(keep) < rel.Arity() {
		uniq = NewRelation(len(keep))
	}
	var out [][]string
	row := make(Tuple, len(keep))
	visit := func(t Tuple) {
		for _, p := range same {
			if t[p[0]] != t[p[1]] {
				return
			}
		}
		for k, i := range keep {
			row[k] = t[i]
		}
		if uniq != nil && !uniq.Insert(row) {
			return
		}
		out = append(out, db.decode(row))
	}
	if len(cols) == 0 {
		for ti := 0; ti < rel.Len(); ti++ {
			visit(rel.Tuple(ti))
		}
	} else {
		for _, ti := range rel.Match(cols, vals) {
			visit(rel.Tuple(int(ti)))
		}
	}
	sortRows(out)
	return out, nil
}

// decode maps a tuple of interned ids to constant names.
func (db *Database) decode(t Tuple) []string {
	row := make([]string, len(t))
	for i, id := range t {
		row[i] = db.Syms.Name(id)
	}
	return row
}

// sortRows orders decoded rows lexicographically, column by column.
func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// Count returns the number of tuples in relation key (0 if absent).
func (db *Database) Count(key string) int {
	if r, ok := db.rels[key]; ok {
		return r.Len()
	}
	return 0
}

// TotalFacts returns the number of tuples across all relations.
func (db *Database) TotalFacts() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// Clone returns an isolated copy: relations and the interner are cloned
// copy-on-write, so the copy is O(#relations) and either side can mutate
// without the other observing it.
func (db *Database) Clone() *Database {
	c := &Database{Syms: db.Syms.Clone(), rels: make(map[string]*Relation, len(db.rels))}
	for k, r := range db.rels {
		c.rels[k] = r.Clone()
	}
	return c
}

// ActiveDomain returns the set of constant ids appearing in any tuple of
// any relation, sorted.
func (db *Database) ActiveDomain() []int32 {
	seen := make(map[int32]bool)
	for _, r := range db.rels {
		for ti := 0; ti < r.Len(); ti++ {
			for _, id := range r.Tuple(ti) {
				seen[id] = true
			}
		}
	}
	out := make([]int32, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Replace swaps in a new relation for key (used by incremental
// retraction, which rebuilds relations without the deleted tuples).
func (db *Database) Replace(key string, rel *Relation) {
	db.rels[key] = rel
}

// RemoveFacts deletes the given rows from relation key and returns how
// many were actually present. Like incremental retraction, it rebuilds
// the relation without the deleted tuples (relations have no in-place
// delete: indexes and insertion order are append-only), so callers
// should batch removals rather than loop over single rows. Rows naming
// unknown constants or absent tuples are ignored.
func (db *Database) RemoveFacts(key string, rows [][]string) int {
	rel, ok := db.rels[key]
	if !ok {
		return 0
	}
	dead := NewRelation(rel.Arity())
	for _, row := range rows {
		if len(row) != rel.Arity() {
			continue
		}
		t := make(Tuple, len(row))
		miss := false
		for i, name := range row {
			id, ok := db.Syms.Lookup(name)
			if !ok {
				miss = true
				break
			}
			t[i] = id
		}
		if miss || !rel.Contains(t) {
			continue
		}
		dead.Insert(t)
	}
	if dead.Len() == 0 {
		return 0
	}
	fresh := NewRelation(rel.Arity())
	for ti := 0; ti < rel.Len(); ti++ {
		t := rel.Tuple(ti)
		if !dead.Contains(t) {
			fresh.Insert(t)
		}
	}
	db.rels[key] = fresh
	return dead.Len()
}
