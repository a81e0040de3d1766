package engine

import "existdlog/internal/ast"

// Answers returns the rows of the query predicate that match the goal atom
// q: constants in q act as selections, repeated variables as equality
// constraints. Rows are decoded to constant names and sorted. Positions
// holding anonymous variables are retained (callers drop them if desired);
// the engine computes whole tuples of the (already projected) query
// predicate. A relation of another arity than q answers nil.
func (res *Result) Answers(q ast.Atom) [][]string {
	rows, _ := res.DB.Select(q, false)
	return rows
}

// AnswerCount returns the number of matching rows for the goal atom.
func (res *Result) AnswerCount(q ast.Atom) int { return len(res.Answers(q)) }

// Tree is a derivation tree (Section 1.1 of the paper): the root fact, the
// rule that produced it (-1 for base facts), and the subtrees for the body
// facts of that rule application.
type Tree struct {
	Fact     FactRef
	Rule     int
	Children []*Tree
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int {
	n := 1
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

// Height returns the height of the tree (a base fact has height 1).
func (t *Tree) Height() int {
	h := 0
	for _, c := range t.Children {
		if ch := c.Height(); ch > h {
			h = ch
		}
	}
	return h + 1
}

// Derivation reconstructs the derivation tree of a derived fact recorded
// during an evaluation run with TrackProvenance. It returns false if the
// fact is unknown. Base facts yield single-node trees with Rule = -1.
// The justification recorded for each fact is its first derivation, whose
// body facts necessarily existed earlier, so the reconstruction always
// terminates.
func (res *Result) Derivation(key string, row []string) (*Tree, bool) {
	t := make(Tuple, len(row))
	for i, name := range row {
		id, ok := res.DB.Syms.Lookup(name)
		if !ok {
			return nil, false
		}
		t[i] = id
	}
	rel, ok := res.DB.Lookup(key)
	if !ok || !rel.Contains(t) {
		return nil, false
	}
	return res.buildTree(FactRef{Key: key, Row: t}), true
}

// RowStrings decodes a tuple of interned ids to constant names using the
// result's interner (for rendering derivation trees).
func (res *Result) RowStrings(row Tuple) []string {
	out := make([]string, len(row))
	for i, id := range row {
		out[i] = res.DB.Syms.Name(id)
	}
	return out
}

func (res *Result) buildTree(f FactRef) *Tree {
	if res.prov != nil {
		if m, ok := res.prov[f.Key]; ok {
			if j, ok := m.get(f.Row); ok {
				node := &Tree{Fact: f, Rule: j.Rule}
				for _, b := range j.Body {
					node.Children = append(node.Children, res.buildTree(b))
				}
				return node
			}
		}
	}
	return &Tree{Fact: f, Rule: -1}
}
