package engine

import (
	"errors"
	"fmt"
	"testing"

	"existdlog/internal/ast"
)

// TestSelect pins the one selection routine every serve read path uses:
// index probes on constants, repeated-variable filtering, anonymous
// positions dropped and deduplicated only when asked, sorted rows, and
// constants resolved without interning.
func TestSelect(t *testing.T) {
	db := NewDatabase()
	for _, e := range [][2]string{{"1", "2"}, {"1", "3"}, {"2", "2"}, {"3", "1"}, {"10", "2"}} {
		db.Add("e", e[0], e[1])
	}
	syms := db.Syms.Len()
	v, c, anon := ast.V, ast.C, ast.V("_")
	cases := []struct {
		goal     ast.Atom
		dropAnon bool
		want     string
	}{
		{ast.NewAtom("e", c("1"), v("X")), false, "[[1 2] [1 3]]"},
		{ast.NewAtom("e", v("X"), v("X")), false, "[[2 2]]"},
		{ast.NewAtom("e", v("X"), c("2")), false, "[[1 2] [10 2] [2 2]]"},
		{ast.NewAtom("e", c("1"), anon), false, "[[1 2] [1 3]]"},
		{ast.NewAtom("e", c("1"), anon), true, "[[1]]"},
		{ast.NewAtom("e", anon, c("2")), true, "[[2]]"},
		{ast.NewAtom("e", anon, anon), true, "[[]]"},
		{ast.NewAtom("e", c("1"), c("3")), true, "[[1 3]]"},
		{ast.NewAtom("e", c("fresh"), v("X")), true, "[]"},
		{ast.NewAtom("nosuch", c("1")), true, "[]"},
	}
	for _, tc := range cases {
		got, err := db.Select(tc.goal, tc.dropAnon)
		if err != nil {
			t.Fatalf("%s: %v", tc.goal, err)
		}
		if fmt.Sprint(got) != tc.want {
			t.Errorf("Select(%s, dropAnon=%v) = %v, want %s", tc.goal, tc.dropAnon, got, tc.want)
		}
	}
	if db.Syms.Len() != syms {
		t.Errorf("Select interned goal constants: %d symbols, had %d", db.Syms.Len(), syms)
	}
	if _, err := db.Select(ast.NewAtom("e", v("X")), false); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("arity mismatch: err = %v, want ErrArityMismatch", err)
	}
}
