package parser

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen"
	"repro/internal/source"
	"repro/internal/suite"
)

// unitExprs lists every expression node reachable from a unit —
// declaration bounds and values, statement operands, and all their
// subexpressions — once per node.
func unitExprs(u *ast.Unit) []ast.Expr {
	var out []ast.Expr
	seen := make(map[ast.Expr]bool)
	add := func(e ast.Expr) {
		ast.WalkExpr(e, func(x ast.Expr) bool {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
			return true
		})
	}
	for _, d := range u.Decls {
		var items []*ast.DeclItem
		switch x := d.(type) {
		case *ast.VarDecl:
			items = x.Items
		case *ast.CommonDecl:
			items = x.Items
		case *ast.DimensionDecl:
			items = x.Items
		case *ast.ParamDecl:
			for _, v := range x.Values {
				add(v)
			}
		case *ast.DataDecl:
			for _, v := range x.Values {
				add(v)
			}
		}
		for _, it := range items {
			for _, dim := range it.Dims {
				add(dim)
			}
		}
	}
	ast.WalkStmts(u.Body, func(s ast.Stmt) bool {
		for _, e := range ast.ExprsOf(s) {
			add(e)
		}
		return true
	})
	return out
}

// checkExprIDs asserts the ID contract on one unit: distinct nodes
// carry distinct IDs, all in [0, NumExprs), and (the parser creating no
// node it then drops) every ID in that range is used.
func checkExprIDs(t *testing.T, where string, u *ast.Unit) {
	t.Helper()
	es := unitExprs(u)
	owner := make(map[int32]ast.Expr, len(es))
	for _, e := range es {
		id := e.ExprID()
		if id < 0 || int(id) >= u.NumExprs {
			t.Fatalf("%s %s: %s has ID %d outside [0, %d)", where, u.Name, ast.ExprString(e), id, u.NumExprs)
		}
		if prev, dup := owner[id]; dup {
			t.Fatalf("%s %s: ID %d shared by %s and %s", where, u.Name, id, ast.ExprString(prev), ast.ExprString(e))
		}
		owner[id] = e
	}
	if len(es) != u.NumExprs {
		t.Fatalf("%s %s: %d expressions reachable, NumExprs %d", where, u.Name, len(es), u.NumExprs)
	}
}

// TestExprIDContract: over the suite, generated programs and deep
// clones of both, every unit's expressions are numbered densely from 0.
// Numbering restarts per unit, so the IDs survive parsing a unit alone.
func TestExprIDContract(t *testing.T) {
	sources := make(map[string]string)
	for _, spec := range suite.Programs() {
		sources[spec.Name] = suite.Source(spec)
	}
	for _, seed := range []int64{1, 3, 17, 42} {
		sources[fmt.Sprintf("gen-%d", seed)] = gen.Program(gen.Config{Seed: seed, NumProcs: 12, WithReads: true})
	}
	for name, src := range sources {
		var diags source.ErrorList
		f := ParseSource(name+".f", src, &diags)
		if diags.HasErrors() {
			t.Fatalf("%s: %s", name, diags.Error())
		}
		for _, u := range f.Units {
			checkExprIDs(t, name, u)
			c := ast.CloneUnit(u)
			checkExprIDs(t, name+" (clone)", c)
			ce, oe := unitExprs(c), unitExprs(u)
			for i := range oe {
				if ce[i].ExprID() != oe[i].ExprID() {
					t.Fatalf("%s %s: clone renumbered %s from %d to %d", name, u.Name, ast.ExprString(oe[i]), oe[i].ExprID(), ce[i].ExprID())
				}
			}
		}
		// A unit parsed on its own (as incremental re-parses do) gets the
		// same numbering it had inside the whole file.
		last := f.Units[len(f.Units)-1]
		alone := ParseSource(name+"-unit.f", src[last.Pos().Offset:], &diags)
		if len(alone.Units) != 1 {
			t.Fatalf("%s: unit %s parsed alone gives %d units", name, last.Name, len(alone.Units))
		}
		if got := alone.Units[0]; got.NumExprs != last.NumExprs {
			t.Fatalf("%s: unit %s parsed alone has NumExprs %d, want %d", name, last.Name, got.NumExprs, last.NumExprs)
		}
		checkExprIDs(t, name+" (alone)", alone.Units[0])
	}
}
