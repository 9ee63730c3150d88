package ast

import (
	"strings"
	"testing"

	"repro/internal/source"
)

// fullFile builds a File exercising every node kind the writer and the
// cloner must handle.
func fullFile() *File {
	i := func(v int64) Expr { return &IntLit{Value: v} }
	id := func(n string) Expr { return &Ident{Name: n} }

	mainUnit := &Unit{
		Kind: ProgramUnit,
		Name: "MAIN",
		Decls: []Decl{
			&VarDecl{Type: TypeInteger, Items: []*DeclItem{
				{Name: "I"},
				{Name: "A", Dims: []Expr{i(10)}},
				{Name: "B", Dims: []Expr{id("N"), i(3)}},
			}},
			&VarDecl{Type: TypeReal, Items: []*DeclItem{{Name: "X"}}},
			&VarDecl{Type: TypeLogical, Items: []*DeclItem{{Name: "FLAG"}}},
			&CommonDecl{Block: "BLK", Items: []*DeclItem{{Name: "N"}, {Name: "M"}}},
			&ParamDecl{Names: []string{"KP"}, Values: []Expr{i(7)}},
			&DimensionDecl{Items: []*DeclItem{{Name: "C", Dims: []Expr{i(4)}}}},
			&DataDecl{Names: []string{"N"}, Values: []Expr{&Unary{Op: OpNeg, X: i(2)}}},
		},
		Body: []Stmt{
			&AssignStmt{Lhs: id("I"), Rhs: &Binary{Op: OpAdd, X: id("N"), Y: i(1)}},
			&AssignStmt{Lhs: &Apply{Name: "A", Args: []Expr{id("I")}}, Rhs: id("I")},
			&CallStmt{Name: "WORK", Args: []Expr{id("I"), &Apply{Name: "MOD", Args: []Expr{id("I"), i(2)}}}},
			&IfStmt{Cond: &Binary{Op: OpGt, X: id("I"), Y: i(0)},
				Then:    []Stmt{&AssignStmt{Lhs: id("I"), Rhs: i(1)}},
				ElseIfs: []*ElseIfClause{{Cond: &Binary{Op: OpLt, X: id("I"), Y: i(0)}, Body: []Stmt{&ContinueStmt{}}}},
				Else:    []Stmt{&AssignStmt{Lhs: id("I"), Rhs: i(2)}},
			},
			&IfStmt{Cond: &LogLit{Value: true}, Logical: true,
				Then: []Stmt{&GotoStmt{Target: "10"}}},
			&DoStmt{Var: "I", From: i(1), To: id("N"), Step: i(2),
				Body: []Stmt{&PrintStmt{Args: []Expr{id("I"), &StrLit{Value: "it's"}}}}},
			func() Stmt {
				s := &DoStmt{Var: "I", From: i(1), To: i(3), EndLabel: "10",
					Body: []Stmt{func() Stmt { c := &ContinueStmt{}; c.SetLabel("10"); return c }()}}
				return s
			}(),
			&ComputedGotoStmt{Targets: []string{"20", "30"}, Index: id("I")},
			func() Stmt { c := &ContinueStmt{}; c.SetLabel("20"); return c }(),
			func() Stmt { c := &ContinueStmt{}; c.SetLabel("30"); return c }(),
			&ArithIfStmt{Expr: &Binary{Op: OpSub, X: id("I"), Y: i(1)}, LtLabel: "20", EqLabel: "30", GtLabel: "20"},
			&ReadStmt{Args: []Expr{id("I"), &Apply{Name: "A", Args: []Expr{i(1)}}}},
			&StopStmt{},
		},
	}
	sub := &Unit{
		Kind:   SubroutineUnit,
		Name:   "WORK",
		Params: []*Param{{Name: "P1"}, {Name: "P2"}},
		Body: []Stmt{
			&AssignStmt{Lhs: id("P1"), Rhs: &Unary{Op: OpNeg, X: id("P2")}},
			&ReturnStmt{},
		},
	}
	fn := &Unit{
		Kind:   FunctionUnit,
		Name:   "SQUARE",
		Result: TypeInteger,
		Params: []*Param{{Name: "V"}},
		Body: []Stmt{
			&AssignStmt{Lhs: id("SQUARE"), Rhs: &Binary{Op: OpPow, X: id("V"), Y: i(2)}},
		},
	}
	return &File{Source: source.NewFile("full.f", ""), Units: []*Unit{mainUnit, sub, fn}}
}

func TestWriterCoversAllNodes(t *testing.T) {
	out := FileString(fullFile())
	for _, want := range []string{
		"PROGRAM MAIN",
		"INTEGER I, A(10), B(N, 3)",
		"REAL X",
		"LOGICAL FLAG",
		"COMMON /BLK/ N, M",
		"PARAMETER (KP = 7)",
		"DIMENSION C(4)",
		"DATA N / -2 /",
		"A(I) = I",
		"CALL WORK(I, MOD(I, 2))",
		"ELSEIF (I .LT. 0) THEN",
		"IF (.TRUE.) GOTO 10",
		"DO I = 1, N, 2",
		"'it''s'",
		"DO 10 I = 1, 3",
		"10 CONTINUE",
		"GOTO (20, 30), I",
		"IF (I - 1) 20, 30, 20",
		"READ *, I, A(1)",
		"STOP",
		"SUBROUTINE WORK(P1, P2)",
		"P1 = -P2",
		"RETURN",
		"INTEGER FUNCTION SQUARE(V)",
		"SQUARE = V**2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("writer output missing %q:\n%s", want, out)
		}
	}
}

func TestCloneIsDeepAndFaithful(t *testing.T) {
	f := fullFile()
	var clones []*Unit
	for _, u := range f.Units {
		clones = append(clones, CloneUnit(u))
	}
	cf := &File{Source: f.Source, Units: clones}
	if FileString(cf) != FileString(f) {
		t.Fatalf("clone prints differently:\n--- original ---\n%s\n--- clone ---\n%s",
			FileString(f), FileString(cf))
	}
	// Mutating the clone must not affect the original.
	clones[0].Name = "CHANGED"
	clones[0].Body[0].(*AssignStmt).Lhs.(*Ident).Name = "ZZ"
	orig := FileString(f)
	if strings.Contains(orig, "CHANGED") || strings.Contains(orig, "ZZ = ") {
		t.Error("clone shares nodes with the original")
	}
}

func TestWriteFileSubstInPackage(t *testing.T) {
	f := fullFile()
	// Substitute the N in "I = N + 1".
	target := f.Units[0].Body[0].(*AssignStmt).Rhs.(*Binary).X
	var b strings.Builder
	err := WriteFileSubst(&b, f, map[Expr]string{target: "99"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "I = 99 + 1") {
		t.Errorf("substitution missing:\n%s", b.String())
	}
	// The same expression node elsewhere is untouched (target is unique).
	if !strings.Contains(b.String(), "DO I = 1, N, 2") {
		t.Errorf("unrelated N was substituted:\n%s", b.String())
	}
}

func TestCloneDeclsIndependent(t *testing.T) {
	orig := &VarDecl{Type: TypeInteger, Items: []*DeclItem{{Name: "A", Dims: []Expr{&IntLit{Value: 5}}}}}
	c := CloneDecl(orig).(*VarDecl)
	c.Items[0].Name = "B"
	c.Items[0].Dims[0].(*IntLit).Value = 9
	if orig.Items[0].Name != "A" || orig.Items[0].Dims[0].(*IntLit).Value != 5 {
		t.Error("CloneDecl shares state")
	}
}

// unitExprs lists a unit's expression nodes in a fixed walk order:
// declaration bounds and values, then statement operands, each with
// its subexpressions.
func unitExprs(u *Unit) []Expr {
	var out []Expr
	add := func(e Expr) {
		WalkExpr(e, func(x Expr) bool { out = append(out, x); return true })
	}
	for _, d := range u.Decls {
		var items []*DeclItem
		var values []Expr
		switch x := d.(type) {
		case *VarDecl:
			items = x.Items
		case *CommonDecl:
			items = x.Items
		case *DimensionDecl:
			items = x.Items
		case *ParamDecl:
			values = x.Values
		case *DataDecl:
			values = x.Values
		}
		for _, it := range items {
			for _, e := range it.Dims {
				add(e)
			}
		}
		for _, e := range values {
			add(e)
		}
	}
	WalkStmts(u.Body, func(s Stmt) bool {
		for _, e := range ExprsOf(s) {
			add(e)
		}
		return true
	})
	return out
}

// TestCloneKeepsExprIDs: a clone carries its original's expression IDs
// and NumExprs, so per-ID side tables built for one apply to the other.
func TestCloneKeepsExprIDs(t *testing.T) {
	for _, u := range fullFile().Units {
		es := unitExprs(u)
		for i, e := range es {
			id := int32(100 + i)
			switch x := e.(type) {
			case *IntLit:
				x.ID = id
			case *RealLit:
				x.ID = id
			case *LogLit:
				x.ID = id
			case *StrLit:
				x.ID = id
			case *Ident:
				x.ID = id
			case *Apply:
				x.ID = id
			case *Unary:
				x.ID = id
			case *Binary:
				x.ID = id
			}
		}
		u.NumExprs = 100 + len(es)
		c := CloneUnit(u)
		if c.NumExprs != u.NumExprs {
			t.Errorf("%s: clone NumExprs %d, want %d", u.Name, c.NumExprs, u.NumExprs)
		}
		ce := unitExprs(c)
		if len(ce) != len(es) {
			t.Fatalf("%s: clone has %d expressions, original %d", u.Name, len(ce), len(es))
		}
		for i := range es {
			if ce[i] == es[i] {
				t.Fatalf("%s: clone shares %s", u.Name, ExprString(es[i]))
			}
			if got, want := ce[i].ExprID(), es[i].ExprID(); got != want {
				t.Errorf("%s: clone of %s has ID %d, want %d", u.Name, ExprString(es[i]), got, want)
			}
		}
	}
}
