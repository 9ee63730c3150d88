package cfg

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// buildProc parses src and builds the CFG of the named procedure.
func buildProc(t *testing.T, src, name string) *Graph {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	p := prog.Procs[name]
	if p == nil {
		t.Fatalf("no procedure %s", name)
	}
	return Build(prog, p)
}

func TestStraightLine(t *testing.T) {
	g := buildProc(t, `PROGRAM P
I = 1
J = I + 2
PRINT *, J
END
`, "P")
	if len(g.Blocks) != 2 { // entry+code, exit
		t.Fatalf("blocks = %d, want 2\n%s", len(g.Blocks), g)
	}
	if len(g.Entry.Instrs) != 3 {
		t.Errorf("entry instrs = %d, want 3", len(g.Entry.Instrs))
	}
	if g.Entry.Term.Kind != TermReturn {
		t.Errorf("terminator = %v", g.Entry.Term.Kind)
	}
}

func TestIfElse(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER I, J
I = 1
IF (I .GT. 0) THEN
  J = 1
ELSE
  J = 2
ENDIF
PRINT *, J
END
`, "P")
	// entry (cond), then, else, join, exit.
	if len(g.Blocks) != 5 {
		t.Fatalf("blocks = %d, want 5\n%s", len(g.Blocks), g)
	}
	if g.Entry.Term.Kind != TermCond || len(g.Entry.Succs) != 2 {
		t.Fatalf("entry should end in a 2-way branch\n%s", g)
	}
	thenB, elseB := g.Entry.Succs[0], g.Entry.Succs[1]
	if len(thenB.Succs) != 1 || len(elseB.Succs) != 1 || thenB.Succs[0] != elseB.Succs[0] {
		t.Errorf("then/else should join\n%s", g)
	}
}

func TestElseIfChain(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER I, J
READ *, I
IF (I .EQ. 1) THEN
  J = 1
ELSEIF (I .EQ. 2) THEN
  J = 2
ELSE
  J = 3
ENDIF
PRINT *, J
END
`, "P")
	conds := 0
	for _, b := range g.Blocks {
		if b.Term.Kind == TermCond {
			conds++
		}
	}
	if conds != 2 {
		t.Errorf("conditional blocks = %d, want 2\n%s", conds, g)
	}
}

func TestDoLoopShape(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER I, S
S = 0
DO 10 I = 1, 10
  S = S + I
10 CONTINUE
PRINT *, S
END
`, "P")
	// Expect a block whose terminator is the loop condition with a back
	// edge into it.
	var head *Block
	for _, b := range g.Blocks {
		if b.Term.Kind == TermCond {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("no loop head found\n%s", g)
	}
	backedge := false
	for _, p := range head.Preds {
		for _, s := range p.Succs {
			if s == head && p.ID > head.ID {
				backedge = true
			}
		}
	}
	if !backedge {
		t.Errorf("no back edge to loop head\n%s", g)
	}
	// The loop body must increment I after the user statements.
	body := head.Succs[0]
	last := body.Instrs[len(body.Instrs)-1]
	if last.Kind != InstrAssign || last.Lhs == nil || last.Lhs.Name != "I" {
		t.Errorf("loop body should end with increment of I, got %s\n%s", last, g)
	}
}

func TestDoLoopBoundSnapshot(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER I, N
N = 5
DO I = 1, N
  N = N + 1
ENDDO
END
`, "P")
	// The bound must be snapshotted into a temp before the loop.
	found := false
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == InstrAssign && in.Lhs != nil && strings.HasPrefix(in.Lhs.Name, "@T") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no snapshot temp for loop bound\n%s", g)
	}
}

func TestGotoLoop(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER I
I = 0
10 I = I + 1
IF (I .LT. 5) GOTO 10
PRINT *, I
END
`, "P")
	var head *Block
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			_ = in
		}
		if len(b.Preds) == 2 {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("label block should have two predecessors\n%s", g)
	}
}

func TestCallExtraction(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER I
I = F(1) + F(G(2))
CALL S(I, F(3))
END
SUBROUTINE S(A, B)
A = B
END
INTEGER FUNCTION F(X)
F = X + 1
END
INTEGER FUNCTION G(X)
G = X*2
END
`, "P")
	if len(g.Sites) != 5 {
		t.Fatalf("call sites = %d, want 5\n%s", len(g.Sites), g)
	}
	// Order: F(1), G(2), F(G-temp), F(3), S(...).
	names := make([]string, len(g.Sites))
	for i, s := range g.Sites {
		names[i] = s.Callee
	}
	want := []string{"F", "G", "F", "F", "S"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("site order = %v, want %v", names, want)
		}
	}
	// The S call must be a CALL statement (not function).
	if g.Sites[4].IsFunction {
		t.Error("S should not be a function site")
	}
	for _, s := range g.Sites[:4] {
		if !s.IsFunction {
			t.Error("F/G sites should be function sites")
		}
	}
	// Site IDs are 0..n-1 in order.
	for i, s := range g.Sites {
		if s.ID != i {
			t.Errorf("site %d has ID %d", i, s.ID)
		}
	}
}

func TestIntrinsicsNotExtracted(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER I, A(10)
I = MOD(A(1), 2)
END
`, "P")
	if len(g.Sites) != 0 {
		t.Errorf("intrinsics/arrays should not create call sites, got %d", len(g.Sites))
	}
}

func TestUnreachableCodePruned(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER I
I = 1
GOTO 20
I = 2
I = 3
20 PRINT *, I
END
`, "P")
	// The I=2 / I=3 assignments are unreachable and must not appear.
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == InstrAssign && in.Rhs != nil {
				if s := in.String(); s == "I = 2" || s == "I = 3" {
					t.Errorf("unreachable instruction kept: %s", s)
				}
			}
		}
	}
}

func TestStopAndReturn(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER I
READ *, I
IF (I .LT. 0) STOP
PRINT *, I
END
`, "P")
	stops := 0
	for _, b := range g.Blocks {
		if b.Term.Kind == TermStop {
			stops++
		}
	}
	if stops != 1 {
		t.Errorf("stop terminators = %d, want 1\n%s", stops, g)
	}
}

func TestMultipleReturnsReachExit(t *testing.T) {
	g := buildProc(t, `SUBROUTINE S(I)
INTEGER I
IF (I .GT. 0) THEN
  I = 1
  RETURN
ENDIF
I = 2
RETURN
END
PROGRAM P
END
`, "S")
	if len(g.Exit.Preds) < 2 {
		t.Errorf("exit should have >=2 preds, got %d\n%s", len(g.Exit.Preds), g)
	}
}

func TestReadTargets(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER N, A(10)
READ *, N, A(1)
END
`, "P")
	var read *Instr
	for _, in := range g.Entry.Instrs {
		if in.Kind == InstrRead {
			read = in
		}
	}
	if read == nil || len(read.Targets) != 2 {
		t.Fatalf("read instruction wrong: %+v", read)
	}
	if read.Targets[0].Sym.Name != "N" || read.Targets[1].Sym.Name != "A" {
		t.Errorf("targets: %+v", read.Targets)
	}
	if read.Targets[1].Subs == nil {
		t.Error("array target lost subscripts")
	}
}

func TestNegativeStepLoop(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER I, S
S = 0
DO I = 10, 1, -1
  S = S + I
ENDDO
END
`, "P")
	// Condition must be .GE. for a negative literal step.
	found := false
	for _, b := range g.Blocks {
		if b.Term.Kind == TermCond && strings.Contains(g.String(), ".GE.") {
			found = true
		}
	}
	if !found {
		t.Errorf("negative-step loop should use .GE. condition\n%s", g)
	}
}

func TestGraphString(t *testing.T) {
	g := buildProc(t, "PROGRAM P\nI = 1\nEND\n", "P")
	s := g.String()
	if !strings.Contains(s, "cfg P") || !strings.Contains(s, "I = 1") {
		t.Errorf("String output unexpected:\n%s", s)
	}
}

// TestGoldenCFG locks the lowering of a program exercising every
// construct: structured IF, both DO forms, arithmetic IF, computed
// GOTO, call extraction, and DATA lowering.
func TestGoldenCFG(t *testing.T) {
	g := buildProc(t, `PROGRAM P
INTEGER I, K, M
COMMON /C/ NG
DATA K / 9 /
M = F(K) + 1
IF (M .GT. 0) THEN
  I = 1
ELSE
  I = 2
ENDIF
DO 10 I = 1, M
10 CONTINUE
IF (M - 5) 20, 30, 40
20 CONTINUE
30 CONTINUE
40 CONTINUE
GOTO (20, 30), I
END
INTEGER FUNCTION F(X)
INTEGER X
F = X*2
END
`, "P")
	got := g.String()
	for _, want := range []string{
		"K = 9",         // DATA lowered at main entry
		"@T0 = F(K)",    // call extracted into a temp
		"M = @T0 + 1",   // expression references the temp
		"if M .GT. 0",   // structured IF branch
		"@T1 = M",       // DO bound snapshot (M may change in the body)
		"if I .LE. @T1", // DO loop pre-test
		"I = I + 1",     // DO increment
		"@T2 = M - 5",   // arithmetic IF temp
		"if @T2 .LT. 0", // arithmetic IF negative branch
		"if @T2 .EQ. 0", // arithmetic IF zero branch
		"@T3 = I",       // computed GOTO temp
		"if @T3 .EQ. 1", // computed GOTO dispatch
	} {
		if !strings.Contains(got, want) {
			t.Errorf("CFG missing %q:\n%s", want, got)
		}
	}
}

// TestSynthesizedExprIDs: the nodes the builder synthesizes — DO-loop
// tests, increments and bound snapshots, computed GOTO and arithmetic
// IF branches, and the copies call extraction makes — carry distinct
// IDs in [Unit.NumExprs, Graph.NumExprs); source nodes keep theirs, and
// the unit's NumExprs is left alone.
func TestSynthesizedExprIDs(t *testing.T) {
	src := `PROGRAM P
INTEGER I, J, K, N, A(10)
DATA N / 3 /
READ *, K
DO 10 I = 1, N
A(I) = F(I) + 1
10 CONTINUE
DO 20 J = N, 1, K
PRINT *, MAX(F(J), A(J))
20 CONTINUE
DO 30 J = 10, 1, -2
CALL S(J, F(J) * 2)
30 CONTINUE
GOTO (40, 50), K
40 IF (K - F(N)) 50, 60, 60
50 CONTINUE
60 IF (F(K) .GT. 0) PRINT *, -F(K)
END
SUBROUTINE S(X, Y)
INTEGER X, Y
PRINT *, X + Y
END
INTEGER FUNCTION F(X)
INTEGER X
F = X + 1
END
`
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	for _, p := range prog.Order {
		unitExprs := p.Unit.NumExprs
		source := make(map[ast.Expr]bool)
		mark := func(e ast.Expr) {
			ast.WalkExpr(e, func(x ast.Expr) bool { source[x] = true; return true })
		}
		for _, d := range p.Unit.Decls {
			if dd, ok := d.(*ast.DataDecl); ok {
				for _, v := range dd.Values {
					mark(v)
				}
			}
		}
		ast.WalkStmts(p.Unit.Body, func(s ast.Stmt) bool {
			for _, e := range ast.ExprsOf(s) {
				mark(e)
			}
			return true
		})

		g := Build(prog, p)
		if p.Unit.NumExprs != unitExprs {
			t.Fatalf("%s: Build changed Unit.NumExprs %d → %d", p.Name, unitExprs, p.Unit.NumExprs)
		}
		synth := make(map[int32]ast.Expr)
		check := func(e ast.Expr) {
			ast.WalkExpr(e, func(x ast.Expr) bool {
				id := x.ExprID()
				if source[x] {
					if int(id) >= unitExprs {
						t.Errorf("%s: source node %s has ID %d ≥ Unit.NumExprs %d", p.Name, ast.ExprString(x), id, unitExprs)
					}
					return true
				}
				if int(id) < unitExprs || int(id) >= g.NumExprs {
					t.Errorf("%s: synthesized %s has ID %d outside [%d, %d)", p.Name, ast.ExprString(x), id, unitExprs, g.NumExprs)
				}
				if prev, dup := synth[id]; dup && prev != x {
					t.Errorf("%s: synthesized %s and %s share ID %d", p.Name, ast.ExprString(prev), ast.ExprString(x), id)
				}
				synth[id] = x
				return true
			})
		}
		for _, blk := range g.Blocks {
			for _, in := range blk.Instrs {
				check(in.Rhs)
				for _, e := range in.Subs {
					check(e)
				}
				for _, e := range in.Args {
					check(e)
				}
				for _, tg := range in.Targets {
					for _, e := range tg.Subs {
						check(e)
					}
				}
				if in.Site != nil {
					for _, e := range in.Site.Args {
						check(e)
					}
				}
			}
			check(blk.Term.Cond)
		}
		if p.Name == "P" && len(synth) < 20 {
			t.Errorf("P: only %d synthesized nodes; the program should exercise every lowering", len(synth))
		}
	}
}
