package ipcp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
)

// robustSrc exercises every pipeline phase: a call chain for jump
// functions and the solver, plus substitutable constant uses.
const robustSrc = `PROGRAM MAIN
INTEGER K
K = 2 + 3
CALL WORK(K, 7)
END
SUBROUTINE WORK(N, M)
INTEGER N, M
PRINT *, N + M
END
`

// TestPhasePanicsBecomeInternalErrors is the acceptance check for the
// panic-recovery tentpole: a panic injected into any phase must come
// back from Analyze as *InternalError naming that phase — never as a
// raw panic, never as success.
func TestPhasePanicsBecomeInternalErrors(t *testing.T) {
	t.Setenv(guard.EnvFailPoints, "1")
	for _, phase := range []string{"lex", "parse", "sem", "jump", "solve", "subst"} {
		t.Run(phase, func(t *testing.T) {
			remove := guard.Set(phase, func() error {
				panic("injected fault in " + phase)
			})
			defer remove()

			res, err := Analyze("robust.f", robustSrc, DefaultConfig())
			if err == nil {
				t.Fatalf("Analyze succeeded (res=%v) despite injected %s panic", res, phase)
			}
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("error is %T (%v), want *InternalError", err, err)
			}
			if string(ie.Phase) != phase {
				t.Errorf("Phase = %q, want %q", ie.Phase, phase)
			}
			if len(ie.Stack) == 0 {
				t.Error("InternalError carries no stack")
			}
			if strings.Contains(ie.Error(), "\n") {
				t.Errorf("Error() is not one line: %q", ie.Error())
			}
		})
	}
}

// TestPhasePanicCarriesUnit checks per-procedure attribution for the
// phases that walk procedures one at a time.
func TestPhasePanicCarriesUnit(t *testing.T) {
	t.Setenv(guard.EnvFailPoints, "1")
	remove := guard.Set("subst", func() error {
		return errors.New("injected subst fault")
	})
	defer remove()

	_, err := Analyze("robust.f", robustSrc, DefaultConfig())
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error is %T (%v), want *InternalError", err, err)
	}
	if ie.Phase != PhaseSubst {
		t.Errorf("Phase = %q, want subst", ie.Phase)
	}
}

// TestRunRecoversPanics: the interpreter entry point shares the
// no-raw-panics contract.
func TestRunRecoversPanics(t *testing.T) {
	t.Setenv(guard.EnvFailPoints, "1")
	remove := guard.Set("lex", func() error { return errors.New("boom") })
	defer remove()

	_, err := Run("robust.f", robustSrc, nil)
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("Run error is %T (%v), want *InternalError", err, err)
	}
	if ie.Phase != PhaseLex {
		t.Errorf("Phase = %q, want lex", ie.Phase)
	}
}

// TestInjectedExhaustionDegradesSoundly is the acceptance check for
// graceful degradation: budget exhaustion injected into the solver must
// yield a successful, sound result whose Warnings name the exhausted
// axis — with the fault armed for every attempt, the chain ends at the
// trivial no-constants solution.
func TestInjectedExhaustionDegradesSoundly(t *testing.T) {
	t.Setenv(guard.EnvFailPoints, "1")
	remove := guard.Set("solve", func() error {
		return &guard.Exhausted{Axis: guard.AxisSolverSteps, Limit: 1, Site: "solve"}
	})
	defer remove()

	res, err := Analyze("robust.f", robustSrc, DefaultConfig())
	if err != nil {
		t.Fatalf("Analyze: %v (budget exhaustion must degrade, not fail)", err)
	}
	if !res.Degraded() || len(res.Warnings) == 0 {
		t.Fatalf("no degradation reported: Degradations=%v Warnings=%v", res.Degradations, res.Warnings)
	}
	for _, d := range res.Degradations {
		if d.Axis != string(guard.AxisSolverSteps) {
			t.Errorf("degradation axis = %q, want %q", d.Axis, guard.AxisSolverSteps)
		}
	}
	last := res.Degradations[len(res.Degradations)-1]
	if last.To != "no-constants" {
		t.Errorf("final fallback = %q, want no-constants (fault armed for every attempt)", last.To)
	}
	// The all-⊥ solution claims no interprocedural constants — trivially
	// sound.
	if ks := res.ConstantsOf("WORK"); len(ks) != 0 {
		t.Errorf("degraded-to-bottom result still claims constants: %v", ks)
	}
}

// TestExpiredDeadlineDegradesSoundly: a context that is already past
// its deadline must not hang or error out; the analyzer degrades to the
// bottom solution with warnings on the deadline axis.
func TestExpiredDeadlineDegradesSoundly(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()

	res, err := AnalyzeContext(ctx, "robust.f", robustSrc, DefaultConfig())
	if err != nil {
		t.Fatalf("AnalyzeContext: %v (deadline expiry must degrade, not fail)", err)
	}
	if !res.Degraded() {
		t.Fatal("expired deadline produced no degradation warnings")
	}
	for _, d := range res.Degradations {
		if d.Axis != string(guard.AxisDeadline) {
			t.Errorf("degradation axis = %q, want %q", d.Axis, guard.AxisDeadline)
		}
	}
	if ks := res.ConstantsOf("WORK"); len(ks) != 0 {
		t.Errorf("deadline-degraded result claims constants: %v", ks)
	}
}

// TestSolverStepBudgetDegrades: a real (non-injected) step budget too
// small for the program triggers the fallback chain.
func TestSolverStepBudgetDegrades(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Budget.MaxSolverSteps = 1
	res, err := Analyze("robust.f", robustSrc, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("MaxSolverSteps=1 produced no degradation")
	}
	for _, d := range res.Degradations {
		if d.Axis != string(guard.AxisSolverSteps) {
			t.Errorf("degradation axis = %q, want %q", d.Axis, guard.AxisSolverSteps)
		}
	}
}

// exprSizeSrc puts a polynomial jump function in MID, where K is a
// formal — in MAIN it would constant-fold before any large expression
// exists.
const exprSizeSrc = `PROGRAM MAIN
CALL MID(4)
END
SUBROUTINE MID(K)
INTEGER K
CALL WORK(K * K + K * 2 + 1)
END
SUBROUTINE WORK(N)
INTEGER N
PRINT *, N
END
`

// truncations returns the count a result's jf-expr-size warning
// reports (0 without one).
func truncations(t *testing.T, res *Result) int {
	t.Helper()
	n := 0
	for _, d := range res.Degradations {
		if d.Axis != string(guard.AxisExprSize) {
			continue
		}
		if _, err := fmt.Sscanf(d.Detail, "%d jump-function", &n); err != nil {
			t.Fatalf("unparseable jf-expr-size detail %q: %v", d.Detail, err)
		}
	}
	return n
}

// TestExprSizeBudgetWarnsAndStaysSound: a tiny expression-size budget
// truncates polynomial jump functions to opaque values — a sound loss
// of precision reported on the jf-expr-size axis, not a failure.
func TestExprSizeBudgetWarnsAndStaysSound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = Polynomial
	cfg.Budget.MaxJFExprSize = 2
	res, err := Analyze("poly.f", exprSizeSrc, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// Jump-function construction analyzes each procedure once, so each
	// over-size expression is charged once.
	if got, want := truncations(t, res), 12; got != want {
		t.Errorf("jf-expr-size count = %d, want %d: %v", got, want, res.Degradations)
	}
	// Truncation must only lose constants, never invent them: the full
	// run proves N=25; the truncated run must claim N=25 or nothing.
	full, err := Analyze("poly.f", exprSizeSrc, func() Config { c := DefaultConfig(); c.Kind = Polynomial; return c }())
	if err != nil {
		t.Fatalf("unbudgeted Analyze: %v", err)
	}
	if !subsetOf(res.ConstantsOf("WORK"), full.ConstantsOf("WORK")) {
		t.Errorf("truncated constants %v ⊄ full constants %v", res.ConstantsOf("WORK"), full.ConstantsOf("WORK"))
	}
}

// TestExprSizeCountAcrossPaths: the jf-expr-size count is the same
// whichever path produced the jump functions — serial or parallel,
// cold, a warm cache (whole-build and per-unit hits) or a session.
func TestExprSizeCountAcrossPaths(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = Polynomial
	cfg.Budget.MaxJFExprSize = 2
	// The edit touches only WORK, so MID's truncating build is reused.
	edited := strings.Replace(exprSizeSrc, "PRINT *, N\n", "PRINT *, N + 1\n", 1)
	workUnit := "SUBROUTINE WORK(N)\nINTEGER N\nPRINT *, N + 1\nEND\n"
	for _, par := range []int{1, 4} {
		cfg.Parallelism = par
		count := func(label, src string, c Config) int {
			t.Helper()
			res, err := Analyze("poly.f", src, c)
			if err != nil {
				t.Fatalf("P=%d %s: %v", par, label, err)
			}
			return truncations(t, res)
		}
		want := count("cold", exprSizeSrc, cfg)
		wantEdited := count("cold edited", edited, cfg)
		if want == 0 || wantEdited == 0 {
			t.Fatalf("P=%d: no truncation (cold %d, edited %d)", par, want, wantEdited)
		}

		cached := cfg
		cached.Cache = NewCache(CacheOptions{})
		for _, label := range []string{"cache fill", "cache warm"} {
			if got := count(label, exprSizeSrc, cached); got != want {
				t.Errorf("P=%d %s: count %d, cold %d", par, label, got, want)
			}
		}
		if got := count("cache per-unit", edited, cached); got != wantEdited {
			t.Errorf("P=%d cache per-unit: count %d, cold %d", par, got, wantEdited)
		}

		s, err := OpenSession(context.Background(), "poly.f", exprSizeSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got := truncations(t, r); got != want {
			t.Errorf("P=%d session open: count %d, cold %d", par, got, want)
		}
		if _, err := s.Edit(context.Background(), []UnitEdit{{Op: "replace", Index: 2, Text: workUnit}}); err != nil {
			t.Fatal(err)
		}
		if r, err = s.Result(); err != nil {
			t.Fatal(err)
		}
		if got := truncations(t, r); got != wantEdited {
			t.Errorf("P=%d session edit: count %d, cold %d", par, got, wantEdited)
		}
	}
}

// TestBudgetedAnalysisUnaffectedWhenGenerous: a budget the analysis
// fits inside must not change the answer.
func TestBudgetedAnalysisUnaffectedWhenGenerous(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Budget = Budget{MaxSolverSteps: 1_000_000, MaxRounds: 10, MaxJFExprSize: 10_000}
	got, err := Analyze("robust.f", robustSrc, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got.Degraded() {
		t.Fatalf("generous budget degraded: %v", got.Degradations)
	}
	want, err := Analyze("robust.f", robustSrc, DefaultConfig())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if g, w := got.SubstitutionCount(), want.SubstitutionCount(); g != w {
		t.Errorf("SubstitutionCount = %d under budget, %d without", g, w)
	}
}

// subsetOf reports whether every constant in sub appears in super.
func subsetOf(sub, super []Constant) bool {
	have := make(map[Constant]bool, len(super))
	for _, k := range super {
		have[k] = true
	}
	for _, k := range sub {
		if !have[k] {
			return false
		}
	}
	return true
}
