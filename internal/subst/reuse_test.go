package subst_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/jump"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/subst"
	"repro/internal/suite"
	"repro/internal/symbolic"
)

// TestJumpReuseMatchesRebuild is the gate for substitution reusing the
// jump phase's SSA and value numbering: over the suite and a few
// generated programs, every jump-function kind, the plain, complete,
// gated and full-substitution modes, serial and parallel, the driver's
// substitution pass must equal a pass that rebuilds every procedure's
// SSA and re-runs its value numbering from scratch.
func TestJumpReuseMatchesRebuild(t *testing.T) {
	type program struct {
		name string
		prog *sem.Program
	}
	var progs []program
	for _, spec := range suite.Programs() {
		progs = append(progs, program{spec.Name, mustProg(t, spec.Name, suite.Source(spec))})
	}
	for _, seed := range []int64{3, 17, 42} {
		name := fmt.Sprintf("gen%d", seed)
		progs = append(progs, program{name, mustProg(t, name, gen.Program(gen.Config{Seed: seed, NumProcs: 24, StmtsPerProc: 12}))})
	}
	modes := []struct {
		name string
		set  func(*core.Config)
	}{
		{"plain", func(*core.Config) {}},
		{"complete", func(c *core.Config) { c.Complete = true }},
		{"gated", func(c *core.Config) { c.Jump.Gated = true }},
		{"fullsubst", func(c *core.Config) { c.Jump.FullSubstitution = true }},
	}
	kinds := []jump.Kind{jump.Literal, jump.Intraprocedural, jump.PassThrough, jump.Polynomial}

	var reanalyzed atomic.Int64
	subst.SetOnAnalyze(func(*sem.Procedure) { reanalyzed.Add(1) })
	defer subst.SetOnAnalyze(nil)
	for _, m := range modes {
		procs, reran := 0, 0
		for _, kind := range kinds {
			for _, par := range []int{1, 4} {
				for _, p := range progs {
					cfg := core.DefaultConfig()
					cfg.Jump.Kind = kind
					cfg.Parallelism = par
					m.set(&cfg)
					a := core.AnalyzeProgram(p.prog, cfg)

					reanalyzed.Store(0)
					got := a.Substitute()
					procs += len(p.prog.Order)
					reran += int(reanalyzed.Load())

					want := subst.Run(a.Graph, a.Mod, subst.Options{
						UseMOD:           cfg.Jump.UseMOD,
						UseReturnJFs:     cfg.Jump.UseReturnJFs,
						Jump:             &jump.Functions{Returns: a.Funcs.Returns},
						FullSubstitution: cfg.Jump.FullSubstitution,
						Gated:            cfg.Jump.Gated,
						Prune:            cfg.Complete,
						Entry:            a.Vals.EntryEnv,
						Builder:          symbolic.NewBuilder(),
						Parallelism:      par,
					})
					sameResult(t, fmt.Sprintf("%s/%s/%s/P=%d", p.name, kind, m.name, par), got, want)
				}
			}
		}
		if reran >= procs {
			t.Errorf("%s: every one of %d procedure passes re-ran value numbering", m.name, procs)
		}
		t.Logf("%s: %d of %d procedure passes re-ran value numbering", m.name, reran, procs)
	}
}

func sameResult(t *testing.T, label string, got, want *subst.Result) {
	t.Helper()
	if got.Total != want.Total {
		t.Errorf("%s: Total %d, rebuild %d", label, got.Total, want.Total)
	}
	if len(got.PerProc) != len(want.PerProc) {
		t.Errorf("%s: PerProc has %d procedures, rebuild %d", label, len(got.PerProc), len(want.PerProc))
	}
	for p, n := range want.PerProc {
		if g, ok := got.PerProc[p]; !ok || g != n {
			t.Errorf("%s: PerProc[%s] = %d, rebuild %d", label, p.Name, g, n)
		}
	}
	if len(got.Replacements) != len(want.Replacements) {
		t.Errorf("%s: %d replacements, rebuild %d", label, len(got.Replacements), len(want.Replacements))
	}
	for e, txt := range want.Replacements {
		if g, ok := got.Replacements[e]; !ok || g != txt {
			t.Errorf("%s: replacement of %v = %q, rebuild %q", label, e, g, txt)
		}
	}
}

func mustProg(t *testing.T, name, src string) *sem.Program {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource(name+".f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("%s: front-end errors:\n%s", name, diags.Error())
	}
	return prog
}
