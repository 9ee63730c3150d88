package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/intra"
	"repro/internal/jump"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/subst"
	"repro/internal/symbolic"
	"repro/ipcp"
)

// phaseStatsTolerance bounds how far the layer times measured from
// outside may drift from the library's own Result.PhaseStats: the
// ratio of their sums over the same inputs must lie in [1/t, t].
const phaseStatsTolerance = 2.0

// layerTimes is one traced analysis, timed at each layer boundary.
type layerTimes struct {
	parse, sem, graph, jump, solve, subst time.Duration
	ssa, intra                            time.Duration // per-procedure probes
	wall                                  time.Duration // parse through subst
	subs, evals, bytes                    int
}

func (t layerTimes) layers() time.Duration {
	return t.parse + t.sem + t.graph + t.jump + t.solve + t.subst
}

// chainHooks hands core.AnalyzeProgramErr the call graph and MOD
// summaries built outside it, and builds the jump functions itself —
// with the symbolic.Builder the core analysis passes in — so the jump
// layer is timed here.
type chainHooks struct {
	ctx   context.Context
	graph *callgraph.Graph
	mod   *modref.Info
	took  time.Duration
	err   error
}

func (h *chainHooks) Graph() (*callgraph.Graph, *modref.Info) { return h.graph, h.mod }

func (h *chainHooks) Funcs(_ core.Config, jc jump.Config, b *symbolic.Builder) (*jump.Functions, int, jump.Memo) {
	start := time.Now()
	fns, err := jump.Build(h.ctx, h.graph, h.mod, b, jc, nil)
	h.took = time.Since(start)
	if err != nil {
		h.err = err
		return nil, 0, nil
	}
	// The truncations were counted into b as they happened.
	return fns, 0, nil
}

func (h *chainHooks) StoreFuncs(core.Config, *jump.Functions, int) {}

func (h *chainHooks) Subst(core.Config, subst.Options) (*subst.Result, subst.Memo) { return nil, nil }

func (h *chainHooks) StoreSubst(core.Config, subst.Options, *subst.Result) {}

// chain pushes one program through the layer functions in pipeline
// order — parser, sem, callgraph + modref, jump (inside
// core.AnalyzeProgramErr), solver, substitution — at the recommended
// configuration.
// After the timed chain it re-runs the solver through
// Analysis.RunSolver and builds every procedure's dominators, SSA form
// and intraprocedural result once more, to time those inner layers.
func chain(ctx context.Context, name, src string, par int) (layerTimes, error) {
	lt := layerTimes{bytes: len(src)}
	runtime.GC()
	t0 := time.Now()
	var diags source.ErrorList
	f := parser.ParseFile(source.NewFile(name, src), &diags)
	t1 := time.Now()
	prog := sem.AnalyzeParallel(f, &diags, par)
	if err := diags.Err(); err != nil {
		return lt, err
	}
	t2 := time.Now()
	g := callgraph.Build(prog)
	mod := modref.Compute(g)
	t3 := time.Now()
	h := &chainHooks{ctx: ctx, graph: g, mod: mod}
	cfg := core.DefaultConfig()
	cfg.Parallelism = par
	cfg.Hooks = h
	a, err := core.AnalyzeProgramErr(ctx, prog, cfg)
	if err == nil {
		err = h.err
	}
	if err != nil {
		return lt, fmt.Errorf("%s: %w", name, err)
	}
	t4 := time.Now()
	sub := a.Substitute()
	t5 := time.Now()
	lt.parse, lt.sem, lt.graph, lt.jump, lt.subst = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), h.took, t5.Sub(t4)
	lt.wall = t5.Sub(t0)
	lt.subs = sub.Total

	start := time.Now()
	_, evals, err := a.RunSolver(core.SolverWorklist)
	if err != nil {
		return lt, fmt.Errorf("%s: re-solve: %w", name, err)
	}
	lt.solve, lt.evals = time.Since(start), evals
	lt.ssa, lt.intra = probeProcedures(g, mod, a.Funcs)
	return lt, nil
}

// probeProcedures times dom.Compute + ssa.Build and intra.Analyze for
// every procedure, serially, with the options jump.Build uses.
func probeProcedures(g *callgraph.Graph, mod *modref.Info, fns *jump.Functions) (ssaT, intraT time.Duration) {
	opts := ssa.Options{Globals: g.Prog.Globals(), Kills: mod.Kills}
	b := symbolic.NewBuilder()
	ret := func(callee string) *intra.ReturnSummary {
		if n := g.Nodes[callee]; n != nil {
			return fns.Returns[n.Proc]
		}
		return nil
	}
	gmod := func(callee string, gv *sem.GlobalVar) bool {
		n := g.Nodes[callee]
		return n == nil || mod.GMod(n.Proc, gv)
	}
	for i, n := range g.Order {
		t0 := time.Now()
		fn := ssa.Build(n.CFG, dom.Compute(n.CFG), opts)
		t1 := time.Now()
		intra.Analyze(fn, intra.Options{Builder: b, OpaqueBase: int64(i+1) << 32, ReturnJF: ret, GMod: gmod})
		ssaT += t1.Sub(t0)
		intraT += time.Since(t1)
	}
	return ssaT, intraT
}

// layerLedger accumulates traced and untraced analyses of the same
// inputs.
type layerLedger struct {
	n          int
	sum        layerTimes
	untraced   time.Duration
	phaseStats time.Duration // PhaseStats parse..subst of the untraced runs
}

// measure analyzes in once untraced (through ipcp.AnalyzeContext) and
// once through the layer chain, in the given order, each after a
// collection, and checks that both did the same work.
func (lg *layerLedger) measure(ctx context.Context, in input, par int, chainFirst bool) (layerTimes, error) {
	var lt layerTimes
	var err error
	if chainFirst {
		if lt, err = chain(ctx, in.Name, in.Src, par); err != nil {
			return lt, err
		}
	}
	cfg := refConfig()
	cfg.Parallelism = par
	runtime.GC()
	start := time.Now()
	res, err := ipcp.AnalyzeContext(ctx, in.Name, in.Src, cfg)
	took := time.Since(start)
	if err != nil {
		return lt, err
	}
	if !chainFirst {
		if lt, err = chain(ctx, in.Name, in.Src, par); err != nil {
			return lt, err
		}
	}
	if lt.subs != res.SubstitutionCount() || lt.subs != in.Ref.Subs {
		return lt, fmt.Errorf("%s: traced chain substituted %d, untraced %d, reference %d",
			in.Name, lt.subs, res.SubstitutionCount(), in.Ref.Subs)
	}
	for _, ps := range res.PhaseStats {
		switch ps.Phase {
		case "parse", "sem", "graph", "jump", "solve", "subst":
			lg.phaseStats += time.Duration(ps.WallNs)
		}
	}
	lg.n++
	lg.untraced += took
	s := &lg.sum
	s.parse += lt.parse
	s.sem += lt.sem
	s.graph += lt.graph
	s.jump += lt.jump
	s.solve += lt.solve
	s.subst += lt.subst
	s.ssa += lt.ssa
	s.intra += lt.intra
	s.wall += lt.wall
	s.bytes += lt.bytes
	return lt, nil
}

// report writes the per-layer means and the cross-checks; passEvals is
// the solver's work over one pass of the distinct inputs.
func (lg *layerLedger) report(m metrics, passEvals int) error {
	n := float64(lg.n)
	per := func(d time.Duration) float64 { return ms(d) / n }
	s := lg.sum
	m["parse.busy_ms"] = per(s.parse)
	m["parse.mb_per_s"] = ratio(float64(s.bytes)/(1<<20), s.parse.Seconds())
	m["sem.busy_ms"] = per(s.sem)
	m["graph.busy_ms"] = per(s.graph)
	m["jump.busy_ms"] = per(s.jump)
	m["jump.ssa_ms"] = per(s.ssa)
	m["jump.intra_ms"] = per(s.intra)
	m["solve.busy_ms"] = per(s.solve)
	m["solve.jf_evals"] = float64(passEvals)
	m["subst.busy_ms"] = per(s.subst)
	// Glue is measured within the untraced calls themselves: their wall
	// minus the library's own layer times, so the traced chain's
	// overhead does not leak into it.
	m["ipcp.glue_ms"] = per(lg.untraced - lg.phaseStats)
	m["trace.overhead_ms"] = per(s.wall - lg.untraced)
	r := ratio(float64(s.layers()), float64(lg.phaseStats))
	m["trace.phasestats_ratio"] = r
	if r < 1/phaseStatsTolerance || r > phaseStatsTolerance {
		return fmt.Errorf("layer times sum to %.2fx the library's PhaseStats, outside [%.2f, %.2f]",
			r, 1/phaseStatsTolerance, phaseStatsTolerance)
	}
	return nil
}

// layerPasses runs traced/untraced pairs over inputs in whole passes
// until budget is spent, alternating which of the pair goes first.
func layerPasses(ctx context.Context, inputs []input, par int, budget time.Duration, m metrics) error {
	var lg layerLedger
	passEvals := 0
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < budget; rep++ {
		for i, in := range inputs {
			lt, err := lg.measure(ctx, in, par, (rep+i)%2 == 0)
			if err != nil {
				return err
			}
			if rep == 0 {
				passEvals += lt.evals
			}
		}
	}
	return lg.report(m, passEvals)
}

// parallelism compares one pass over inputs at Parallelism 1 and at
// GOMAXPROCS: wall time (median of three) and peak RSS growth.
func parallelism(ctx context.Context, inputs []input, m metrics) error {
	wall := map[int][]float64{}
	peak := map[int]float64{}
	procs := runtime.GOMAXPROCS(0)
	for rep := 0; rep < 3; rep++ {
		for _, p := range []int{1, procs} {
			cfg := refConfig()
			cfg.Parallelism = p
			base := resetPeakRSS()
			start := time.Now()
			for _, in := range inputs {
				if _, err := ipcp.AnalyzeContext(ctx, in.Name, in.Src, cfg); err != nil {
					return err
				}
			}
			wall[p] = append(wall[p], time.Since(start).Seconds())
			if g := peakRSSMB() - base; g > peak[p] {
				peak[p] = g
			}
		}
	}
	m["par.speedup"] = ratio(quantile(wall[1], 0.5), quantile(wall[procs], 0.5))
	m["par.rss_ratio"] = ratio(peak[procs], peak[1])
	return nil
}

// sessionLedger times session opens, edits and result reads, and
// accumulates what the edits reported.
type sessionLedger struct {
	open, edit, result []float64
	edits, fast        int
	invalidated        int
	ctxHits, ctxMisses uint64
}

// exercise opens a fresh session on t and flips its leaf unit edits
// times, checking every result against its reference.
func (sl *sessionLedger) exercise(ctx context.Context, t *editTarget, cfg ipcp.Config, edits int) error {
	start := time.Now()
	s, err := ipcp.OpenSession(ctx, t.In.Name, t.In.Src, cfg)
	if err != nil {
		return err
	}
	sl.open = append(sl.open, ms(time.Since(start)))
	for i := 1; i <= edits; i++ {
		k := i % 2
		start := time.Now()
		info, err := s.Edit(ctx, []ipcp.UnitEdit{{Op: "replace", Index: t.Unit, Text: t.Texts[k]}})
		if err != nil {
			return err
		}
		mid := time.Now()
		res, err := s.Result()
		if err != nil {
			return err
		}
		got := answerOf(res)
		sl.edit = append(sl.edit, ms(mid.Sub(start)))
		sl.result = append(sl.result, ms(time.Since(mid)))
		if err := mismatch(got, t.Refs[k]); err != nil {
			return fmt.Errorf("session on %s: %w", t.In.Name, err)
		}
		sl.edits++
		if info.FastPath {
			sl.fast++
		}
		sl.invalidated += info.UnitsInvalidated
	}
	st := s.Stats()
	sl.ctxHits += st.ContextHits
	sl.ctxMisses += st.ContextMisses
	return nil
}

func (sl *sessionLedger) report(m metrics) {
	m["session.open_ms"] = quantile(sl.open, 0.5)
	m["session.edit_ms"] = quantile(sl.edit, 0.5)
	m["session.result_ms"] = quantile(sl.result, 0.5)
	m["session.units_invalidated"] = ratio(float64(sl.invalidated), float64(sl.edits))
	m["session.context_reuse_ratio"] = ratio(float64(sl.ctxHits), float64(sl.ctxHits+sl.ctxMisses))
	m["session.fast_path_ratio"] = ratio(float64(sl.fast), float64(sl.edits))
}

// traced is the library workloads' per-layer run.
func (l *library) traced(ctx context.Context, seconds time.Duration) *outcome {
	o := newOutcome()
	if err := l.tracedLayers(ctx, seconds, o); err != nil {
		return o.fail(err)
	}
	o.finish()
	return o
}

func (l *library) tracedLayers(ctx context.Context, seconds time.Duration, o *outcome) error {
	st, err := l.setup(ctx)
	if err != nil {
		return err
	}
	// The cache's work on one pass of cached analyses.
	before := st.cache.Stats()
	for _, t := range l.edits {
		_, got, err := l.analyze(ctx, t.In, st.cache)
		o.record(err, got, t.In.Ref)
	}
	after := st.cache.Stats()
	hits := float64(after.Hits - before.Hits)
	o.m["memo.hit_ratio"] = ratio(hits, hits+float64(after.Misses-before.Misses))

	var sl sessionLedger
	var resident []input
	for _, t := range l.edits {
		if err := sl.exercise(ctx, t, l.config(nil), sessionEdits); err != nil {
			return err
		}
		resident = append(resident, t.In)
	}
	sl.report(o.m)
	o.attempted += sl.edits
	runtime.GC()
	if err := layerPasses(ctx, l.inputs, l.par, seconds/2, o.m); err != nil {
		return err
	}
	// The collector's work on one pass of cold analyses, as the
	// untraced run makes them.
	var gc gcCounter
	var lat latencies
	gc.start()
	l.coldPass(ctx, &lat, o)
	gc.stop()
	gc.report(o.m, len(l.inputs))
	return parallelism(ctx, resident, o.m)
}

// sessionEdits is how many edits the traced run makes per session.
const sessionEdits = 6
