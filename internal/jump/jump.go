// Package jump constructs jump functions (paper §3).
//
// Forward jump functions: for call site s and callee formal (or global)
// y, J_s^y approximates y's value on entry to the callee as a function
// of the caller's entry values. Four implementations are provided, in
// increasing order of power and cost:
//
//	Literal          — y's actual is a literal constant at s
//	Intraprocedural  — gcp(y, s): intraprocedural constant propagation /
//	                   value numbering (with MOD info) proves y constant
//	Pass-through     — additionally, y's actual is an unmodified formal
//	                   of the caller (so constants flow along paths of
//	                   length > 1 in the call graph)
//	Polynomial       — y's actual is any polynomial of the caller's
//	                   entry values
//
// Return jump functions: for each formal/global x modified by p (and
// the function result), R_p^x approximates x's value on return from p.
// A single polynomial implementation is provided, built bottom-up over
// the call graph as in §3.2; procedures in recursive SCCs are
// summarized conservatively (no return jump functions).
//
// All four forward kinds are derived by *restricting* the symbolic
// expression the value-numbering engine (package intra) computes for
// each actual — mirroring the paper's implementation note that "the
// appropriate function is constructed from the information produced by
// value numbering".
package jump

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/guard"
	"repro/internal/intra"
	"repro/internal/modref"
	"repro/internal/par"
	"repro/internal/sem"
	"repro/internal/ssa"
	"repro/internal/symbolic"
)

// Kind selects a forward jump function implementation.
type Kind int

const (
	Literal Kind = iota
	Intraprocedural
	PassThrough
	Polynomial
)

func (k Kind) String() string {
	switch k {
	case Literal:
		return "literal"
	case Intraprocedural:
		return "intraprocedural"
	case PassThrough:
		return "pass-through"
	default:
		return "polynomial"
	}
}

// Config selects the analysis variant (the experimental axes of the
// paper's Tables 2 and 3).
type Config struct {
	Kind Kind
	// UseMOD uses interprocedural MOD information at call sites; when
	// false, worst-case kill assumptions apply (Table 3, column 1).
	UseMOD bool
	// UseReturnJFs builds and applies return jump functions (Table 2's
	// first four columns vs last two).
	UseReturnJFs bool
	// FullSubstitution lifts the paper's only-constants limitation on
	// return jump function results (an extension; off reproduces the
	// paper).
	FullSubstitution bool
	// Prune enables branch pruning during jump function construction;
	// used by the complete-propagation loop after dead code is found.
	Prune bool
	// Gated builds γ expressions at joins (gated-SSA jump functions, the
	// paper's §4.2 suggestion — an extension that subsumes complete
	// propagation without iterating). Meaningful with Kind Polynomial.
	Gated bool
	// Check, when non-nil, is consulted between procedures during
	// construction; a non-nil return (typically *guard.Exhausted) aborts
	// Build with that error so the driver can degrade the configuration.
	Check func() error
	// Memo, when non-nil, memoizes per-procedure build products across
	// Build calls: a Lookup hit supplies a procedure's return summary
	// and site functions (already expressed in this build's builder),
	// skipping its SSA/value-numbering analysis; freshly built products
	// are offered back via Store. Lookup is called concurrently and must
	// be read-only; Store must be safe for concurrent use. A non-nil
	// Memo forces per-procedure expression builders even serially, so
	// truncation counts stay attributable per procedure.
	Memo Memo
	// Prev, when non-nil, is an earlier Build over the same call graph
	// and kill assumptions (complete propagation's previous round): its
	// procedures' SSA forms are reused rather than rebuilt, since SSA
	// depends only on the CFG and the kills. Build does not keep it.
	Prev *Functions
	// Parallelism bounds the worker goroutines that analyze procedures
	// concurrently: <= 0 selects one worker per CPU (GOMAXPROCS), 1 runs
	// the serial pipeline. Results are bit-identical to the serial run:
	// workers get private expression builders (the hash-consing tables
	// are not goroutine-safe) and are merged in call-graph order.
	Parallelism int
}

// DefaultConfig is the paper's recommended configuration: pass-through
// jump functions with MOD information and return jump functions.
func DefaultConfig() Config {
	return Config{Kind: PassThrough, UseMOD: true, UseReturnJFs: true}
}

// SiteFunctions holds the forward jump functions of one call site:
// one per callee formal position and one per program global. A nil
// entry is ⊥ (the jump function that always evaluates to ⊥).
type SiteFunctions struct {
	Site    *cfg.CallSite
	Callee  *sem.Procedure
	Formals []*symbolic.Expr
	Globals map[*sem.GlobalVar]*symbolic.Expr
	// Dead marks sites proven unreachable (branch pruning): they
	// contribute nothing to the callee's VAL set rather than ⊥.
	Dead bool
}

// ProcFunctions bundles everything computed for one procedure. SSA and
// Intra are the build's own SSA form and value numbering of the
// procedure (later phases reuse them); both are nil when the product
// came from a memo rather than an analysis.
type ProcFunctions struct {
	Proc  *sem.Procedure
	SSA   *ssa.Func
	Intra *intra.Result
	Sites []*SiteFunctions
}

// Functions is the program-wide result of jump function construction.
type Functions struct {
	Config  Config
	Graph   *callgraph.Graph
	Mod     *modref.Info
	Builder *symbolic.Builder
	// Returns maps each procedure to its return jump functions (absent
	// or nil for recursive procedures and when UseReturnJFs is off).
	Returns map[*sem.Procedure]*intra.ReturnSummary
	// Procs maps each procedure to its forward jump functions.
	Procs map[*sem.Procedure]*ProcFunctions
}

// EntryEnv provides known constant entry values per procedure for
// rebuild rounds of complete propagation; nil means no knowledge.
type EntryEnv func(p *sem.Procedure) map[ssa.Var]int64

// Memo caches per-procedure build products across Build calls. See
// Config.Memo.
type Memo interface {
	Lookup(p *sem.Procedure) *ProcMemo
	Store(p *sem.Procedure, m *ProcMemo)
}

// ProcMemo is one procedure's memoizable build product.
type ProcMemo struct {
	// Summary is the return jump-function summary; nil for recursive
	// procedures and when return jump functions are off.
	Summary *intra.ReturnSummary
	// Sites are the procedure's forward jump functions, aligned with its
	// CFG call sites (program-procedure callees only, in CFG order).
	Sites []*SiteFunctions
	// Truncated is how many expressions the procedure's analysis
	// truncated to ⊥ under the size budget (needed to reproduce the
	// driver's truncation warning exactly).
	Truncated int
}

// Build constructs return and forward jump functions for the whole
// program, in the paper's phase order: return jump functions bottom-up,
// then forward jump functions. It returns an error only when
// cfgr.Check reports budget exhaustion or ctx is cancelled (both
// surface as *guard.Exhausted so the driver can degrade the
// configuration); internal panics are re-raised tagged with the phase
// and the procedure being analyzed. Worker pools observe ctx between
// procedures, so a cancelled build stops claiming work instead of
// analyzing the whole program. A nil ctx never cancels.
func Build(ctx context.Context, cg *callgraph.Graph, mod *modref.Info, b *symbolic.Builder, cfgr Config, entry EntryEnv) (*Functions, error) {
	defer guard.Repanic("jump")
	guard.InjectPanic("jump")
	if b == nil {
		b = symbolic.NewBuilder()
	}
	fns := &Functions{
		Config:  cfgr,
		Graph:   cg,
		Mod:     mod,
		Builder: b,
		Returns: make(map[*sem.Procedure]*intra.ReturnSummary),
		Procs:   make(map[*sem.Procedure]*ProcFunctions),
	}
	builder := &fnBuilder{
		fns:      fns,
		ctx:      ctx,
		entry:    entry,
		workers:  par.Workers(cfgr.Parallelism, len(cg.Order)),
		orderIdx: make(map[*sem.Procedure]int, len(cg.Order)),
		ssaCache: make([]*ssa.Func, len(cg.Order)),
		analyzed: make([]*intra.Result, len(cg.Order)),
	}
	for i, n := range cg.Order {
		builder.orderIdx[n.Proc] = i
	}
	if prev := cfgr.Prev; prev != nil && prev.Graph == cg && prev.Mod == mod && prev.Config.UseMOD == cfgr.UseMOD {
		for i, n := range cg.Order {
			if pf := prev.Procs[n.Proc]; pf != nil {
				builder.ssaCache[i] = pf.SSA
			}
		}
	}
	// Rounds would otherwise chain, each build retaining all earlier ones.
	fns.Config.Prev = nil
	if builder.workers > 1 || cfgr.Memo != nil {
		if builder.workers > 1 {
			builder.prebuildSSA()
		}
		builder.procBuilders = make([]*symbolic.Builder, len(cg.Order))
		for i := range builder.procBuilders {
			pb := symbolic.NewBuilder()
			pb.SetMaxSize(b.MaxSize())
			builder.procBuilders[i] = pb
		}
		// Every worker builder is private until the final merge below, so
		// the truncation sum observes quiescent counters.
		defer func() {
			for _, pb := range builder.procBuilders {
				b.AddTruncated(pb.Truncated())
			}
		}()
	}
	if cfgr.UseReturnJFs {
		if err := builder.buildReturns(); err != nil {
			return nil, err
		}
	}
	if err := builder.buildForwards(); err != nil {
		return nil, err
	}
	return fns, nil
}

// check consults the configured budget hook between procedures.
func (fb *fnBuilder) check() error {
	if fb.fns.Config.Check == nil {
		return nil
	}
	return fb.fns.Config.Check()
}

// ctxErr reports the build context's cancellation as *guard.Exhausted.
func (fb *fnBuilder) ctxErr() error {
	if fb.ctx == nil {
		return nil
	}
	if err := fb.ctx.Err(); err != nil {
		return &guard.Exhausted{Axis: guard.AxisDeadline, Cause: err, Site: "jump"}
	}
	return nil
}

// forEach fans fn out over the build's worker pool under its context,
// normalizing a raw context error (the pool stopped claiming tasks)
// into the same *guard.Exhausted a task-level deadline check produces,
// so the degradation driver sees one error shape either way.
func (fb *fnBuilder) forEach(count int, fn func(i int) error) error {
	err := par.ForEachCtx(fb.ctx, fb.workers, count, fn)
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &guard.Exhausted{Axis: guard.AxisDeadline, Cause: err, Site: "jump"}
	}
	return err
}

type fnBuilder struct {
	fns      *Functions
	ctx      context.Context
	entry    EntryEnv
	workers  int
	orderIdx map[*sem.Procedure]int
	// ssaCache holds one SSA build per procedure, indexed like
	// Graph.Order: the SSA form depends only on the CFG and the kill
	// assumptions, both fixed for a Build call (and across Config.Prev's
	// rounds). Parallel mode prebuilds it; otherwise analyzeProc fills
	// slots as it goes.
	ssaCache []*ssa.Func
	// analyzed holds each procedure's value numbering once computed,
	// indexed like Graph.Order (see analyzeProc).
	analyzed []*intra.Result
	// procBuilders (parallel mode only) gives each procedure a private
	// expression builder: the hash-consing tables are not goroutine-safe,
	// and expressions cross builders only through Substitute, which
	// re-interns. Serial mode keeps the single shared builder.
	procBuilders []*symbolic.Builder
}

// memoHit returns the memoized build product for p, if any. The memo's
// hit set is frozen before Build starts, so this is safe from workers.
func (fb *fnBuilder) memoHit(p *sem.Procedure) *ProcMemo {
	if m := fb.fns.Config.Memo; m != nil {
		return m.Lookup(p)
	}
	return nil
}

func (fb *fnBuilder) opaqueBase(p *sem.Procedure) int64 {
	if i, ok := fb.orderIdx[p]; ok {
		return int64(i+1) << 32
	}
	return int64(len(fb.fns.Graph.Order)+1) << 32
}

// builderFor returns the expression builder procedure p's analysis must
// use: its private one in parallel mode, the shared one serially.
func (fb *fnBuilder) builderFor(p *sem.Procedure) *symbolic.Builder {
	if fb.procBuilders != nil {
		if i, ok := fb.orderIdx[p]; ok {
			return fb.procBuilders[i]
		}
	}
	return fb.fns.Builder
}

// BuildSSA builds procedure n's SSA form as every analysis phase needs
// it: over all program globals, with call-site kills from the MOD
// summaries when useMOD is set (worst-case kills otherwise).
func BuildSSA(cg *callgraph.Graph, mod *modref.Info, useMOD bool, n *callgraph.Node) *ssa.Func {
	opts := ssa.Options{Globals: cg.Prog.Globals()}
	if useMOD {
		opts.Kills = mod.Kills
	}
	return ssa.Build(n.CFG, dom.Compute(n.CFG), opts)
}

// SummaryHooks returns the value-numbering engine's hooks for applying
// return jump functions at call sites: the callee summaries from
// returns, and — with useMOD — the callees' GMOD sets (nil otherwise:
// every global may be modified).
func SummaryHooks(cg *callgraph.Graph, mod *modref.Info, returns map[*sem.Procedure]*intra.ReturnSummary, useMOD bool) (
	returnJF func(callee string) *intra.ReturnSummary, gmod func(callee string, g *sem.GlobalVar) bool) {
	returnJF = func(callee string) *intra.ReturnSummary {
		if cn := cg.Nodes[callee]; cn != nil {
			return returns[cn.Proc]
		}
		return nil
	}
	if useMOD {
		gmod = func(callee string, g *sem.GlobalVar) bool {
			cn := cg.Nodes[callee]
			if cn == nil {
				return true
			}
			return mod.GMod(cn.Proc, g)
		}
	}
	return returnJF, gmod
}

// prebuildSSA fills the SSA cache for every procedure concurrently.
// ssa.Build touches only per-procedure structures (the CFG, the dom
// tree, its own Func), so the fan-out needs no synchronization beyond
// the per-index slots.
func (fb *fnBuilder) prebuildSSA() {
	order := fb.fns.Graph.Order
	// A cancelled prebuild leaves nil cache slots; analyzeProc fills them
	// lazily, and the passes that follow observe the context themselves.
	_ = par.ForEachCtx(fb.ctx, fb.workers, len(order), func(i int) error {
		n := order[i]
		if fb.ssaCache[i] != nil || fb.memoHit(n.Proc) != nil {
			return nil // already built, or the memoized product is reused
		}
		defer guard.Repanic("jump", n.Proc.Name)
		fb.ssaCache[i] = BuildSSA(fb.fns.Graph, fb.fns.Mod, fb.fns.Config.UseMOD, n)
		return nil
	})
}

// onAnalyze, when non-nil, observes every value-numbering run Build
// makes (a test seam; it must be safe for concurrent use).
var onAnalyze func(p *sem.Procedure)

// analyzeProc runs the SSA + symbolic engine for one procedure under
// the current configuration and the return summaries computed so far,
// at most once per Build: the run's inputs — SSA, callee summaries,
// entry environment, builder, opaque base — are already final when
// buildReturns analyzes a procedure, so buildForwards gets that run
// back rather than a second one. Each procedure's slots are touched by
// one worker at a time.
func (fb *fnBuilder) analyzeProc(n *callgraph.Node) (*ssa.Func, *intra.Result) {
	cfgr := fb.fns.Config
	i := fb.orderIdx[n.Proc]
	if res := fb.analyzed[i]; res != nil {
		return fb.ssaCache[i], res
	}
	fn := fb.ssaCache[i]
	if fn == nil {
		fn = BuildSSA(fb.fns.Graph, fb.fns.Mod, cfgr.UseMOD, n)
		fb.ssaCache[i] = fn
	}
	if onAnalyze != nil {
		onAnalyze(n.Proc)
	}

	iopts := intra.Options{
		Builder:          fb.builderFor(n.Proc),
		OpaqueBase:       fb.opaqueBase(n.Proc),
		Prune:            cfgr.Prune,
		FullSubstitution: cfgr.FullSubstitution,
		Gated:            cfgr.Gated,
	}
	if fb.entry != nil {
		iopts.Entry = fb.entry(n.Proc)
	}
	if cfgr.UseReturnJFs {
		iopts.ReturnJF, iopts.GMod = SummaryHooks(fb.fns.Graph, fb.fns.Mod, fb.fns.Returns, cfgr.UseMOD)
	}
	res := intra.Analyze(fn, iopts)
	fb.analyzed[i] = res
	return fn, res
}

// buildReturns walks the call graph bottom-up, producing a
// ReturnSummary per non-recursive procedure (paper §4.1, first phase).
//
// In parallel mode the bottom-up order relaxes to level scheduling:
// level(p) = 1 + max level of p's callees in other SCCs, so the nodes
// of one level have no summary dependence on each other and can be
// analyzed concurrently. Summaries are installed serially at each level
// barrier, so a worker only ever reads a quiescent Returns map.
func (fb *fnBuilder) buildReturns() error {
	order := fb.fns.Graph.BottomUp()
	// Memoized summaries depend on nothing built this call (their
	// callee closures are part of the memo key), so install them all up
	// front; both the serial sweep and the level barriers below then see
	// them exactly where a fresh build would have put them.
	for _, n := range order {
		if m := fb.memoHit(n.Proc); m != nil && m.Summary != nil {
			fb.fns.Returns[n.Proc] = m.Summary
		}
	}
	if fb.workers <= 1 {
		for _, n := range order {
			if n.Recursive {
				continue // conservative: no return jump functions
			}
			if fb.memoHit(n.Proc) != nil {
				continue
			}
			if err := fb.ctxErr(); err != nil {
				return err
			}
			if err := fb.check(); err != nil {
				return err
			}
			fn, res := fb.analyzeProcGuarded(n)
			fb.fns.Returns[n.Proc] = fb.summarize(n, fn, res)
		}
		return nil
	}

	// BottomUp order lists callees before callers (for nodes in distinct
	// SCCs), so one forward sweep computes every level.
	level := make(map[*callgraph.Node]int, len(order))
	maxLevel := 0
	for _, n := range order {
		lv := 0
		for _, site := range n.Out {
			m := fb.fns.Graph.Nodes[site.Callee]
			if m == nil || m.SCC == n.SCC {
				continue
			}
			if l := level[m] + 1; l > lv {
				lv = l
			}
		}
		level[n] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	for lv := 0; lv <= maxLevel; lv++ {
		var batch []*callgraph.Node
		for _, n := range order {
			if level[n] == lv && !n.Recursive && fb.memoHit(n.Proc) == nil {
				batch = append(batch, n)
			}
		}
		sums := make([]*intra.ReturnSummary, len(batch))
		err := fb.forEach(len(batch), func(i int) error {
			if err := fb.check(); err != nil {
				return err
			}
			n := batch[i]
			fn, res := fb.analyzeProcGuarded(n)
			sums[i] = fb.summarize(n, fn, res)
			return nil
		})
		if err != nil {
			return err
		}
		for i, n := range batch {
			fb.fns.Returns[n.Proc] = sums[i]
		}
	}
	return nil
}

// summarize extracts the return jump functions from one procedure's
// exit state.
func (fb *fnBuilder) summarize(n *callgraph.Node, fn *ssa.Func, res *intra.Result) *intra.ReturnSummary {
	sum := &intra.ReturnSummary{
		Proc:    n.Proc,
		Formals: make(map[int]*symbolic.Expr),
		Globals: make(map[*sem.GlobalVar]*symbolic.Expr),
	}
	for i, f := range n.Proc.Formals {
		if f.IsArray || f.Type != ast.TypeInteger {
			continue
		}
		if e := usableExit(res, fn.ExitVals[ssa.VarOf(f)]); e != nil {
			sum.Formals[i] = e
		}
	}
	for _, g := range fb.fns.Graph.Prog.Globals() {
		if g.IsArray || g.Type != ast.TypeInteger {
			continue
		}
		if e := usableExit(res, fn.ExitVals[ssa.GlobalVar(g)]); e != nil {
			sum.Globals[g] = e
		}
	}
	if r := n.Proc.Result; r != nil {
		sum.Result = usableExit(res, fn.ExitVals[ssa.VarOf(r)])
	}
	return sum
}

// analyzeProcGuarded is analyzeProc with panic attribution: a panic in
// the SSA/value-numbering engine is tagged with the procedure's name.
func (fb *fnBuilder) analyzeProcGuarded(n *callgraph.Node) (*ssa.Func, *intra.Result) {
	defer guard.Repanic("jump", n.Proc.Name)
	return fb.analyzeProc(n)
}

// usableExit filters an exit expression down to a valid return jump
// function: transparent (no opaque parts) and integer-valued.
func usableExit(res *intra.Result, v *ssa.Value) *symbolic.Expr {
	if v == nil {
		return nil
	}
	e := res.ExprOf(v)
	if e == nil || e.HasOpaque() {
		return nil
	}
	if _, isBool := e.IsBool(); isBool {
		return nil
	}
	return e
}

// buildForwards constructs the per-site forward jump functions
// (paper §4.1, second phase; a top-down pass, though with return
// summaries fixed the order no longer matters — which is also what
// makes the pass embarrassingly parallel).
func (fb *fnBuilder) buildForwards() error {
	order := fb.fns.Graph.TopDown()
	pfs := make([]*ProcFunctions, len(order))
	err := fb.forEach(len(order), func(i int) error {
		if err := fb.check(); err != nil {
			return err
		}
		n := order[i]
		if m := fb.memoHit(n.Proc); m != nil {
			// Reuse the memoized product wholesale. The truncation the
			// original analysis observed is credited to this procedure's
			// builder so the driver's warning reproduces exactly.
			pfs[i] = &ProcFunctions{Proc: n.Proc, Sites: m.Sites}
			fb.builderFor(n.Proc).AddTruncated(m.Truncated)
			return nil
		}
		fn, res := fb.analyzeProcGuarded(n)
		pf := &ProcFunctions{Proc: n.Proc, SSA: fn, Intra: res}
		for _, site := range fn.Graph.Sites {
			calleeNode := fb.fns.Graph.Nodes[site.Callee]
			if calleeNode == nil {
				continue
			}
			pf.Sites = append(pf.Sites, fb.siteFunctions(fn, res, site, calleeNode.Proc))
		}
		pfs[i] = pf
		if memo := fb.fns.Config.Memo; memo != nil {
			// This procedure's one analysis used its private builder, so
			// its truncation counter is exactly this procedure's share.
			memo.Store(n.Proc, &ProcMemo{
				Summary:   fb.fns.Returns[n.Proc],
				Sites:     pf.Sites,
				Truncated: fb.builderFor(n.Proc).Truncated(),
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, n := range order {
		fb.fns.Procs[n.Proc] = pfs[i]
	}
	return nil
}

func (fb *fnBuilder) siteFunctions(fn *ssa.Func, res *intra.Result, site *cfg.CallSite, callee *sem.Procedure) *SiteFunctions {
	sf := &SiteFunctions{
		Site:    site,
		Callee:  callee,
		Formals: make([]*symbolic.Expr, len(callee.Formals)),
		Globals: make(map[*sem.GlobalVar]*symbolic.Expr),
	}
	if site.Block != nil && !res.BlockExecutable(site.Block) {
		sf.Dead = true
		return sf
	}
	info := fn.Calls[site]
	kind := fb.fns.Config.Kind
	for i, formal := range callee.Formals {
		if i >= len(site.Args) {
			break
		}
		// Only integer parameters are propagated (paper §4: "the
		// implementation only propagates integer constants").
		if formal.Type != ast.TypeInteger || formal.IsArray {
			continue
		}
		var raw *symbolic.Expr
		if info != nil && i < len(info.ArgVals) && info.ArgVals[i] != nil {
			raw = res.ExprOf(info.ArgVals[i])
		}
		sf.Formals[i] = restrict(kind, raw, site.Args[i])
	}
	// Globals are "implicit actuals": their value at the site is the
	// jump function for the corresponding entry global of the callee.
	// The literal kind misses them entirely (§3.1.1: "this jump function
	// misses any constant globals which are passed implicitly").
	if kind != Literal && info != nil {
		for g, v := range info.GlobalVals {
			if g.Type != ast.TypeInteger || g.IsArray {
				continue
			}
			if e := restrict(kind, res.ExprOf(v), nil); e != nil {
				sf.Globals[g] = e
			}
		}
	}
	return sf
}

// restrict derives the kind-specific jump function from the full
// symbolic expression of an actual (nil = ⊥).
func restrict(kind Kind, raw *symbolic.Expr, actual ast.Expr) *symbolic.Expr {
	switch kind {
	case Literal:
		// Textual scan of the call site: a literal (possibly negated)
		// integer constant. Independent of the engine's expression.
		if raw == nil {
			return nil
		}
		switch a := actual.(type) {
		case *ast.IntLit:
			return raw // raw is the same constant
		case *ast.Unary:
			if a.Op == ast.OpNeg {
				if _, ok := a.X.(*ast.IntLit); ok {
					return raw
				}
			}
		}
		return nil
	case Intraprocedural:
		if raw == nil {
			return nil
		}
		if _, ok := raw.IsConst(); ok {
			return raw
		}
		return nil
	case PassThrough:
		if raw == nil {
			return nil
		}
		if _, ok := raw.IsConst(); ok {
			return raw
		}
		if raw.Op == symbolic.OpParam || raw.Op == symbolic.OpGlobal {
			return raw
		}
		return nil
	default: // Polynomial
		if raw == nil || raw.HasOpaque() {
			return nil
		}
		if _, isBool := raw.IsBool(); isBool {
			return nil
		}
		return raw
	}
}

// String renders the jump functions of a site for debugging.
func (sf *SiteFunctions) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "site %s:", sf.Site)
	for i, e := range sf.Formals {
		name := sf.Callee.Formals[i].Name
		if e == nil {
			fmt.Fprintf(&b, " %s=⊥", name)
		} else {
			fmt.Fprintf(&b, " %s=%s", name, e)
		}
	}
	var keys []string
	for g := range sf.Globals {
		keys = append(keys, g.Key())
	}
	sort.Strings(keys)
	for _, k := range keys {
		for g, e := range sf.Globals {
			if g.Key() == k {
				fmt.Fprintf(&b, " %s=%s", k, e)
			}
		}
	}
	return b.String()
}
