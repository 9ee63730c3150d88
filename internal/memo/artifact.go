package memo

import (
	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/intra"
	"repro/internal/jump"
	"repro/internal/modref"
	"repro/internal/sem"
	"repro/internal/subst"
	"repro/internal/symbolic"
)

// jfArtifact is one procedure's jump-function build product in
// world-portable form: expressions reference formals by index and
// globals by layout key, so a different world with an identical unit,
// callee closure, and COMMON layout can relink them into its own
// builder. Artifacts never contain opaque leaves (the restriction rules
// filter them), which is checked again at store time.
type jfArtifact struct {
	hasSummary bool
	sumFormals map[int]*symbolic.Expr
	sumGlobals map[string]*symbolic.Expr // by GlobalVar.Key()
	sumResult  *symbolic.Expr
	sites      []siteArtifact
	trunc      int
}

type siteArtifact struct {
	callee  string
	formals []*symbolic.Expr // indexed like the callee's formals; nil = ⊥
	globals map[string]*symbolic.Expr
	dead    bool
}

// substArtifact is one procedure's substitution decision set. The
// replacement map is keyed by the chunk's own AST nodes, so it is valid
// for exactly the worlds sharing this chunk's parse (which is why it
// lives on the chunkEntry and dies with it).
type substArtifact struct {
	count int
	repl  map[ast.Expr]string
}

// exprBytes estimates an expression's retained size.
func exprBytes(e *symbolic.Expr) int64 {
	if e == nil {
		return 0
	}
	return int64(e.Size()) * 112
}

// ---------------------------------------------------------------------
// core.MemoHooks implementation

// hooks adapts one (cache, world) pair to the driver's memo interface.
type hooks struct {
	c *Cache
	w *world
}

func (h *hooks) Graph() (*callgraph.Graph, *modref.Info) { return h.w.graph, h.w.mod }

// funcsEntry is a cached whole-program jump-function build for one
// world and configuration fingerprint. Procs are stored without their
// SSA/value-numbering state, which dominates retained size. Complete
// propagation reads that state but bypasses this cache; substitution
// reuses it when present, so after a whole-build hit subst.Run rebuilds
// each procedure's SSA and value numbering itself. That is rare: the
// whole-result substitution cache of the same world almost always hits
// first, and a hit there never reaches subst.Run.
type funcsEntry struct {
	returns map[*sem.Procedure]*intra.ReturnSummary
	procs   map[*sem.Procedure]*jump.ProcFunctions
	trunc   int
}

func (h *hooks) Funcs(c core.Config, jc jump.Config, b *symbolic.Builder) (*jump.Functions, int, jump.Memo) {
	fp := jumpFP(c)
	h.c.mu.Lock()
	if fe := h.w.funcsCache[fp]; fe != nil {
		h.c.hits++
		h.c.mu.Unlock()
		return &jump.Functions{
			Config: jc, Graph: h.w.graph, Mod: h.w.mod, Builder: b,
			Returns: fe.returns, Procs: fe.procs,
		}, fe.trunc, nil
	}
	h.c.misses++

	// Whole-build miss: prepare the per-unit memo. Artifact lookups and
	// counters happen under the lock; relinking (which interns into the
	// attempt's private builder) happens outside it.
	m := &jumpMemo{
		h:     h,
		ready: make(map[*sem.Procedure]*jump.ProcMemo),
		keys:  make(map[*sem.Procedure]string, len(h.w.prog.Order)),
	}
	type pending struct {
		p   *sem.Procedure
		n   *callgraph.Node
		art *jfArtifact
	}
	var hitArts []pending
	for _, n := range h.w.graph.Order {
		p := n.Proc
		ce := h.w.procChunk[p]
		if ce == nil {
			continue
		}
		key := hashStrings(fp, h.w.closures[p], h.w.globalsFP)
		m.keys[p] = key
		if art := ce.jfArts[key]; art != nil {
			h.c.hits++
			if e := h.c.chunks[ce.key]; e != nil && e.chunk == ce {
				h.c.touch(e)
			}
			hitArts = append(hitArts, pending{p, n, art})
		} else {
			h.c.misses++
		}
	}
	h.c.mu.Unlock()

	for _, pa := range hitArts {
		if pm := h.w.relinkJF(pa.art, pa.p, pa.n, b); pm != nil {
			m.ready[pa.p] = pm
		}
	}
	return nil, 0, m
}

func (h *hooks) StoreFuncs(c core.Config, fns *jump.Functions, trunc int) {
	fp := jumpFP(c)
	fe := &funcsEntry{
		returns: fns.Returns,
		procs:   make(map[*sem.Procedure]*jump.ProcFunctions, len(fns.Procs)),
		trunc:   trunc,
	}
	var bytes int64 = 1024
	for _, sum := range fns.Returns {
		if sum == nil {
			continue
		}
		for _, e := range sum.Formals {
			bytes += exprBytes(e)
		}
		for _, e := range sum.Globals {
			bytes += exprBytes(e)
		}
		bytes += exprBytes(sum.Result) + 128
	}
	for p, pf := range fns.Procs {
		if pf == nil {
			continue
		}
		// Drop the SSA and value-numbering state: it dominates retained
		// size, propagation never reads it, and substitution rebuilds it
		// on the rare whole-build hit that misses the substitution cache
		// (see funcsEntry).
		fe.procs[p] = &jump.ProcFunctions{Proc: pf.Proc, Sites: pf.Sites}
		for _, sf := range pf.Sites {
			for _, e := range sf.Formals {
				bytes += exprBytes(e)
			}
			for _, e := range sf.Globals {
				bytes += exprBytes(e)
			}
			bytes += 160
		}
	}
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if h.w.evicted {
		return
	}
	if _, dup := h.w.funcsCache[fp]; dup {
		return // a concurrent identical attempt won the race
	}
	h.w.funcsCache[fp] = fe
	if e := h.c.worlds[h.w.key]; e != nil && e.world == h.w {
		h.c.addBytes(e, bytes)
	}
}

// substKeyParts renders the whole-program substitution cache key and the
// per-procedure entry fingerprints it is built from. The "noret" flag
// separates runs without return summaries (the all-⊥ fallback analysis)
// from normal runs of the same configuration.
func (h *hooks) substKeyParts(c core.Config, opts subst.Options) (whole, base string, perProc map[*sem.Procedure]string) {
	base = substFP(c)
	if opts.UseReturnJFs && (opts.Jump == nil || len(opts.Jump.Returns) == 0) {
		base += ";noret"
	}
	perProc = make(map[*sem.Procedure]string, len(h.w.prog.Order))
	parts := make([]string, 0, 2*len(h.w.prog.Order)+1)
	parts = append(parts, base)
	for _, p := range h.w.prog.Order {
		efp := entryFP(p, opts.Entry(p))
		perProc[p] = efp
		parts = append(parts, p.Name, efp)
	}
	return hashStrings(parts...), base, perProc
}

func (h *hooks) Subst(c core.Config, opts subst.Options) (*subst.Result, subst.Memo) {
	if opts.Entry == nil {
		return nil, nil
	}
	whole, base, perProc := h.substKeyParts(c, opts)

	h.c.mu.Lock()
	if res := h.w.substCache[whole]; res != nil {
		h.c.hits++
		h.c.mu.Unlock()
		return res, nil
	}
	h.c.misses++
	m := &substMemo{
		h:     h,
		whole: whole,
		ready: make(map[*sem.Procedure]*substArtifact),
		keys:  make(map[*sem.Procedure]string, len(h.w.prog.Order)),
	}
	for _, p := range h.w.prog.Order {
		ce := h.w.procChunk[p]
		if ce == nil {
			continue
		}
		key := hashStrings(base, perProc[p], h.w.closures[p], h.w.globalsFP)
		m.keys[p] = key
		if art := ce.substArts[key]; art != nil {
			h.c.hits++
			m.ready[p] = art
			if e := h.c.chunks[ce.key]; e != nil && e.chunk == ce {
				h.c.touch(e)
			}
		} else {
			h.c.misses++
		}
	}
	h.c.mu.Unlock()
	return nil, m
}

func (h *hooks) StoreSubst(c core.Config, opts subst.Options, res *subst.Result) {
	if opts.Entry == nil || res == nil {
		return
	}
	whole, _, _ := h.substKeyParts(c, opts)
	bytes := int64(len(res.Replacements))*96 + int64(len(res.PerProc))*64 + 512
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if h.w.evicted {
		return
	}
	if _, dup := h.w.substCache[whole]; dup {
		return
	}
	h.w.substCache[whole] = res
	if e := h.c.worlds[h.w.key]; e != nil && e.world == h.w {
		h.c.addBytes(e, bytes)
	}
}

// ---------------------------------------------------------------------
// jump.Memo implementation

type jumpMemo struct {
	h     *hooks
	ready map[*sem.Procedure]*jump.ProcMemo
	keys  map[*sem.Procedure]string
}

// Lookup is read-only over maps frozen before Build starts, so
// concurrent workers may call it freely.
func (m *jumpMemo) Lookup(p *sem.Procedure) *jump.ProcMemo { return m.ready[p] }

func (m *jumpMemo) Store(p *sem.Procedure, pm *jump.ProcMemo) {
	key := m.keys[p]
	if key == "" || pm == nil {
		return
	}
	art := portableJF(pm)
	if art == nil {
		return
	}
	var bytes int64 = 256
	for _, e := range art.sumFormals {
		bytes += exprBytes(e)
	}
	for _, e := range art.sumGlobals {
		bytes += exprBytes(e)
	}
	bytes += exprBytes(art.sumResult)
	for _, sa := range art.sites {
		for _, e := range sa.formals {
			bytes += exprBytes(e)
		}
		for _, e := range sa.globals {
			bytes += exprBytes(e)
		}
		bytes += 160
	}
	c, w := m.h.c, m.h.w
	c.mu.Lock()
	defer c.mu.Unlock()
	ce := w.procChunk[p]
	if ce == nil || ce.evicted {
		return
	}
	if _, dup := ce.jfArts[key]; dup {
		return
	}
	ce.jfArts[key] = art
	if e := c.chunks[ce.key]; e != nil && e.chunk == ce {
		c.addBytes(e, bytes)
	}
}

// portableJF converts a build product to world-portable form, refusing
// anything that would not round-trip (opaque leaves; there should be
// none — the restriction rules filter them — but a silent wrong-reuse
// is the one failure mode this cache must never have).
func portableJF(pm *jump.ProcMemo) *jfArtifact {
	art := &jfArtifact{trunc: pm.Truncated}
	ok := func(e *symbolic.Expr) bool { return e == nil || !e.HasOpaque() }
	if sum := pm.Summary; sum != nil {
		art.hasSummary = true
		art.sumFormals = make(map[int]*symbolic.Expr, len(sum.Formals))
		art.sumGlobals = make(map[string]*symbolic.Expr, len(sum.Globals))
		for i, e := range sum.Formals {
			if !ok(e) {
				return nil
			}
			art.sumFormals[i] = e
		}
		for g, e := range sum.Globals {
			if !ok(e) {
				return nil
			}
			art.sumGlobals[g.Key()] = e
		}
		if !ok(sum.Result) {
			return nil
		}
		art.sumResult = sum.Result
	}
	art.sites = make([]siteArtifact, len(pm.Sites))
	for j, sf := range pm.Sites {
		sa := siteArtifact{
			callee:  sf.Callee.Name,
			formals: make([]*symbolic.Expr, len(sf.Formals)),
			globals: make(map[string]*symbolic.Expr, len(sf.Globals)),
			dead:    sf.Dead,
		}
		for i, e := range sf.Formals {
			if !ok(e) {
				return nil
			}
			sa.formals[i] = e
		}
		for g, e := range sf.Globals {
			if !ok(e) {
				return nil
			}
			sa.globals[g.Key()] = e
		}
		art.sites[j] = sa
	}
	return art
}

// relinkJF re-expresses a portable artifact in world w: every formal
// leaf resolves by position (with a name check), every global leaf by
// layout key, and sites align one-to-one with the world's CFG sites.
// Any mismatch abandons the artifact (nil) and the procedure is rebuilt
// from source — relinking is an optimization, never an authority.
func (w *world) relinkJF(art *jfArtifact, p *sem.Procedure, node *callgraph.Node, b *symbolic.Builder) *jump.ProcMemo {
	bad := false
	repl := func(leaf *symbolic.Expr) *symbolic.Expr {
		switch leaf.Op {
		case symbolic.OpParam:
			i := leaf.Param.FormalIndex
			if i < 0 || i >= len(p.Formals) || p.Formals[i].Name != leaf.Param.Name {
				bad = true
				return b.Const(0)
			}
			return b.ParamLeaf(p.Formals[i])
		case symbolic.OpGlobal:
			if g := w.globalByKey[leaf.Global.Key()]; g != nil && g.Name == leaf.Global.Name {
				return b.GlobalLeaf(g)
			}
			bad = true
			return b.Const(0)
		}
		bad = true
		return b.Const(0)
	}
	conv := func(e *symbolic.Expr) *symbolic.Expr {
		if e == nil {
			return nil
		}
		return b.Substitute(e, repl)
	}

	pm := &jump.ProcMemo{Truncated: art.trunc}
	if art.hasSummary {
		sum := &intra.ReturnSummary{
			Proc:    p,
			Formals: make(map[int]*symbolic.Expr, len(art.sumFormals)),
			Globals: make(map[*sem.GlobalVar]*symbolic.Expr, len(art.sumGlobals)),
		}
		for i, e := range art.sumFormals {
			if i < 0 || i >= len(p.Formals) {
				return nil
			}
			sum.Formals[i] = conv(e)
		}
		for key, e := range art.sumGlobals {
			g := w.globalByKey[key]
			if g == nil {
				return nil
			}
			sum.Globals[g] = conv(e)
		}
		sum.Result = conv(art.sumResult)
		pm.Summary = sum
	}

	// The world's sites for p, filtered exactly as buildForwards filters
	// them (sites whose callee is not a program procedure are skipped).
	var sites []*jump.SiteFunctions
	for _, site := range node.CFG.Sites {
		calleeNode := w.graph.Nodes[site.Callee]
		if calleeNode == nil {
			continue
		}
		sites = append(sites, &jump.SiteFunctions{Site: site, Callee: calleeNode.Proc})
	}
	if len(sites) != len(art.sites) {
		return nil
	}
	for j, sf := range sites {
		sa := &art.sites[j]
		if sf.Callee.Name != sa.callee || len(sf.Callee.Formals) != len(sa.formals) {
			return nil
		}
		sf.Dead = sa.dead
		sf.Formals = make([]*symbolic.Expr, len(sa.formals))
		for i, e := range sa.formals {
			sf.Formals[i] = conv(e)
		}
		sf.Globals = make(map[*sem.GlobalVar]*symbolic.Expr, len(sa.globals))
		for key, e := range sa.globals {
			g := w.globalByKey[key]
			if g == nil {
				return nil
			}
			sf.Globals[g] = conv(e)
		}
	}
	if bad {
		return nil
	}
	pm.Sites = sites
	return pm
}

// ---------------------------------------------------------------------
// subst.Memo implementation

type substMemo struct {
	h     *hooks
	whole string
	ready map[*sem.Procedure]*substArtifact
	keys  map[*sem.Procedure]string
}

// Lookup is read-only over maps frozen before Run starts.
func (m *substMemo) Lookup(p *sem.Procedure) (int, map[ast.Expr]string, bool) {
	if art := m.ready[p]; art != nil {
		return art.count, art.repl, true
	}
	return 0, nil, false
}

func (m *substMemo) Store(p *sem.Procedure, count int, repl map[ast.Expr]string) {
	key := m.keys[p]
	if key == "" {
		return
	}
	c, w := m.h.c, m.h.w
	c.mu.Lock()
	defer c.mu.Unlock()
	ce := w.procChunk[p]
	if ce == nil || ce.evicted {
		return
	}
	if _, dup := ce.substArts[key]; dup {
		return
	}
	ce.substArts[key] = &substArtifact{count: count, repl: repl}
	if e := c.chunks[ce.key]; e != nil && e.chunk == ce {
		c.addBytes(e, int64(len(repl))*96+128)
	}
}
