package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"repro/internal/callgraph"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/suite"
)

// input is one distinct program with its checked reference answer.
type input struct {
	Name, Src string
	Ref       answer
}

// editTarget is a session program and the one-constant edit that
// alternates a leaf unit between two texts. Refs[i] is the reference
// answer for the whole program with Texts[i] in place.
type editTarget struct {
	In    input
	Unit  int
	Texts [2]string
	Refs  [2]answer
}

// gateStats accumulates what the outputs gate checked while inputs
// were prepared.
type gateStats struct {
	mu       sync.Mutex
	programs int
	pairs    int
	failures []error
}

func (g *gateStats) add(pairs int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.programs++
	g.pairs += pairs
	if err != nil {
		g.failures = append(g.failures, err)
	}
}

// prepare computes the reference answer of one program and puts it
// through the outputs gate. A program the gate rejects stays in the
// workload, its answer marked unsound, so the failure shows in the run.
func prepare(name, src string, gs *gateStats) (input, error) {
	ref, err := reference(name, src)
	if err != nil {
		return input{}, err
	}
	pairs, err := gate(name, src, ref)
	if err != nil {
		ref.Unsound = fmt.Errorf("outputs gate: %w", err)
	}
	gs.add(pairs, ref.Unsound)
	return input{Name: name, Src: src, Ref: ref}, nil
}

// prepareAll prepares programs on up to workers goroutines, keeping
// their order.
func prepareAll(names, srcs []string, workers int, gs *gateStats) ([]input, error) {
	out := make([]input, len(srcs))
	errs := make([]error, len(srcs))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(srcs) {
					return
				}
				out[k], errs[k] = prepare(names[k], srcs[k], gs)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// suitePrograms returns the paper's suite.
func suitePrograms() (names, srcs []string) {
	for _, spec := range suite.Programs() {
		names = append(names, spec.Name+".f")
		srcs = append(srcs, suite.Source(spec))
	}
	return names, srcs
}

// trailingLiteral matches an assignment whose right-hand side ends in
// an integer literal, e.g. "L0 = 2" or "IPAD = IPAD + 44".
var trailingLiteral = regexp.MustCompile(`(?m)^\s*[A-Z][A-Z0-9]* = (?:.*[^A-Z0-9.])?(\d+)$`)

// newEditTarget picks, in seeded order, a leaf unit of in (one that
// calls nothing but is called) and the first assignment in it that ends
// in an integer literal; the edit increments that literal.
func newEditTarget(in input, seed int64, gs *gateStats) (*editTarget, error) {
	chunks, ok := memo.Split(in.Name, in.Src)
	if !ok {
		return nil, fmt.Errorf("%s: no program units", in.Name)
	}
	var diags source.ErrorList
	prog := sem.Analyze(parser.ParseSource(in.Name, in.Src, &diags), &diags)
	if err := diags.Err(); err != nil {
		return nil, err
	}
	if len(prog.Order) != len(chunks) {
		return nil, fmt.Errorf("%s: %d units but %d chunks", in.Name, len(prog.Order), len(chunks))
	}
	g := callgraph.Build(prog)
	var leaves []int
	for i, n := range g.Order {
		if n.Proc != prog.Main && len(n.Out) == 0 && len(n.In) > 0 {
			leaves = append(leaves, i)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
	for _, u := range leaves {
		text := chunks[u].Text
		if m := trailingLiteral.FindStringSubmatchIndex(text); m != nil {
			lo, hi := m[2], m[3]
			v, err := strconv.Atoi(text[lo:hi])
			if err != nil {
				return nil, err
			}
			edited := text[:lo] + strconv.Itoa(v+1) + text[hi:]
			var src strings.Builder
			for i, c := range chunks {
				if i == u {
					src.WriteString(edited)
				} else {
					src.WriteString(c.Text)
				}
			}
			alt, err := prepare(in.Name, src.String(), gs)
			if err != nil {
				return nil, err
			}
			return &editTarget{In: in, Unit: u, Texts: [2]string{text, edited}, Refs: [2]answer{in.Ref, alt.Ref}}, nil
		}
	}
	return nil, fmt.Errorf("%s: no leaf unit with an editable literal", in.Name)
}
