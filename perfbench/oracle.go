package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// oracleInput is the fixed READ input vector of every oracle run.
var oracleInput = []int64{3, 1, 4, 1, 5, 9, 2, 6}

// execute checks src and runs it under the reference interpreter.
func execute(name, src string) (*sem.Program, *interp.Result, error) {
	var diags source.ErrorList
	f := parser.ParseSource(name, src, &diags)
	prog := sem.Analyze(f, &diags)
	if err := diags.Err(); err != nil {
		return nil, nil, fmt.Errorf("check %s: %w", name, err)
	}
	res, err := interp.Run(prog, interp.Options{Input: oracleInput, MaxSteps: 1 << 22})
	if err != nil {
		return nil, nil, fmt.Errorf("run %s: %w", name, err)
	}
	return prog, res, nil
}

// entryLog renders every procedure's entry snapshots as text keyed by
// procedure name, so two programs' runs can be compared.
func entryLog(prog *sem.Program, run *interp.Result) map[string]string {
	out := make(map[string]string, len(prog.Order))
	for _, p := range prog.Order {
		var b strings.Builder
		for _, snap := range run.Entries[p] {
			var idx []int
			for i := range snap.Formals {
				idx = append(idx, i)
			}
			sort.Ints(idx)
			for _, i := range idx {
				fmt.Fprintf(&b, "%d=%d ", i, snap.Formals[i])
			}
			var keys []string
			vals := make(map[string]int64, len(snap.Globals))
			for g, v := range snap.Globals {
				keys = append(keys, g.Key())
				vals[g.Key()] = v
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "%s=%d ", k, vals[k])
			}
			b.WriteString("\n")
		}
		out[p.Name] = b.String()
	}
	return out
}

// gate checks one distinct input's answer against concrete execution,
// independently of the analyzer: the original and the transformed text
// both run to completion, print the same output and enter every
// procedure with the same values, and every reported constant equals
// every value observed for it on entry. It returns how many
// (constant, entry) pairs it compared.
func gate(name, src string, ans answer) (int, error) {
	prog, before, err := execute(name, src)
	if err != nil {
		return 0, err
	}
	prog2, after, err := execute(name, ans.Text)
	if err != nil {
		return 0, fmt.Errorf("transformed text: %w", err)
	}
	if before.Output != after.Output {
		return 0, fmt.Errorf("%s: transformed program prints different output", name)
	}
	log1, log2 := entryLog(prog, before), entryLog(prog2, after)
	for p, s := range log1 {
		if log2[p] != s {
			return 0, fmt.Errorf("%s: transformed program enters %s with different values", name, p)
		}
	}
	if len(log1) != len(log2) {
		return 0, fmt.Errorf("%s: transformed program has %d procedures, original %d", name, len(log2), len(log1))
	}
	globals := make(map[string]*sem.GlobalVar)
	for _, g := range prog.Globals() {
		globals[g.Block+"/"+g.Name] = g
	}
	checked := 0
	for _, k := range ans.Consts {
		p := prog.Procs[k.Proc]
		if p == nil {
			return 0, fmt.Errorf("%s: constant for unknown procedure %s", name, k.Proc)
		}
		formal := -1
		var g *sem.GlobalVar
		if k.Global {
			g = globals[k.Block+"/"+k.Name]
			if g == nil {
				return 0, fmt.Errorf("%s: constant for unknown global /%s/ %s", name, k.Block, k.Name)
			}
		} else {
			for i, f := range p.Formals {
				if f.Name == k.Name {
					formal = i
				}
			}
			if formal < 0 {
				return 0, fmt.Errorf("%s: constant for unknown formal %s of %s", name, k.Name, k.Proc)
			}
		}
		for _, snap := range before.Entries[p] {
			var v int64
			var seen bool
			if g != nil {
				v, seen = snap.Globals[g]
			} else {
				v, seen = snap.Formals[formal]
			}
			if !seen {
				continue
			}
			checked++
			if v != k.Value {
				return 0, fmt.Errorf("%s: %s in %s reported %d, observed %d on entry", name, k.Name, k.Proc, k.Value, v)
			}
		}
	}
	return checked, nil
}
