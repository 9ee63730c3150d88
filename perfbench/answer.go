package main

import (
	"context"
	"fmt"
	"sort"

	"repro/ipcp"
)

// constRec is one reported constant.
type constRec struct {
	Proc, Name, Block  string
	Value              int64
	Global, Referenced bool
}

// answer is everything a caller of the analyzer consumes: the CONSTANTS
// sets, the substitution count and the transformed source.
type answer struct {
	Consts []constRec
	Subs   int
	Text   string
	// Unsound is set on a reference answer that failed the outputs
	// gate: every operation expecting it counts as failed and makes the
	// run incorrect.
	Unsound error
}

// refConfig is the configuration every timed answer is checked
// against: the paper's recommended one, serial, with no cache.
func refConfig() ipcp.Config {
	c := ipcp.DefaultConfig()
	c.Parallelism = 1
	return c
}

// answerOf reads a library result the way a compiler would: constants,
// substitution count and transformed text.
func answerOf(res *ipcp.Result) answer {
	a := answer{Subs: res.SubstitutionCount(), Text: res.TransformedSource()}
	for proc, ks := range res.Constants() {
		for _, k := range ks {
			a.Consts = append(a.Consts, constRec{
				Proc: proc, Name: k.Name, Block: k.Block, Value: k.Value,
				Global: k.IsGlobal, Referenced: k.Referenced,
			})
		}
	}
	sortConsts(a.Consts)
	return a
}

func sortConsts(cs []constRec) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Proc != cs[j].Proc {
			return cs[i].Proc < cs[j].Proc
		}
		if cs[i].Name != cs[j].Name {
			return cs[i].Name < cs[j].Name
		}
		return cs[i].Block < cs[j].Block
	})
}

// mismatch describes how got differs from the reference, or returns nil
// when the two answers agree exactly.
func mismatch(got, ref answer) error {
	if got.Subs != ref.Subs {
		return fmt.Errorf("substitutions %d, reference %d", got.Subs, ref.Subs)
	}
	if len(got.Consts) != len(ref.Consts) {
		return fmt.Errorf("%d constants, reference %d", len(got.Consts), len(ref.Consts))
	}
	for i := range got.Consts {
		if got.Consts[i] != ref.Consts[i] {
			return fmt.Errorf("constant %+v, reference %+v", got.Consts[i], ref.Consts[i])
		}
	}
	if got.Text != ref.Text {
		return fmt.Errorf("transformed text differs from the reference")
	}
	return nil
}

// reference analyzes src at refConfig.
func reference(name, src string) (answer, error) {
	res, err := ipcp.AnalyzeContext(context.Background(), name, src, refConfig())
	if err != nil {
		return answer{}, fmt.Errorf("reference analysis of %s: %w", name, err)
	}
	if res.Degraded() {
		return answer{}, fmt.Errorf("reference analysis of %s degraded", name)
	}
	return answerOf(res), nil
}
