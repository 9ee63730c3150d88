// Command perfbench is the repository's benchmark: it drives the
// interprocedural constant propagation analyzer from outside, through
// its library API, checks every answer, and prints one JSON line of
// metrics.
//
//	perfbench --workload suite|suite-par --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"
)

// outcome is one run's verdict and metrics.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	problems  []string
	m         metrics
}

func newOutcome() *outcome { return &outcome{correct: true, m: metrics{}} }

// record books one operation: an error is a failed operation, a wrong
// answer is a failed operation and makes the run incorrect. It reports
// whether the operation succeeded.
func (o *outcome) record(err error, got, want answer) bool {
	o.attempted++
	if err == nil {
		if err = want.Unsound; err == nil {
			err = mismatch(got, want)
		}
		if err != nil {
			o.correct = false
		}
	}
	if err != nil {
		o.failed++
		o.note(err)
		return false
	}
	return true
}

// note keeps the first few distinct problems for the diagnostic on
// stderr.
func (o *outcome) note(err error) {
	msg := err.Error()
	if len(o.problems) < 5 && !slices.Contains(o.problems, msg) {
		o.problems = append(o.problems, msg)
	}
}

// fail marks the run incorrect because it could not measure at all.
func (o *outcome) fail(err error) *outcome {
	o.correct = false
	o.note(err)
	if o.attempted == 0 {
		o.attempted, o.failed = 1, 1
	}
	return o
}

// finish derives ok_frac from the operation counts.
func (o *outcome) finish() {
	o.m["ok_frac"] = ratio(float64(o.attempted-o.failed), float64(o.attempted))
}

// workloads maps each workload's name to the constructor that
// generates its inputs from a seed and gates them.
var workloads = map[string]func(seed int64) (*library, error){
	"suite":     newSuite,
	"suite-par": newSuitePar,
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayer lists the metrics of a traced run.
func perLayer() []string {
	e2e := make(map[string]bool)
	for _, n := range endToEnd {
		e2e[n] = true
	}
	var out []string
	for n := range units {
		if !e2e[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func render(o *outcome, trace bool) result {
	names := endToEnd
	if trace {
		names = perLayer()
	}
	r := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, n := range names {
		r.Metrics[n] = metricValue{Value: o.m[n], Unit: units[n]}
	}
	return r
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "suite or suite-par")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newWorkload := workloads[*workload]
	if fs.NArg() > 0 || newWorkload == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload suite|suite-par --seed N --seconds S --trace 0|1")
		return 2
	}
	ctx := context.Background()
	w, err := newWorkload(*seed)
	var o *outcome
	if err != nil {
		o = newOutcome().fail(fmt.Errorf("prepare inputs: %w", err))
	} else {
		gs := &w.gs
		fmt.Fprintf(stderr, "perfbench: outputs gate: %d programs, %d rejected, %d constant/entry pairs compared\n",
			gs.programs, len(gs.failures), gs.pairs)
		if *trace == 1 {
			o = w.traced(ctx, time.Duration(*seconds)*time.Second)
		} else {
			o = w.run(ctx, time.Duration(*seconds)*time.Second)
		}
		// A rejected input makes the run incorrect even if no timed
		// operation happened to send it.
		for _, err := range gs.failures {
			o.correct = false
			o.note(err)
		}
		if gs.pairs == 0 {
			o.fail(fmt.Errorf("outputs gate compared no constant against an observed entry"))
		}
	}
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "perfbench: problem:", p)
	}
	b, err := json.Marshal(render(o, *trace == 1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
