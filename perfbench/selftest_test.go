package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the self-test reads.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, declared []struct{ Name, Unit string }, printed []string) {
		want := map[string]bool{}
		for _, m := range declared {
			want[m.Name] = true
			if units[m.Name] != m.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, benchmark prints %q", kind, m.Name, m.Unit, units[m.Name])
			}
		}
		for _, n := range printed {
			if !want[n] {
				t.Errorf("%s %s is printed but not declared", kind, n)
			}
			delete(want, n)
		}
		for n := range want {
			t.Errorf("%s %s is declared but not printed", kind, n)
		}
	}
	check("end-to-end", bj.EndToEnd, endToEnd)
	check("per-layer", bj.PerLayer, perLayer())
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}

// runOnce runs the benchmark in-process and decodes its last line.
func runOnce(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: last line is not the result: %v", args, err)
	}
	return r
}

func TestShortRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for w := range workloads {
		for _, trace := range []string{"0", "1"} {
			r := runOnce(t, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace)
			names := endToEnd
			if trace == "1" {
				names = perLayer()
			}
			if len(r.Metrics) != len(names) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(r.Metrics), len(names))
			}
			for _, n := range names {
				if m, ok := r.Metrics[n]; !ok || m.Unit != units[n] {
					t.Errorf("%s trace %s: metric %s missing or without its unit: %+v", w, trace, n, m)
				}
			}
			if r.Attempted < 1 {
				t.Errorf("%s trace %s: attempted %d", w, trace, r.Attempted)
			}
		}
	}
}

func TestCountsRepeatAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite workload four times")
	}
	args := []string{"--workload", "suite", "--seed", "5", "--seconds", "1"}
	exact := map[string][]string{
		"0": {"substitutions"},
		"1": {"solve.jf_evals", "session.units_invalidated", "session.context_reuse_ratio", "session.fast_path_ratio"},
	}
	for trace, names := range exact {
		a := runOnce(t, append(args, "--trace", trace)...)
		b := runOnce(t, append(args, "--trace", trace)...)
		for _, n := range names {
			if a.Metrics[n].Value != b.Metrics[n].Value || a.Metrics[n].Value == 0 {
				t.Errorf("%s: %v then %v, want the same non-zero count", n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}
}

const tinyProgram = `PROGRAM MAIN
CALL WORK(7)
END
SUBROUTINE WORK(N)
INTEGER N
PRINT *, N + 1
END
`

func TestGateAcceptsTheReference(t *testing.T) {
	ref, err := reference("tiny.f", tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := gate("tiny.f", tinyProgram, ref)
	if err != nil || pairs == 0 {
		t.Fatalf("gate on the reference: %d pairs, %v", pairs, err)
	}
}

func TestGateRejectsChangedConstant(t *testing.T) {
	ref, err := reference("tiny.f", tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	bad := ref
	bad.Consts = append([]constRec(nil), ref.Consts...)
	bad.Consts[0].Value++
	if err := mismatch(bad, ref); err == nil {
		t.Error("reference check accepted a changed constant")
	}
	if _, err := gate("tiny.f", tinyProgram, bad); err == nil {
		t.Error("interpreter oracle accepted a changed constant")
	}
	// A transformed text that substitutes the wrong value.
	bad = ref
	bad.Text = strings.Replace(ref.Text, "7 + 1", "8 + 1", 1)
	if bad.Text == ref.Text {
		t.Fatalf("transformed text has no substituted 7:\n%s", ref.Text)
	}
	if _, err := gate("tiny.f", tinyProgram, bad); err == nil {
		t.Error("interpreter oracle accepted a wrongly substituted text")
	}
}

func TestGateRejectsDroppedSubstitution(t *testing.T) {
	ref, err := reference("tiny.f", tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Subs == 0 {
		t.Fatal("reference substituted nothing")
	}
	bad := ref
	bad.Subs--
	if err := mismatch(bad, ref); err == nil {
		t.Error("reference check accepted a dropped substitution count")
	}
	bad = ref
	bad.Text = tinyProgram // the use left unsubstituted
	if err := mismatch(bad, ref); err == nil {
		t.Error("reference check accepted a transformed text with a substitution dropped")
	}
}

func TestRecordMarksWrongAnswersIncorrect(t *testing.T) {
	ref, err := reference("tiny.f", tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	if !o.record(nil, ref, ref) || !o.correct {
		t.Fatal("a correct answer was not booked as a success")
	}
	bad := ref
	bad.Subs++
	if o.record(nil, bad, ref) || o.correct || o.failed != 1 {
		t.Fatalf("a wrong answer was not booked as failed and incorrect: %+v", o)
	}
}
