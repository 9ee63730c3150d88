package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/ipcp"
)

// library drives the analyzer through its library entry points, one
// client, closed loop: cold analyses (no cache) of the inputs for the
// measured time, then, apart from them, a fixed number of cached
// analyses (a warm ipcp.Cache) and session edits of a leaf unit, each
// followed by a result read, on the resident programs. The seed sets
// the order of the inputs; the resident programs and their edits
// are the same for every seed, so the cached and edit latencies compare
// like with like across seeds.
type library struct {
	par int
	// resOps is how many cached analyses and edits a resident pass
	// makes per resident program.
	resOps int
	inputs []input
	// order reshuffles the inputs before every pass of the cold
	// traffic after the first.
	order *rand.Rand
	edits []*editTarget // one per resident program
	gs    gateStats
}

// addResidents sets the inputs and builds the residents' edit targets.
func (l *library) addResidents(inputs, residents []input) error {
	l.inputs = inputs
	for i, in := range residents {
		t, err := newEditTarget(in, int64(i), &l.gs)
		if err != nil {
			return err
		}
		l.edits = append(l.edits, t)
	}
	return nil
}

// suiteResOps is the resident pass's repeat count on each suite
// program: over a run's five passes 1,560 cached analyses and 1,560
// edits, about 10 s.
const suiteResOps = 24

// newSuite runs the paper's 13 programs in seeded order at
// Parallelism 1; all of them are resident.
func newSuite(seed int64) (*library, error) { return suiteAt(1, seed) }

// newSuitePar runs the same traffic at Parallelism nproc.
func newSuitePar(seed int64) (*library, error) { return suiteAt(runtime.GOMAXPROCS(0), seed) }

func suiteAt(par int, seed int64) (*library, error) {
	l := &library{par: par, resOps: suiteResOps}
	names, srcs := suitePrograms()
	res, err := prepareAll(names, srcs, runtime.GOMAXPROCS(0), &l.gs)
	if err != nil {
		return nil, err
	}
	l.order = rand.New(rand.NewSource(seed))
	ins := make([]input, len(res))
	for i, k := range l.order.Perm(len(res)) {
		ins[i] = res[k]
	}
	return l, l.addResidents(ins, res)
}

func (l *library) config(cache *ipcp.Cache) ipcp.Config {
	c := ipcp.DefaultConfig()
	c.Parallelism = l.par
	c.Cache = cache
	return c
}

// substitutions totals the reference substitution counts of every
// distinct input, edited variants included.
func (l *library) substitutions() float64 {
	n := 0
	for _, in := range l.inputs {
		n += in.Ref.Subs
	}
	for _, t := range l.edits {
		n += t.Refs[0].Subs + t.Refs[1].Subs
	}
	return float64(n)
}

// libState is what set-up leaves for the measured loop.
type libState struct {
	cache    *ipcp.Cache
	sessions []*ipcp.Session
	cur      []int // which of its two texts each session holds
}

// setup builds a warm system: every resident input analyzed once cold
// and once into the cache, and a session opened on each.
func (l *library) setup(ctx context.Context) (*libState, error) {
	st := &libState{cache: ipcp.NewCache(ipcp.CacheOptions{MaxBytes: 1 << 30})}
	for _, t := range l.edits {
		in := t.In
		for _, cache := range []*ipcp.Cache{nil, st.cache} {
			_, got, err := l.analyze(ctx, in, cache)
			if err != nil {
				return nil, err
			}
			if err := mismatch(got, in.Ref); err != nil {
				return nil, fmt.Errorf("%s: %w", in.Name, err)
			}
		}
	}
	for _, t := range l.edits {
		s, err := ipcp.OpenSession(ctx, t.In.Name, t.In.Src, l.config(nil))
		if err != nil {
			return nil, fmt.Errorf("open session on %s: %w", t.In.Name, err)
		}
		st.sessions = append(st.sessions, s)
		st.cur = append(st.cur, 0)
	}
	return st, nil
}

// analyze is one analysis as its caller sees it: the call plus reading
// the constants and the transformed text.
func (l *library) analyze(ctx context.Context, in input, cache *ipcp.Cache) (time.Duration, answer, error) {
	start := time.Now()
	res, err := ipcp.AnalyzeContext(ctx, in.Name, in.Src, l.config(cache))
	if err != nil {
		return 0, answer{}, err
	}
	got := answerOf(res)
	d := time.Since(start)
	if res.Degraded() {
		return 0, answer{}, fmt.Errorf("%s: degraded analysis", in.Name)
	}
	return d, got, nil
}

// edit flips session i to its other text and reads the new result. It
// returns the answer and the reference it must equal.
func (l *library) edit(ctx context.Context, st *libState, i int) (time.Duration, answer, answer, error) {
	t, s := l.edits[i], st.sessions[i]
	next := 1 - st.cur[i]
	start := time.Now()
	if _, err := s.Edit(ctx, []ipcp.UnitEdit{{Op: "replace", Index: t.Unit, Text: t.Texts[next]}}); err != nil {
		return 0, answer{}, answer{}, fmt.Errorf("edit %s: %w", t.In.Name, err)
	}
	res, err := s.Result()
	if err != nil {
		return 0, answer{}, answer{}, fmt.Errorf("result %s: %w", t.In.Name, err)
	}
	got := answerOf(res)
	d := time.Since(start)
	st.cur[i] = next
	if res.Degraded() {
		return 0, answer{}, answer{}, fmt.Errorf("%s: degraded session result", t.In.Name)
	}
	return d, got, t.Refs[next], nil
}

// cold makes one cold analysis of in, with no cache, and reports
// whether it succeeded.
func (l *library) cold(ctx context.Context, in input, lat *latencies, o *outcome) bool {
	d, got, err := l.analyze(ctx, in, nil)
	ok := o.record(err, got, in.Ref)
	if ok {
		lat.cold = append(lat.cold, ms(d))
	}
	return ok
}

// reorder shuffles the inputs. A program's latency depends on the heap
// its predecessor left, so a fixed order would give each seed a
// latency mix of its own; a new order every pass averages that out
// within a run.
func (l *library) reorder() {
	l.order.Shuffle(len(l.inputs), func(i, j int) { l.inputs[i], l.inputs[j] = l.inputs[j], l.inputs[i] })
}

// coldPass analyzes every input once with no cache.
func (l *library) coldPass(ctx context.Context, lat *latencies, o *outcome) {
	for _, in := range l.inputs {
		l.cold(ctx, in, lat, o)
	}
}

// residentPass makes resOps cached analyses and edits of every
// resident program.
func (l *library) residentPass(ctx context.Context, st *libState, lat *latencies, o *outcome) {
	for k, t := range l.edits {
		for r := 0; r < l.resOps; r++ {
			d, got, err := l.analyze(ctx, t.In, st.cache)
			if o.record(err, got, t.In.Ref) {
				lat.cached = append(lat.cached, ms(d))
			}
			d, got, want, err := l.edit(ctx, st, k)
			if o.record(err, got, want) {
				lat.edit = append(lat.edit, ms(d))
			}
		}
	}
}

// rounds is how many times the untraced run alternates a block of cold
// analyses with a set-up and a resident pass. A shared machine has
// slow spells of tens of seconds; spreading every kind of operation
// over the whole run averages each over the same spells, where one
// block per kind would let a spell fall on a single kind.
const rounds = 5

// run is the untraced run. Each round measures cold analyses, the
// caller's traffic, for a fifth of the given time, continuing through
// the inputs where the last round stopped; only they count towards
// ops_per_s and peak_rss_mb. Then it sets up the resident state
// (setup_s is the median of the rounds' set-ups) and makes a resident
// pass, a fixed number of cached analyses and edits, for cached_p50_ms
// and the edit latencies. The resident state is released before the
// next cold block.
func (l *library) run(ctx context.Context, seconds time.Duration) *outcome {
	o := newOutcome()
	var lat latencies
	var setups []float64
	var coldWall time.Duration
	coldOps, next := 0, 0
	for r := 0; r < rounds; r++ {
		resetPeakRSS()
		start := time.Now()
		for until := start.Add(seconds / rounds); time.Now().Before(until); next++ {
			if next > 0 && next%len(l.inputs) == 0 {
				l.reorder()
			}
			if l.cold(ctx, l.inputs[next%len(l.inputs)], &lat, o) {
				coldOps++
			}
		}
		coldWall += time.Since(start)
		o.m["peak_rss_mb"] = max(o.m["peak_rss_mb"], peakRSSMB())

		runtime.GC()
		start = time.Now()
		st, err := l.setup(ctx)
		if err != nil {
			return o.fail(err)
		}
		setups = append(setups, time.Since(start).Seconds())
		l.residentPass(ctx, st, &lat, o)
	}
	o.m["setup_s"] = quantile(setups, 0.5)
	o.m["ops_per_s"] = float64(coldOps) / coldWall.Seconds()
	lat.report(o.m)
	o.m["substitutions"] = l.substitutions()
	o.finish()
	return o
}
