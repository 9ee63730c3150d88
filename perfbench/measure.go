package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// units names the unit of every metric the benchmark reports; the
// self-test checks it against BENCHMARK.json.
var units = map[string]string{
	// End to end (untraced run).
	"setup_s":        "s",
	"analyze_p50_ms": "ms",
	"analyze_p90_ms": "ms",
	"cached_p50_ms":  "ms",
	"cached_p90_ms":  "ms",
	"edit_p50_ms":    "ms",
	"edit_p90_ms":    "ms",
	"ops_per_s":      "1/s",
	"substitutions":  "count",
	"peak_rss_mb":    "MB",
	"ok_frac":        "frac",
	// Per layer (traced run).
	"parse.busy_ms":               "ms",
	"parse.mb_per_s":              "MB/s",
	"sem.busy_ms":                 "ms",
	"graph.busy_ms":               "ms",
	"jump.busy_ms":                "ms",
	"jump.ssa_ms":                 "ms",
	"jump.intra_ms":               "ms",
	"solve.busy_ms":               "ms",
	"solve.jf_evals":              "count",
	"subst.busy_ms":               "ms",
	"ipcp.glue_ms":                "ms",
	"trace.overhead_ms":           "ms",
	"trace.phasestats_ratio":      "ratio",
	"par.speedup":                 "ratio",
	"par.rss_ratio":               "ratio",
	"gc.allocs_per_op":            "count",
	"gc.alloc_mb_per_op":          "MB",
	"gc.cycles_per_op":            "count",
	"gc.pause_ms":                 "ms",
	"memo.hit_ratio":              "ratio",
	"session.open_ms":             "ms",
	"session.edit_ms":             "ms",
	"session.result_ms":           "ms",
	"session.units_invalidated":   "count",
	"session.context_reuse_ratio": "ratio",
	"session.fast_path_ratio":     "ratio",
}

// endToEnd lists the metrics of an untraced run, in output order.
var endToEnd = []string{
	"setup_s", "analyze_p50_ms", "analyze_p90_ms", "cached_p50_ms",
	"cached_p90_ms", "edit_p50_ms", "edit_p90_ms", "ops_per_s", "substitutions", "peak_rss_mb", "ok_frac",
}

// metrics collects one run's values by name.
type metrics map[string]float64

// quantile estimates the q-quantile of xs as the mean of the samples
// ranked within 5 percentage points of q. Latencies here are mixtures —
// thirteen programs, or hits and misses of the collector — and a single
// order statistic jumps between the mixture's modes from run to run;
// the windowed mean does not. xs need not be sorted; no samples give 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo := int(math.Floor((q - 0.05) * float64(len(s))))
	hi := int(math.Ceil((q + 0.05) * float64(len(s))))
	lo = max(0, min(lo, len(s)-1))
	hi = max(lo+1, min(hi, len(s)))
	var t float64
	for _, x := range s[lo:hi] {
		t += x
	}
	return t / float64(hi-lo)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procStatusKB reads one kB-valued field of /proc/self/status.
func procStatusKB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			v, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return v
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS counter at the current RSS, so a later peakRSSMB sees only
// what happened after this call. It returns the RSS it restarted from.
func resetPeakRSS() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+). Where that is
	// refused the peak includes everything before, which only
	// overstates it.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return procStatusKB("VmRSS") / 1024
}

// peakRSSMB is the process's peak resident set since the last
// resetPeakRSS.
func peakRSSMB() float64 { return procStatusKB("VmHWM") / 1024 }

// gcCounter measures allocation and collection work between start and
// stop.
type gcCounter struct {
	before                         runtime.MemStats
	allocs, bytes, cycles, pauseNs uint64
}

func (g *gcCounter) start() { runtime.ReadMemStats(&g.before) }

func (g *gcCounter) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	g.allocs += after.Mallocs - g.before.Mallocs
	g.bytes += after.TotalAlloc - g.before.TotalAlloc
	g.cycles += uint64(after.NumGC - g.before.NumGC)
	g.pauseNs += after.PauseTotalNs - g.before.PauseTotalNs
}

func (g *gcCounter) report(m metrics, ops int) {
	n := float64(ops)
	m["gc.allocs_per_op"] = ratio(float64(g.allocs), n)
	m["gc.alloc_mb_per_op"] = ratio(float64(g.bytes)/(1<<20), n)
	m["gc.cycles_per_op"] = ratio(float64(g.cycles), n)
	m["gc.pause_ms"] = ratio(float64(g.pauseNs)/1e6, n)
}

// latencies gathers per-operation latencies of one kind, in ms.
type latencies struct{ cold, cached, edit []float64 }

func (l *latencies) report(m metrics) {
	m["analyze_p50_ms"] = quantile(l.cold, 0.5)
	m["analyze_p90_ms"] = quantile(l.cold, 0.9)
	m["cached_p50_ms"] = quantile(l.cached, 0.5)
	m["cached_p90_ms"] = quantile(l.cached, 0.9)
	m["edit_p50_ms"] = quantile(l.edit, 0.5)
	m["edit_p90_ms"] = quantile(l.edit, 0.9)
}
