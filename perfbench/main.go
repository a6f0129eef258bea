// Command perfbench is the repository benchmark: it measures the paper
// reproduction's full-scale TS column (paper-ts), long full-scale
// simulations (sim-long) and a served request mix (serve-mix), checks
// every result it measures, and prints one JSON summary line.
//
//	perfbench -workload paper-ts -seed 1 -seconds 30 -trace 0 -server bin/rofs-server
//
// perfbench/run.py builds this binary and rofs-server and runs it; see
// perfbench/README.md for the metrics and what each one is meant to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metric is one reported figure: the median over samples. A figure
// computed over a pool of observations (a latency percentile over every
// request of a run) is one sample that counts pooled observations.
type metric struct {
	Unit    string
	Samples []float64
	pooled  int
}

// result is what a run prints as its last line.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
	detail    map[string]*metric        // name -> samples, for the table
	errors    []string
}

func newResult() *result {
	return &result{detail: make(map[string]*metric)}
}

// add appends samples to the named metric.
func (r *result) add(name, unit string, xs ...float64) {
	m := r.detail[name]
	if m == nil {
		m = &metric{Unit: unit}
		r.detail[name] = m
	}
	m.Samples = append(m.Samples, xs...)
}

// addPooled records a figure computed over n pooled observations.
func (r *result) addPooled(name, unit string, v float64, n int) {
	r.add(name, unit, v)
	r.detail[name].pooled = n
}

// note records a failed operation and keeps its message for stderr.
func (r *result) note(failed int, msgs []string) {
	r.Failed += failed
	for _, m := range msgs {
		if len(r.errors) < 20 {
			r.errors = append(r.errors, m)
		}
	}
}

// write prints the human-readable table — every measured metric with its
// unit, median, sample count and, over the run's repetitions, quartile
// spread, then fail_frac — and, last, the JSON line, whose metrics are
// exactly names.
func (r *result) write(w io.Writer, names []string) error {
	r.Metrics = make(map[string]map[string]any, len(names))
	for _, n := range names {
		m := r.detail[n]
		if m == nil || len(m.Samples) == 0 {
			return fmt.Errorf("metric %s was not measured", n)
		}
		r.Metrics[n] = map[string]any{"value": median(m.Samples), "unit": m.Unit}
	}
	if r.Attempted < 1 {
		r.note(1, []string{"no operation was attempted"})
		r.Attempted = 1
	}
	fmt.Fprintf(w, "%-34s %16s  %-6s %-7s %s\n", "metric", "median", "unit", "samples", "spread")
	for _, n := range append(names, extraNames(r.detail, names)...) {
		m := r.detail[n]
		count, sp := len(m.Samples), ""
		if m.pooled > 0 {
			count = m.pooled
		} else if count >= 2 && median(m.Samples) != 0 {
			sp = fmt.Sprintf("%.4f", spread(m.Samples))
		}
		fmt.Fprintf(w, "%-34s %16.6g  %-6s %-7d %s\n", n, median(m.Samples), m.Unit, count, sp)
	}
	fmt.Fprintf(w, "%-34s %16.6g  %-6s %d/%d\n", "fail_frac",
		float64(r.Failed)/float64(r.Attempted), "1", r.Failed, r.Attempted)
	r.Correct = r.Failed == 0
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// extraNames lists the measured metrics not in names, sorted.
func extraNames(detail map[string]*metric, names []string) []string {
	var out []string
	for n := range detail {
		if !slices.Contains(names, n) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// endToEnd and perLayer name the metrics an untraced and a traced run
// report, in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "wall_s", "cpu_s"}

func main() {
	var (
		workload = flag.String("workload", "", "paper-ts | sim-long | serve-mix")
		seed     = flag.Int64("seed", refSeed, "workload seed")
		seconds  = flag.Float64("seconds", 30, "measurement budget (repetitions stop when the next would overrun it)")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		server   = flag.String("server", "", "rofs-server binary (serve-mix)")
		outDir   = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and server files")
		record   = flag.String("record", "", "write the workload's reference results for -seed 42 into this directory and exit")
		worker   = flag.Bool("worker", false, "internal: run one repetition in this process")
		run      = flag.Bool("run", true, "internal: with -worker, false stops after set-up")
	)
	flag.Parse()
	if *worker {
		exitOn(runWorker(*workload, *seed, *run, os.Stdout))
		return
	}
	if *workload == "serve-mix" {
		// The clients mostly wait on the server: one P keeps the load
		// generator's threads from competing with the server's for the
		// machine's CPUs.
		runtime.GOMAXPROCS(1)
	}
	exitOn(os.MkdirAll(*outDir, 0o755))
	if *record != "" {
		exitOn(recordRefs(*workload, *server, *outDir, *record))
		return
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	var names []string
	var err error
	switch {
	case *trace == 1:
		res, err = traced(*workload, *seed, *server, *outDir)
		names = perLayer
	case *workload == "serve-mix":
		res, err = serveMix(*server, *outDir, *seed, budget)
		names = endToEnd
	default:
		res, err = simMix(*workload, *seed, budget)
		names = endToEnd
	}
	exitOn(err)
	for _, e := range res.errors {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	exitOn(res.write(os.Stdout, names))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// repeat calls rep until the budget would be overrun by one more call
// (estimated from the slowest so far); it always calls rep at least once.
func repeat(budget time.Duration, rep func() error) error {
	start := time.Now()
	var slowest time.Duration
	for {
		t := time.Now()
		if err := rep(); err != nil {
			return err
		}
		slowest = max(slowest, time.Since(t))
		if time.Since(start)+slowest > budget {
			return nil
		}
	}
}

// setupSamples is how many times a run measures its set-up.
const setupSamples = 15

// simMix measures paper-ts or sim-long: set-up samples from set-up-only
// workers, then whole repetitions in fresh workers until the budget is
// spent. Every cell is checked against the references (seed 42) or
// against the first repetition (any other seed).
func simMix(name string, seed int64, budget time.Duration) (*result, error) {
	if _, ok := simWorkloads[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want paper-ts, sim-long or serve-mix)", name)
	}
	res := newResult()
	for i := 0; i < setupSamples; i++ {
		rep, err := spawnWorker(name, seed, false)
		if err != nil {
			return nil, err
		}
		res.add("setup_s", "s", rep.SetupS)
	}
	check, err := newCellCheck(name, seed)
	if err != nil {
		return nil, err
	}
	err = repeat(budget, func() error {
		rep, err := spawnWorker(name, seed, true)
		if err != nil {
			return err
		}
		res.Attempted += len(rep.Cells)
		res.note(len(rep.Errors), rep.Errors)
		res.note(check.cells(rep.Cells))
		res.add("wall_s", "s", rep.WallS)
		res.add("cpu_s", "s", rep.CPUS)
		res.add("events_per_s", "1/s", float64(rep.Events)/rep.WallS)
		res.add("peak_rss_mb", "MB", rep.PeakRSSMB)
		return nil
	})
	return res, err
}

// serveMix measures serve-mix: each repetition is a fresh server, its
// warm-up (the set-up) and the whole request sequence.
func serveMix(bin, outDir string, seed int64, budget time.Duration) (*result, error) {
	if bin == "" {
		return nil, fmt.Errorf("serve-mix needs -server")
	}
	res := newResult()
	seq := mixSequence(seed, serveRequests)
	check, err := newServeCheck()
	if err != nil {
		return nil, err
	}
	var hits, fresh []float64
	err = repeat(budget, func() error {
		rep, err := serveRepetition(bin, outDir, seq, serveOpts{})
		if err != nil {
			return err
		}
		res.Attempted += rep.Attempted
		res.note(rep.Failed, rep.Errors)
		res.note(check.rep(rep))
		res.add("setup_s", "s", rep.SetupS)
		res.add("wall_s", "s", rep.WallS)
		res.add("cpu_s", "s", rep.CPUS)
		res.add("events_per_s", "1/s", float64(rep.Events)/rep.WallS)
		res.add("rps", "1/s", float64(len(rep.HitMS)+len(rep.FreshMS))/rep.WallS)
		res.add("server_rss_mb", "MB", rep.PeakRSSMB)
		hits = append(hits, rep.HitMS...)
		fresh = append(fresh, rep.FreshMS...)
		return nil
	})
	addLatency(res, "hit", hits, []float64{99, 95, 90})
	addLatency(res, "fresh", fresh, []float64{95, 90})
	return res, err
}

// addLatency records the class's p50 over every request of the run and
// its highest percentile (of want) with at least ten samples beyond it.
func addLatency(res *result, class string, ms []float64, want []float64) {
	if len(ms) == 0 {
		return
	}
	res.addPooled(class+"_p50_ms", "ms", percentile(ms, 50), len(ms))
	if p := tailPercentile(len(ms), want, 10); p > 0 {
		res.addPooled(fmt.Sprintf("%s_p%g_ms", class, p), "ms", percentile(ms, p), len(ms))
	}
}
