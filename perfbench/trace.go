package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rofs/internal/core"
	"rofs/internal/experiments"
	"rofs/internal/runner"
	"rofs/internal/sim"
)

// A traced run (-trace 1) first repeats one untraced repetition, then
// the same work again with every call into a layer's public functions
// wrapped in a span, then the alloc/fs layer probe. Its metrics are the
// per-layer figures; layers a workload does not exercise report 0. The
// spans go to <out>/spans-<workload>-seed<n>.jsonl.

// perLayer is every per-layer metric with its unit, in BENCHMARK.json
// order.
var perLayer, layerUnits = perLayerMetrics()

func perLayerMetrics() ([]string, map[string]string) {
	var names []string
	units := map[string]string{}
	add := func(unit string, ns ...string) {
		for _, n := range ns {
			names = append(names, n)
			units[n] = unit
		}
	}
	add("s", "core.prime_s", "core.measure_s", "core.result_s", "core.alloc_run_s", "core.seq_run_s")
	add("count", "core.ops", "sim.events")
	add("ns", "sim.measure_ns_per_event")
	add("count", "sim.max_pending")
	add("MB", "disk.mb")
	add("count", "runner.simulated", "runner.cached")
	ps, err := paperTSPolicies(experiments.FullScale())
	if err != nil {
		panic(err)
	}
	for _, p := range ps {
		n := p.Name()
		add("us", "alloc."+n+".allocate_us", "alloc."+n+".truncate_us", "alloc."+n+".delete_us")
		add("count", "alloc."+n+".coalesces", "alloc."+n+".free_fragments")
		add("ms", "fs."+n+".check_ms")
	}
	add("ms", "service.hit_server_ms", "service.hit_outside_ms", "service.encode_ms", "service.run_ms")
	add("KB", "service.response_kb", "service.retained_kb_per_run")
	add("MB", "go.alloc_mb")
	add("count", "go.gc_cycles")
	add("1", "go.gc_cpu_frac")
	add("MB", "go.peak_rss_mb")
	add("s", "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")
	return names, units
}

// layer records a per-layer figure under its registered unit.
func (r *result) layer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unregistered per-layer metric " + name)
	}
	r.add(name, unit, v)
}

func traced(name string, seed int64, serverBin, outDir string) (*result, error) {
	res := newResult()
	spans := newSpanRecorder()
	root := spans.start("run "+name, -1, 0)
	var err error
	switch name {
	case "paper-ts", "sim-long":
		err = tracedSim(res, spans, root, name, seed)
	case "serve-mix":
		err = tracedServe(res, spans, root, serverBin, outDir, seed)
	default:
		err = fmt.Errorf("unknown workload %q (want paper-ts, sim-long or serve-mix)", name)
	}
	if err != nil {
		return nil, err
	}
	id := spans.start("alloc/fs probe", -1, root)
	probes, err := probe(seed, spans, id)
	spans.end(id)
	if err != nil {
		return nil, err
	}
	for _, p := range probes {
		res.layer("alloc."+p.Policy+".allocate_us", p.AllocateUS)
		res.layer("alloc."+p.Policy+".truncate_us", p.TruncateUS)
		res.layer("alloc."+p.Policy+".delete_us", p.DeleteUS)
		res.layer("alloc."+p.Policy+".coalesces", float64(p.Coalesces))
		res.layer("alloc."+p.Policy+".free_fragments", float64(p.FreeFragments))
		res.layer("fs."+p.Policy+".check_ms", p.CheckMS)
	}
	spans.end(root)
	for _, n := range perLayer {
		if res.detail[n] == nil {
			res.layer(n, 0)
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := spans.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s (%d)\n%-44s %6s %12s %12s\n", path, len(spans.spans), "span", "count", "total_s", "self_s")
	for _, t := range spans.totals() {
		fmt.Printf("%-44s %6d %12.4f %12.4f\n", t.Name, t.Count, t.TotalS, t.SelfS)
	}
	return res, nil
}

// goStats is a snapshot of the Go runtime's cumulative counters.
type goStats struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// peakRSSMB is this process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// tracedSim is the traced paper-ts / sim-long run. The untraced pass is
// a worker repetition run in this process; its Go runtime deltas are the
// go.* figures. The traced pass runs every cell again on as many
// goroutines as the pool had jobs: alloc and seq cells as whole core.Run
// calls, app cells split into their public lifecycle phases on an engine
// the benchmark owns. Every traced cell must deep-equal the pool's.
func tracedSim(res *result, spans *spanRecorder, root int, name string, seed int64) error {
	wl, ok := simWorkloads[name]
	if !ok {
		return fmt.Errorf("no workload %q", name)
	}
	specs, err := wl.specs(seed)
	if err != nil {
		return err
	}
	check, err := newCellCheck(name, seed)
	if err != nil {
		return err
	}

	id := spans.start("untraced pass", -1, root)
	g0 := readGoStats()
	rep := runPool(wl, specs)
	g1 := readGoStats()
	spans.end(id)
	res.layer("go.alloc_mb", (g1.allocBytes-g0.allocBytes)/(1<<20))
	res.layer("go.gc_cycles", g1.gcCycles-g0.gcCycles)
	res.layer("go.gc_cpu_frac", (g1.gcCPU-g0.gcCPU)/(g1.totalCPU-g0.totalCPU))
	res.layer("go.peak_rss_mb", peakRSSMB())
	res.layer("runner.simulated", float64(rep.Simulated))
	res.layer("runner.cached", float64(rep.Cached))
	res.Attempted += len(rep.Cells)
	res.note(len(rep.Errors), rep.Errors)
	res.note(check.cells(rep.Cells))

	id = spans.start("traced pass", -1, root)
	cells := make([]tracedCell, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < wl.jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cells[i] = traceCell(spans, id, i, specs[i])
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	traced := spans.end(id)

	var sum tracedCell
	maxPending := 0
	for i, c := range cells {
		res.Attempted++
		switch {
		case c.err != nil:
			res.note(1, []string{fmt.Sprintf("%s: traced: %v", specs[i].Label(), c.err)})
			continue
		case i >= len(rep.Cells) || !sameCell(c.cell, rep.Cells[i]):
			res.note(1, []string{fmt.Sprintf("%s: traced phases differ from core.Run through the pool", specs[i].Label())})
		}
		sum.prime += c.prime
		sum.measure += c.measure
		sum.result += c.result
		sum.run[core.Allocation] += c.run[core.Allocation]
		sum.run[core.Sequential] += c.run[core.Sequential]
		sum.events += c.events
		maxPending = max(maxPending, c.maxPending)
		if p := c.cell.Perf; p != nil && specs[i].Kind == core.Application {
			sum.ops += p.Ops
			sum.bytes += p.Bytes
		}
	}
	res.layer("core.prime_s", sum.prime)
	res.layer("core.measure_s", sum.measure)
	res.layer("core.result_s", sum.result)
	res.layer("core.alloc_run_s", sum.run[core.Allocation])
	res.layer("core.seq_run_s", sum.run[core.Sequential])
	res.layer("core.ops", float64(sum.ops))
	res.layer("sim.events", float64(sum.events))
	if sum.events > 0 {
		res.layer("sim.measure_ns_per_event", sum.measure*1e9/float64(sum.events))
	}
	res.layer("sim.max_pending", float64(maxPending))
	res.layer("disk.mb", float64(sum.bytes)/(1<<20))
	res.layer("trace.untraced_wall_s", rep.WallS)
	res.layer("trace.traced_wall_s", traced)
	res.layer("trace.overhead_s", traced-rep.WallS)
	return nil
}

// tracedCell is one cell of the traced pass: its result and the seconds
// spent in each phase.
type tracedCell struct {
	cell                   cellResult
	err                    error
	prime, measure, result float64
	run                    [core.Aging + 1]float64 // whole core.Run calls by kind
	events                 uint64                  // fired by the measured loop
	maxPending             int
	ops, bytes             int64
}

// traceCell runs one cell with spans around each call. App cells go
// through the public lifecycle — NewInstance and PrimeThroughput (prime),
// StartMeasurement, ScheduleUsers and Engine.Run (measure), Result — the
// same sequence core.Run performs for the application test.
func traceCell(spans *spanRecorder, parent, i int, sp runner.Spec) (c tracedCell) {
	cid := spans.start(sp.Label(), i, parent)
	defer spans.end(cid)
	cfg := sp.Config()
	if sp.Kind != core.Application {
		id := spans.start("core.Run", i, cid)
		out, err := core.Run(cfg, sp.Kind)
		c.run[sp.Kind] = spans.end(id)
		c.cell, c.err = newCellResult(sp, out), err
		return c
	}
	eng := &sim.Engine{}
	id := spans.start("core.NewInstance+PrimeThroughput", i, cid)
	inst, err := core.NewInstance(cfg, core.Application, eng, 0)
	if err == nil {
		err = inst.PrimeThroughput()
	}
	c.prime = spans.end(id)
	if err != nil {
		c.err = err
		return c
	}
	fired := eng.Fired()
	id = spans.start("StartMeasurement+ScheduleUsers+Engine.Run", i, cid)
	inst.StartMeasurement()
	inst.ScheduleUsers()
	end := eng.Run(eng.Now() + inst.MaxSimMS())
	c.measure = spans.end(id)
	c.events, c.maxPending = eng.Fired()-fired, eng.MaxPending()
	id = spans.start("Instance.Result", i, cid)
	perf, err := inst.Result(end)
	c.result = spans.end(id)
	out := core.Outcome{Kind: core.Application, Perf: perf,
		Stats: core.RunStats{SimMS: eng.Now(), Events: eng.Fired()}}
	c.cell, c.err = newCellResult(sp, out), err
	return c
}

// sameCell reports whether two cells hold deep-equal results and fired
// the same number of events.
func sameCell(a, b cellResult) bool {
	return a.Events == b.Events && reflect.DeepEqual(a.Frag, b.Frag) && reflect.DeepEqual(a.Perf, b.Perf)
}

// tracedServe is the traced serve-mix run: one untraced repetition, then
// a traced one (a span per request, the server under GODEBUG=gctrace=1)
// followed by two attribution segments on the same server — sequential
// hits, then sequential fresh runs — bracketed by /metrics scrapes.
func tracedServe(res *result, spans *spanRecorder, root int, bin, outDir string, seed int64) error {
	if bin == "" {
		return fmt.Errorf("serve-mix needs -server")
	}
	seq := mixSequence(seed, serveRequests)
	check, err := newServeCheck()
	if err != nil {
		return err
	}
	id := spans.start("untraced repetition", -1, root)
	rep0, err := serveRepetition(bin, outDir, seq, serveOpts{})
	spans.end(id)
	if err != nil {
		return err
	}
	res.Attempted += rep0.Attempted
	res.note(rep0.Failed, rep0.Errors)
	res.note(check.rep(rep0))

	id = spans.start("traced repetition", -1, root)
	var att attribution
	rep1, err := serveRepetition(bin, outDir, seq, serveOpts{
		env: []string{"GODEBUG=gctrace=1"},
		onRequest: func(i int, start time.Time, ms float64) {
			spans.add("POST /v1/runs?wait=1", i, id, start, start.Add(time.Duration(ms*float64(time.Millisecond))))
		},
		after: func(srv *server, rep *serveRep) error {
			return att.measure(srv, rep, seed, spans, id)
		},
	})
	spans.end(id)
	if err != nil {
		return err
	}
	res.Attempted += rep1.Attempted + att.attempted
	res.note(rep1.Failed+att.failed, append(rep1.Errors, att.errors...))
	res.note(check.rep(rep1))

	d := func(name string) float64 { return rep1.After[name] - rep1.Before[name] }
	cached := d("rofs_pool_runs_cached")
	res.layer("runner.simulated", d("rofs_pool_runs_submitted")-cached)
	res.layer("runner.cached", cached)
	res.layer("service.hit_server_ms", att.hitServerMS)
	res.layer("service.hit_outside_ms", att.hitClientMS-att.hitServerMS)
	res.layer("service.encode_ms", att.encodeMS)
	res.layer("service.response_kb", att.responseKB)
	res.layer("service.run_ms", att.runMS)
	if admitted := d("rofs_service_runs_admitted"); admitted > 0 {
		res.layer("service.retained_kb_per_run", rep1.RetainedMB*1024/admitted)
	}
	gc := parseGCTrace(rep1.ServerStderr)
	res.layer("go.alloc_mb", gc.allocMB)
	res.layer("go.gc_cycles", float64(gc.cycles))
	res.layer("go.gc_cpu_frac", gc.cpuFrac)
	res.layer("go.peak_rss_mb", rep1.PeakRSSMB)
	res.layer("trace.untraced_wall_s", rep0.WallS)
	res.layer("trace.traced_wall_s", rep1.WallS)
	res.layer("trace.overhead_s", rep1.WallS-rep0.WallS)
	return nil
}

// Attribution segment sizes: sequential requests, so no request queues
// behind another and the server's phase means describe one request.
const (
	attrHits  = 160
	attrFresh = 16
)

// attribution holds the server-side split of a hit and a fresh run.
type attribution struct {
	hitServerMS, hitClientMS, encodeMS, responseKB, runMS float64
	attempted, failed                                     int
	errors                                                []string
}

// phases are the server's per-request phase histograms, whose means sum
// to the server's share of a request's latency.
var phases = []string{"admit", "queue", "run", "encode"}

func phaseMean(before, after map[string]float64, ph string) float64 {
	k := "rofs_service_phase_ms_" + ph
	n := after[k+"_count"] - before[k+"_count"]
	if n <= 0 {
		return 0
	}
	return (after[k+"_sum"] - before[k+"_sum"]) / n
}

func (a *attribution) measure(srv *server, rep *serveRep, seed int64, spans *spanRecorder, parent int) error {
	m0, err := srv.scrape()
	if err != nil {
		return err
	}
	var clientMS []float64
	var respBytes int
	for j := 0; j < attrHits; j++ {
		k := j % len(repeatSpecs)
		a.attempted++
		start := time.Now()
		code, body, ms, err := srv.submit(mustJSON(repeatSpecs[k]))
		spans.add("hit segment", j, parent, start, time.Now())
		p, perr := payload(body)
		switch {
		case err != nil || code != http.StatusOK || perr != nil:
			a.fail(fmt.Sprintf("hit segment %d: status %d: %v %v", j, code, err, perr))
		case k >= len(rep.warm) || string(p) != string(rep.warm[k]):
			a.fail(fmt.Sprintf("hit segment %d: differs from the first response", j))
		}
		clientMS = append(clientMS, ms)
		respBytes += len(body)
	}
	m1, err := srv.scrape()
	if err != nil {
		return err
	}
	for j := 0; j < attrFresh; j++ {
		req := repeatSpecs[j%len(repeatSpecs)]
		req.Seed = freshSeed(seed, 5_000+j) // beyond any sequence's fresh runs
		a.attempted++
		start := time.Now()
		code, body, _, err := srv.submit(mustJSON(req))
		spans.add("fresh segment", j, parent, start, time.Now())
		if _, rerr := runResult(body); err != nil || code != http.StatusOK || rerr != nil {
			a.fail(fmt.Sprintf("fresh segment %d: status %d: %v %v", j, code, err, rerr))
		}
	}
	m2, err := srv.scrape()
	if err != nil {
		return err
	}
	for _, ph := range phases {
		a.hitServerMS += phaseMean(m0, m1, ph)
	}
	a.hitClientMS = mean(clientMS)
	a.encodeMS = phaseMean(m0, m1, "encode")
	a.responseKB = float64(respBytes) / attrHits / 1024
	a.runMS = phaseMean(m1, m2, "run")
	return nil
}

func (a *attribution) fail(msg string) {
	a.failed++
	a.errors = append(a.errors, msg)
}

// gcSummary is what a GODEBUG=gctrace=1 log says about a process.
type gcSummary struct {
	cycles  int
	cpuFrac float64 // GC's share of CPU since start, at the last cycle
	allocMB float64 // heap growth between cycles: allocation up to the last one
}

// parseGCTrace reads lines such as
//
//	gc 7 @1.234s 3%: 0.01+1.2+0.02 ms clock, ..., 40->42->20 MB, 41 MB goal, ...
//
// Allocation is estimated as the sum over cycles of the heap size at
// the cycle's start minus the live heap the previous cycle left.
func parseGCTrace(log string) gcSummary {
	var s gcSummary
	prevLive := 0.0
	for _, line := range strings.Split(log, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "gc" || !strings.HasSuffix(f[3], "%:") {
			continue
		}
		s.cycles++
		if pct, err := strconv.ParseFloat(strings.TrimSuffix(f[3], "%:"), 64); err == nil {
			s.cpuFrac = pct / 100
		}
		for i, tok := range f[:len(f)-1] {
			parts := strings.Split(tok, "->")
			if len(parts) != 3 || !strings.HasPrefix(f[i+1], "MB") {
				continue
			}
			start, err1 := strconv.ParseFloat(parts[0], 64)
			live, err2 := strconv.ParseFloat(parts[2], 64)
			if err1 == nil && err2 == nil {
				s.allocMB += start - prevLive
				prevLive = live
			}
			break
		}
	}
	return s
}
