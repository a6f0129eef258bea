// Command rofs-sweep runs a one-dimensional parameter sweep and emits CSV
// — the tool behind sensitivity studies and the seed-variance numbers in
// EXPERIMENTS.md.
//
// Sweepable parameters:
//
//	seed           re-run the same configuration under different seeds
//	users          scale every file type's user count
//	stripe         stripe-unit size (bytes, powers of the base value)
//	disks          number of drives
//	grow           restricted buddy grow factor (fractional values allowed)
//	sizes          restricted buddy block-size count (2-5)
//	rebuild-pause  fault: rebuild throttle pause between chunks (ms)
//	instances      cluster: fleet size (app test only)
//	routing        cluster: routing policy by name (rr, least, affinity)
//	admission      cluster: admission policy by name (none, token, queue)
//	rate           open-loop Poisson arrival rate (ops/s, app test only)
//
// The fault-scenario flags (-fail-at, -mttf, -transient, -rebuild, ...)
// apply to every sweep point, so a degraded-mode sweep is any ordinary
// sweep with a scenario attached. The cluster flags (-instances, -routing,
// -admission, -rate, ...) likewise fix the fleet shape across the sweep;
// the cluster sweep parameters vary one of those axes per point.
//
// Examples:
//
//	rofs-sweep -param seed -values 1,2,3,4,5 -workload TP -test app
//	rofs-sweep -param stripe -values 8192,24576,98304 -workload SC -test seq
//	rofs-sweep -param grow -values 1,1.5,2 -workload TS -test alloc
//	rofs-sweep -param users -values 8,16,32,64 -workload TP -test app -scale full -jobs 4
//	rofs-sweep -param rebuild-pause -values 0,5,20,100 -workload TS -test app \
//	  -layout raid5 -disks 4 -fail-at 20000 -rebuild
//	rofs-sweep -param instances -values 1,2,4,8 -workload TP -test app -rate 400
//	rofs-sweep -param routing -values rr,least,affinity -workload TP -test app \
//	  -instances 4 -rate 400 -snapshot-ms 250
//	rofs-sweep -param rate -values 100,200,400,800 -workload TP -test app \
//	  -instances 4 -admission queue -queue-cap 64
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/disk"
	"rofs/internal/experiments"
	"rofs/internal/fault"
	"rofs/internal/metrics"
	"rofs/internal/prof"
	"rofs/internal/report"
	"rofs/internal/runner"
	"rofs/internal/service"
	"rofs/internal/stats"
	"rofs/internal/workload"
)

func main() {
	var (
		paramFlag    = flag.String("param", "seed", "seed | users | stripe | disks | grow | sizes | rebuild-pause | instances | routing | admission | rate")
		valuesFlag   = flag.String("values", "1,2,3", "comma-separated values to sweep")
		workloadFlag = flag.String("workload", "TP", "TS | TP | SC")
		testFlag     = flag.String("test", "app", "alloc | app | seq")
		scaleFlag    = flag.String("scale", "bench", "full | bench")
		layoutFlag   = flag.String("layout", "striped", "striped | mirrored | raid5 | parity")
		disksFlag    = flag.Int("disks", 0, "override number of drives (fixed across the sweep)")
		csvFlag      = flag.Bool("csv", true, "emit CSV (false: aligned table)")
		summaryFlag  = flag.Bool("summary", false, "append mean ± 95% CI rows per metric (useful with -param seed)")
		jobsFlag     = flag.Int("jobs", runtime.GOMAXPROCS(0), "maximum simulations running at once")
		timeoutFlag  = flag.Duration("timeout", 0, "overall deadline (e.g. 10m; 0 means none)")

		metricsFlag    = flag.String("metrics", "", "write one metrics bundle per sweep point into this directory")
		metricsFmtFlag = flag.String("metrics-format", "json", "bundle encoding: json | csv | prom")
		metricsIntFlag = flag.Float64("metrics-interval", metrics.DefaultIntervalMS, "timeline sampling interval (simulated ms)")

		cpuProfFlag  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfFlag  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		execTraceFlg = flag.String("exectrace", "", "write a runtime execution trace to this file")

		// fault-scenario knobs, applied to every sweep point
		faultFlags = fault.AddFlags(flag.CommandLine)

		// cluster + open-loop knobs, fixed across the sweep unless a
		// cluster parameter varies one of them per point
		clusterFlags = cluster.AddFlags(flag.CommandLine)
	)
	flag.Parse()

	stopProf, err := prof.Start(prof.Flags{CPUProfile: *cpuProfFlag, MemProfile: *memProfFlag, Trace: *execTraceFlg})
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "rofs-sweep: %v\n", err)
		}
	}()

	values, err := parseValues(*valuesFlag)
	if err != nil {
		fatal("%v", err)
	}

	// The flags a sweep shares with a single run go through the one run
	// validator first, so a bad value (a negative -disks, say) is refused
	// with the same message rofsim and the server give.
	base := service.RunRequest{Policy: "rbuddy", Workload: *workloadFlag, Test: *testFlag,
		Scale: *scaleFlag, Layout: *layoutFlag, Disks: *disksFlag}
	if _, err := base.Spec(); err != nil {
		fatal("%v", err)
	}
	if err := checkPoints(base, *paramFlag, values); err != nil {
		fatal("%v", err)
	}

	// The scale is the same for every point; select it once.
	sc, err := experiments.ScaleByName(*scaleFlag)
	if err != nil {
		fatal("%v", err)
	}
	if *disksFlag > 0 {
		sc.Disk.NDisks = *disksFlag
	}
	if sc.Disk.Layout, err = disk.ParseLayout(*layoutFlag); err != nil {
		fatal("%v", err)
	}

	kind, err := parseTest(*testFlag)
	if err != nil {
		fatal("%v", err)
	}

	faults := faultFlags.Scenario()
	if err := faults.Validate(); err != nil {
		fatal("%v", err)
	}

	arrivals, err := clusterFlags.Arrivals()
	if err != nil {
		fatal("%v", err)
	}
	specs, err := buildSpecs(sc, *paramFlag, *workloadFlag, kind, values, faults,
		clusterFlags.Config(), arrivals)
	if err != nil {
		fatal("%v", err)
	}

	// Ctrl-C / SIGTERM cancel the context: in-flight simulations stop at
	// their next operation, completed rows still render, and the process
	// exits nonzero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeoutFlag > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeoutFlag)
		defer cancel()
	}
	metricsFmt, err := metrics.ParseFormat(*metricsFmtFlag)
	if err != nil {
		fatal("%v", err)
	}
	pool := runner.New(*jobsFlag)
	if *metricsFlag != "" {
		pool.MetricsIntervalMS = *metricsIntFlag
	}
	pool.OnResult = func(_ int, r runner.Result) {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "  run %-42s FAILED: %v\n", r.Spec.Label(), r.Err)
			return
		}
		st := r.Outcome.Stats
		note := ""
		if r.Cached {
			note = "  (cached)"
		}
		fmt.Fprintf(os.Stderr, "  run %-42s %6.2fs wall  %12.0f ms simulated  %9d events  %8.0f events/sec%s\n",
			r.Spec.Label(), r.Wall.Seconds(), st.SimMS, st.Events,
			float64(st.Events)/r.Wall.Seconds(), note)
	}
	outs, runErr := pool.Run(ctx, specs)
	interrupted := ctx.Err() != nil
	if runErr != nil && !interrupted {
		fatal("%v", runErr)
	}
	if *metricsFlag != "" {
		for _, r := range outs {
			if r.Err != nil {
				continue
			}
			if _, err := runner.SaveMetrics(*metricsFlag, metricsFmt, r.Spec.Label(), r.Outcome.Metrics); err != nil {
				fatal("%v", err)
			}
		}
		fmt.Fprintf(os.Stderr, "rofs-sweep: wrote per-point metrics bundles to %s/\n", *metricsFlag)
	}

	// Rows come back in submission order, so the CSV is ordered by value
	// regardless of which simulation finished first.
	t := report.NewTable("",
		*paramFlag, "policy", "workload", "test", "metric1", "metric2", "metric3", "metric4")
	var m1, m2, m3, m4 stats.Welford
	completed := 0
	for i, r := range outs {
		if r.Err != nil {
			continue
		}
		completed++
		v := values[i]
		sp := r.Spec
		switch kind {
		case core.Allocation:
			res := r.Outcome.Frag
			t.AddRow(v, sp.Policy.Name(), sp.Workload.Name, "alloc",
				f(res.InternalPct), f(res.ExternalPct), fmt.Sprint(res.Ops), "")
			m1.Add(res.InternalPct)
			m2.Add(res.ExternalPct)
			m3.Add(float64(res.Ops))
		default:
			res := r.Outcome.Perf
			// metric4 is the admission reject rate — meaningful only for
			// fleet rows; plain rows leave it blank.
			rej := ""
			if res.Cluster != nil {
				rej = f(res.Cluster.RejectPct)
				m4.Add(res.Cluster.RejectPct)
			}
			t.AddRow(v, sp.Policy.Name(), sp.Workload.Name, *testFlag,
				f(res.Percent), f(res.MeanLatencyMS), f(res.P95LatencyMS), rej)
			m1.Add(res.Percent)
			m2.Add(res.MeanLatencyMS)
			m3.Add(res.P95LatencyMS)
		}
	}
	if *summaryFlag {
		ci := func(w *stats.Welford) string {
			if w.N() == 0 {
				return ""
			}
			return fmt.Sprintf("%.2f±%.2f", w.Mean(), w.CI95())
		}
		t.AddRow("mean±CI95", "", "", "", ci(&m1), ci(&m2), ci(&m3), ci(&m4))
	}
	if *csvFlag {
		if err := t.RenderCSV(os.Stdout); err != nil {
			fatal("%v", err)
		}
	} else {
		t.Render(os.Stdout)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "rofs-sweep: interrupted (%v); rendered %d of %d completed points\n",
			ctx.Err(), completed, len(specs))
		os.Exit(1)
	}
}

// parseValues splits a comma-separated list into tokens. Values stay
// strings so name-valued parameters (routing, admission) sweep like
// numeric ones; numeric parameters convert and validate per parameter in
// buildSpecs.
func parseValues(list string) ([]string, error) {
	var values []string
	for _, tok := range strings.Split(list, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			values = append(values, tok)
		}
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("no values to sweep")
	}
	return values, nil
}

// parseTest maps the -test flag to a runner test kind. Aging runs have
// no sweep metrics, so the sweep refuses them.
func parseTest(name string) (core.TestKind, error) {
	kind, err := core.ParseTestKind(name)
	if err == nil && kind == core.Aging {
		err = fmt.Errorf("test %q cannot be swept (want alloc, app, or seq)", name)
	}
	return kind, err
}

// asFloat converts a numeric sweep token.
func asFloat(param, tok string) (float64, error) {
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q needs numeric values, got %q", param, tok)
	}
	return v, nil
}

// asInt converts an integer-valued parameter, rejecting fractions.
func asInt(param, tok string) (int64, error) {
	v, err := asFloat(param, tok)
	if err != nil {
		return 0, err
	}
	if v != math.Trunc(v) {
		return 0, fmt.Errorf("parameter %q needs integer values, got %g", param, v)
	}
	return int64(v), nil
}

// checkPoints validates every sweep value of a parameter a run request
// also carries (seed, disks, stripe, sizes, grow) before any run starts:
// it sets the value on base and calls RunRequest.Spec, so a point fails
// with the message rofsim and the server give for the same value. A zero
// is refused outright: the request would read it as the default, but the
// sweep would run it as typed.
func checkPoints(base service.RunRequest, param string, values []string) error {
	for _, tok := range values {
		req := base
		var v float64
		switch param {
		case "seed", "disks", "stripe", "sizes":
			n, err := asInt(param, tok)
			if err != nil {
				return err
			}
			v = float64(n)
			switch param {
			case "seed":
				req.Seed = n
			case "disks":
				req.Disks = int(n)
			case "stripe":
				req.StripeBytes = n
			case "sizes":
				req.Sizes = int(n)
			}
		case "grow":
			g, err := asFloat(param, tok)
			if err != nil {
				return err
			}
			v, req.Grow = g, g
		default:
			continue
		}
		if v == 0 {
			return fmt.Errorf("parameter %q value 0 is not accepted: a run request reads zero as the default", param)
		}
		if _, err := req.Spec(); err != nil {
			return err
		}
	}
	return nil
}

// buildSpecs declares one Spec per sweep value for the given parameter.
// The cluster config and arrival process from the flags are the base every
// point starts from; the cluster parameters vary one axis per point.
func buildSpecs(sc experiments.Scale, param, wlName string, kind core.TestKind, values []string,
	faults fault.Scenario, baseCC cluster.Config, baseArr *workload.Arrivals) ([]runner.Spec, error) {
	specs := make([]runner.Spec, 0, len(values))
	for _, tok := range values {
		pt := sc
		fl := faults
		cc := baseCC
		var arr *workload.Arrivals
		if baseArr != nil {
			a := *baseArr // each point owns its arrival block
			arr = &a
		}
		policy := core.RBuddy(5, 1, true)
		wl, err := pt.Workload(wlName)
		if err != nil {
			return nil, err
		}
		switch param {
		case "seed":
			n, err := asInt(param, tok)
			if err != nil {
				return nil, err
			}
			pt.Seed = n
		case "users":
			n, err := asInt(param, tok)
			if err != nil {
				return nil, err
			}
			for i := range wl.Types {
				wl.Types[i].Users = int(n)
			}
		case "stripe":
			n, err := asInt(param, tok)
			if err != nil {
				return nil, err
			}
			pt.Disk.StripeUnitBytes = n
		case "disks":
			n, err := asInt(param, tok)
			if err != nil {
				return nil, err
			}
			pt.Disk.NDisks = int(n)
		case "grow":
			v, err := asFloat(param, tok)
			if err != nil {
				return nil, err
			}
			policy = core.RBuddy(5, v, true)
		case "sizes":
			n, err := asInt(param, tok)
			if err != nil {
				return nil, err
			}
			policy = core.RBuddy(int(n), 1, true)
		case "rebuild-pause":
			v, err := asFloat(param, tok)
			if err != nil {
				return nil, err
			}
			if !fl.Enabled() || !fl.Rebuild {
				return nil, fmt.Errorf("parameter %q needs a rebuild scenario (-fail-at or -mttf, plus -rebuild)", param)
			}
			if v < 0 {
				return nil, fmt.Errorf("parameter %q needs values >= 0, got %g", param, v)
			}
			fl.RebuildPauseMS = v
		case "instances":
			n, err := asInt(param, tok)
			if err != nil {
				return nil, err
			}
			cc.Instances = int(n)
		case "routing":
			cc.Routing = tok
			if cc.Instances == 0 {
				return nil, fmt.Errorf("parameter %q needs a fleet (-instances N)", param)
			}
		case "admission":
			if tok == "none" {
				cc.Admission = ""
			} else {
				cc.Admission = tok
			}
			if cc.Instances == 0 {
				return nil, fmt.Errorf("parameter %q needs a fleet (-instances N)", param)
			}
		case "rate":
			v, err := asFloat(param, tok)
			if err != nil {
				return nil, err
			}
			if v <= 0 {
				return nil, fmt.Errorf("parameter %q needs values > 0, got %g", param, v)
			}
			a := workload.Arrivals{RatePerSec: v}
			if baseArr != nil {
				a.Clients = baseArr.Clients
			}
			arr = &a
		default:
			return nil, fmt.Errorf("unknown parameter %q", param)
		}
		if err := cc.Validate(); err != nil {
			return nil, err
		}
		if cc.Enabled() && kind != core.Application {
			return nil, fmt.Errorf("cluster sweeps run the app test only, not %s", kind)
		}
		if arr != nil {
			if kind != core.Application {
				return nil, fmt.Errorf("open-loop arrivals run the app test only, not %s", kind)
			}
			wl.Arrivals = arr
			if err := wl.Validate(); err != nil {
				return nil, err
			}
		}
		sp := pt.Spec(policy, wl, kind)
		sp.Name = fmt.Sprintf("%s=%s %s/%s/%s", param, tok, policy.Name(), wl.Name, kind)
		sp.Faults = fl
		sp.Cluster = cc
		specs = append(specs, sp)
	}
	return specs, nil
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rofs-sweep: "+format+"\n", args...)
	os.Exit(1)
}
