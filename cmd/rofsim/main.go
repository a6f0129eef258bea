// Command rofsim runs a single simulation: one allocation policy, one
// workload, one test — the building block the paper's evaluation grids
// are made of.
//
// Examples:
//
//	rofsim -policy rbuddy -sizes 5 -grow 1 -clustered -workload TS -test alloc
//	rofsim -policy extent -fit best -ranges 3 -workload TP -test seq -scale full
//	rofsim -policy fixed -block 16K -workload SC -test app
//	rofsim -policy buddy -workload SC -test app -layout raid5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/experiments"
	"rofs/internal/metrics"
	"rofs/internal/prof"
	"rofs/internal/service"
	"rofs/internal/units"
	"rofs/internal/workload"
)

func main() {
	var (
		// The run vocabulary rofsim shares with rofs-client and the
		// server's request body: policy, workload, test, scale, disk,
		// fault and cluster knobs.
		runFlags = service.AddRunFlags(flag.CommandLine)

		// custom workloads
		wlFileFlag = flag.String("workload-file", "", "JSON workload definition (overrides -workload)")
		dumpFlag   = flag.String("dump-workload", "", "print a built-in workload as JSON and exit (TS|TP|SC)")

		traceFlag = flag.String("trace", "", "write a tab-separated event trace to this file")

		// metrics bundle (see EXPERIMENTS.md "Metrics and spans")
		metricsFlag    = flag.String("metrics", "", "write the run's metrics bundle to this file (- for stdout)")
		metricsFmtFlag = flag.String("metrics-format", "json", "bundle encoding: json | csv | prom")
		metricsIntFlag = flag.Float64("metrics-interval", metrics.DefaultIntervalMS, "timeline sampling interval (simulated ms)")

		// Profiling: -trace is taken by the simulator's event trace; every
		// command spells the runtime execution trace -exectrace.
		cpuProfFlag  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfFlag  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		execTraceFlg = flag.String("exectrace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	stopProf, perr := prof.Start(prof.Flags{CPUProfile: *cpuProfFlag, MemProfile: *memProfFlag, Trace: *execTraceFlg})
	if perr != nil {
		fatal("%v", perr)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "rofsim: %v\n", err)
		}
	}()

	if *dumpFlag != "" {
		wl, err := workload.ByName(*dumpFlag)
		if err != nil {
			fatal("%v", err)
		}
		if err := workload.ToJSON(os.Stdout, wl); err != nil {
			fatal("%v", err)
		}
		return
	}

	req, err := request(runFlags, *wlFileFlag)
	if err != nil {
		fatal("%v", err)
	}
	sp, err := req.Spec()
	if err != nil {
		fatal("%v", err)
	}
	cfg := sp.Config()
	if *traceFlag != "" {
		tf, err := os.Create(*traceFlag)
		if err != nil {
			fatal("%v", err)
		}
		defer tf.Close()
		cfg.TraceWriter = tf
	}

	metricsFmt, err := metrics.ParseFormat(*metricsFmtFlag)
	if err != nil {
		fatal("%v", err)
	}
	if *metricsFlag != "" {
		cfg.Metrics = metrics.New(*metricsIntFlag)
	}
	// With the bundle going to stdout, the human report moves to stderr so
	// the two streams stay separable.
	rpt := io.Writer(os.Stdout)
	if *metricsFlag == "-" {
		rpt = os.Stderr
	}
	sc, _ := experiments.ScaleByName(req.Scale) // Spec accepted the name
	fmt.Fprintf(rpt, "rofsim: policy=%s workload=%s test=%s scale=%s layout=%v seed=%d\n",
		sp.Policy.Name(), sp.Workload.Name, sp.Kind, sc.Name, sp.Disk.Layout, sp.Seed)

	// The same call runner.Pool makes: a Spec that is not a fleet falls
	// through to core.Run.
	out, err := cluster.Run(cfg, sp.Cluster, sp.Kind)
	if err != nil {
		fatal("%v", err)
	}
	switch sp.Kind {
	case core.Allocation:
		res := out.Frag
		fmt.Fprintf(rpt, "  disk filled:            %v (after %d operations)\n", res.Filled, res.Ops)
		fmt.Fprintf(rpt, "  internal fragmentation: %.2f%% of allocated space\n", res.InternalPct)
		fmt.Fprintf(rpt, "  external fragmentation: %.2f%% of total space\n", res.ExternalPct)
		if res.ExtentsPerFile > 0 {
			fmt.Fprintf(rpt, "  extents per file:       %.1f\n", res.ExtentsPerFile)
		}
	case core.Application, core.Sequential:
		res := out.Perf
		fmt.Fprintf(rpt, "  throughput:   %.1f%% of maximum (%s)\n", res.Percent, stability(res))
		fmt.Fprintf(rpt, "  simulated:    %.1f s, %d operations, %s moved\n",
			res.SimMS/1000, res.Ops, units.Format(res.Bytes))
		fmt.Fprintf(rpt, "  op latency:   %.1f ms mean, p95 <= %.0f ms\n",
			res.MeanLatencyMS, res.P95LatencyMS)
		if res.AllocFails > 0 {
			fmt.Fprintf(rpt, "  disk-full conditions logged: %d\n", res.AllocFails)
		}
		if fr := res.Faults; fr != nil {
			fmt.Fprintf(rpt, "  faults:       %d drive failure(s), %d transient error(s), %d retries, %d permanent\n",
				fr.DriveFailures, fr.TransientErrors, fr.Retries, fr.PermanentErrors)
			if fr.DegradedMS > 0 {
				fmt.Fprintf(rpt, "  degraded:     %.1f s of simulated time\n", fr.DegradedMS/1000)
			}
			switch {
			case fr.Rebuilds > 0:
				fmt.Fprintf(rpt, "  rebuild completed: %.1f s after failure (%s reconstructed)\n",
					fr.RebuildMS/1000, units.Format(fr.RebuildBytes))
			case fr.DegradedAtEnd:
				fmt.Fprintf(rpt, "  rebuild incomplete: still degraded at end of run\n")
			}
			if fr.RetriedOps > 0 {
				fmt.Fprintf(rpt, "  retry delay:  p50 <= %.0f ms, p95 <= %.0f ms over %d retried requests\n",
					fr.RetryP50MS, fr.RetryP95MS, fr.RetriedOps)
			}
		}
		if cr := res.Cluster; cr != nil {
			admit := cr.Admission
			if admit == "" {
				admit = "none"
			}
			fmt.Fprintf(rpt, "  cluster:      %d instances, routing=%s admission=%s\n",
				cr.Instances, cr.Routing, admit)
			if cr.Arrivals > 0 {
				fmt.Fprintf(rpt, "  admission:    %d arrivals, %d admitted, %d rejected (%.1f%%)\n",
					cr.Arrivals, cr.Admitted, cr.Rejected, cr.RejectPct)
			}
			fmt.Fprintf(rpt, "  balance:      utilization skew %.3f (1.0 = perfectly even)\n", cr.UtilSkew)
			for _, ip := range cr.PerInstance {
				faulted := ""
				if ip.Faulted {
					faulted = " [faulted]"
				}
				fmt.Fprintf(rpt, "    inst %d: %6d ops, %5.1f%% throughput, %.1f ms mean latency%s\n",
					ip.Index, ip.Ops, ip.Percent, ip.MeanLatencyMS, faulted)
			}
		}
		if co := res.Compaction; co != nil {
			fmt.Fprintf(rpt, "  compaction:   %s, %d segments flushed (%s), %d merges (%s read, %s written)\n",
				co.Policy, co.Segments, units.Format(co.FlushBytes), co.Merges,
				units.Format(co.MergeReadBytes), units.Format(co.MergeWriteBytes))
			fmt.Fprintf(rpt, "  write amp:    %.2fx, live segments per tier %v\n", co.WriteAmp, co.Live)
		}
	case core.Aging:
		res := out.Aging
		f := res.Final()
		fmt.Fprintf(rpt, "  churn:        %.1f h simulated, %d operations, %d disk-full conditions\n",
			res.SimMS/3.6e6, res.Ops, res.AllocFails)
		fmt.Fprintf(rpt, "  free space:   %d fragments, largest %d units\n",
			f.FreeFragments, f.LargestFreeUnits)
		fmt.Fprintf(rpt, "  fragmentation: %.2f%% internal, %.2f%% external at %.1f%% utilization\n",
			f.InternalPct, f.ExternalPct, f.Utilization*100)
		fmt.Fprintf(rpt, "  objects:      %d files, %s mean size\n", f.Files, units.Format(int64(f.MeanFileBytes)))
	}

	if *metricsFlag != "" {
		if err := cfg.Metrics.WriteFile(*metricsFlag, metricsFmt); err != nil {
			fatal("%v", err)
		}
		if *metricsFlag != "-" {
			fmt.Fprintf(os.Stderr, "rofsim: wrote metrics bundle to %s\n", *metricsFlag)
		}
	}
}

func stability(res core.PerfResult) string {
	if res.Stable {
		return fmt.Sprintf("stabilized after %d windows", res.Windows)
	}
	return "time-capped; overall average"
}

// request reads the run flags, with the -workload-file definition, when
// given, in place of the named workload.
func request(rf *service.RunFlags, wlFile string) (service.RunRequest, error) {
	req, err := rf.Request()
	if err != nil || wlFile == "" {
		return req, err
	}
	f, err := os.Open(wlFile)
	if err != nil {
		return req, err
	}
	defer f.Close()
	wl, err := workload.FromJSON(f)
	if err != nil {
		return req, err
	}
	req.WorkloadDef = &wl
	return req, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rofsim: "+format+"\n", args...)
	os.Exit(1)
}
