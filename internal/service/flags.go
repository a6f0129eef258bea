package service

import (
	"flag"
	"fmt"

	"rofs/internal/cluster"
	"rofs/internal/fault"
	"rofs/internal/units"
)

// RunFlags binds the run vocabulary to a flag set: one flag per
// RunRequest knob that rofsim and rofs-client share, plus the fault and
// cluster flag sets. Request turns the parsed flags into a RunRequest;
// its Spec is the only validator.
type RunFlags struct {
	policy, workload, test, scale *string
	seed                          *int64
	sizes                         *int
	grow                          *float64
	clustered                     *bool
	fit                           *string
	ranges                        *int
	block                         *string
	disks                         *int
	layout, stripe                *string
	maxSim                        *float64

	faults  *fault.Flags
	cluster *cluster.Flags
}

// AddRunFlags registers the run flags on fs.
func AddRunFlags(fs *flag.FlagSet) *RunFlags {
	return &RunFlags{
		policy:   fs.String("policy", "rbuddy", "buddy | rbuddy | extent | fixed"),
		workload: fs.String("workload", "TS", "TS | TP | SC"),
		test:     fs.String("test", "alloc", "alloc | app | seq | aging"),
		scale:    fs.String("scale", "bench", "full | bench"),
		seed:     fs.Int64("seed", 42, "simulation seed"),

		sizes:     fs.Int("sizes", 5, "rbuddy: number of block sizes (2-5)"),
		grow:      fs.Float64("grow", 1, "rbuddy: grow-policy multiplier (fractions allowed, e.g. 1.5)"),
		clustered: fs.Bool("clustered", true, "rbuddy: use 32M bookkeeping regions"),

		fit:    fs.String("fit", "first", "extent: first | best"),
		ranges: fs.Int("ranges", 3, "extent: number of extent-size ranges (1-5)"),

		block: fs.String("block", "4K", "fixed: block size (4K or 16K)"),

		disks:  fs.Int("disks", 0, "override number of drives"),
		layout: fs.String("layout", "striped", "striped | mirrored | raid5 | parity"),
		stripe: fs.String("stripe", "", "override stripe unit, e.g. 24K"),
		maxSim: fs.Float64("max-sim", 0, "override simulated-time cap (ms)"),

		faults:  fault.AddFlags(fs),
		cluster: cluster.AddFlags(fs),
	}
}

// Request assembles the parsed flags into a RunRequest. It refuses an
// explicit 0 for -seed, -sizes, -grow and -ranges: their defaults are
// non-zero, so a zero was typed, and the request reads zero as "use the
// default". Everything else is left to RunRequest.Spec.
func (f *RunFlags) Request() (RunRequest, error) {
	for _, z := range []struct {
		name string
		zero bool
	}{{"seed", *f.seed == 0}, {"sizes", *f.sizes == 0}, {"grow", *f.grow == 0}, {"ranges", *f.ranges == 0}} {
		if z.zero {
			return RunRequest{}, fmt.Errorf("-%s 0 is not accepted: a run request reads zero as the default", z.name)
		}
	}
	req := RunRequest{
		Policy:    *f.policy,
		Workload:  *f.workload,
		Test:      *f.test,
		Scale:     *f.scale,
		Seed:      *f.seed,
		Sizes:     *f.sizes,
		Grow:      *f.grow,
		Clustered: f.clustered,
		Fit:       *f.fit,
		Ranges:    *f.ranges,
		Disks:     *f.disks,
		Layout:    *f.layout,
		MaxSimMS:  *f.maxSim,
	}
	if req.Policy == "fixed" {
		n, err := units.ParseSize(*f.block)
		if err != nil {
			return req, fmt.Errorf("bad block size: %w", err)
		}
		req.BlockBytes = n
	}
	if *f.stripe != "" {
		n, err := units.ParseSize(*f.stripe)
		if err != nil {
			return req, fmt.Errorf("bad stripe unit: %w", err)
		}
		req.StripeBytes = n
	}
	if faults := f.faults.Scenario(); faults != (fault.Scenario{}) {
		req.Faults = &faults
	}
	// -arrival-trace is loaded here and carried inline: the server refuses
	// trace_file references (it will not read paths local to the client).
	a, err := f.cluster.Arrivals()
	if err != nil {
		return req, err
	}
	req.Arrivals = a
	req.Compaction = f.cluster.Compaction()
	if cc := f.cluster.Config(); cc != (cluster.Config{}) {
		req.Cluster = &cc
	}
	return req, nil
}
