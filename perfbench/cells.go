package main

import (
	"encoding/json"
	"fmt"

	"rofs/internal/core"
	"rofs/internal/experiments"
	"rofs/internal/runner"
)

// refSeed is the seed the recorded references (refs/*.json) were made
// with — the paper reproduction's default, whose TS rows full_results.txt
// prints.
const refSeed = 42

// simLongCapMS is sim-long's simulated-time cap per run. Early
// stabilization is disabled, so every run goes to the cap and the
// measured event loop is almost all of the wall time.
var simLongCapMS = map[string]float64{"TP": 4_000_000, "SC": 5_000_000}

// simLongSeeds is how many simulation seeds one sim-long repetition
// runs. How often TP's extends fail on a full disk, and so what an event
// costs, depends on the seed; spreading a repetition over three seeds
// keeps one seed's draw from setting the run's figure.
const simLongSeeds = 3

// paperTSPolicies is the paper-ts policy set: the Figure 6 comparison
// for TS plus rbuddy-2-g2-clus, the slowest Figure 1/2 cell.
func paperTSPolicies(sc experiments.Scale) ([]core.PolicySpec, error) {
	ps, err := sc.Figure6Policies("TS")
	if err != nil {
		return nil, err
	}
	return append(ps, core.RBuddy(2, 2, true)), nil
}

// paperTSSpecs is the full-scale TS column: alloc, app and seq for each
// policy. The policies go longest-first (rbuddy-2-g2-clus, whose cells
// are the slowest, then the Figure 6 set from slowest to fastest), so
// the 2-job pool's makespan stays close to half the total work whatever
// the seed does to individual cells.
func paperTSSpecs(seed int64) ([]runner.Spec, error) {
	sc := experiments.FullScale()
	sc.Seed = seed
	wl, err := sc.Workload("TS")
	if err != nil {
		return nil, err
	}
	ps, err := paperTSPolicies(sc)
	if err != nil {
		return nil, err
	}
	byCost := []core.PolicySpec{ps[4], ps[1], ps[2], ps[0], ps[3]}
	var specs []runner.Spec
	for _, p := range byCost {
		for _, k := range []core.TestKind{core.Allocation, core.Application, core.Sequential} {
			specs = append(specs, sc.Spec(p, wl, k))
		}
	}
	return specs, nil
}

// simLongSpecs is the full-scale TP and SC application runs under
// rbuddy-5-g1-clus, each forced to its simulated-time cap, at seeds
// seed, seed+1e6 and seed+2e6 (disjoint for workload seeds below 1e6).
// The longer TP runs go first, so the 2-job pool's makespan stays close
// to half the work.
func simLongSpecs(seed int64) ([]runner.Spec, error) {
	sc := experiments.FullScale()
	var specs []runner.Spec
	for _, name := range []string{"TP", "SC"} {
		wl, err := sc.Workload(name)
		if err != nil {
			return nil, err
		}
		for j := int64(0); j < simLongSeeds; j++ {
			sc.Seed = seed + j*1_000_000
			sp := sc.Spec(core.RBuddy(5, 1, true), wl, core.Application)
			sp.MaxSimMS = simLongCapMS[name]
			sp.StableWindows = 1 << 30
			sp.Name = fmt.Sprintf("%s/seed%d", sp.Label(), sc.Seed)
			specs = append(specs, sp)
		}
	}
	return specs, nil
}

// cellResult is the deterministic part of one simulated cell: the result
// the test produced and the number of engine events it fired. Its JSON
// encoding is the byte string the output check compares; encoding/json
// writes float64s in shortest round-trip form, so no digit is lost.
type cellResult struct {
	Label  string           `json:"label"`
	Frag   *core.FragResult `json:"frag,omitempty"`
	Perf   *core.PerfResult `json:"perf,omitempty"`
	Events uint64           `json:"events"`
}

func newCellResult(sp runner.Spec, out core.Outcome) cellResult {
	c := cellResult{Label: sp.Label(), Events: out.Stats.Events}
	switch out.Kind {
	case core.Allocation:
		f := out.Frag
		c.Frag = &f
	default:
		p := out.Perf
		c.Perf = &p
	}
	return c
}

func (c cellResult) key() string {
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode %s: %v", c.Label, err))
	}
	return string(b)
}
