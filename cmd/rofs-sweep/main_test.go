package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/experiments"
	"rofs/internal/fault"
	"rofs/internal/service"
	"rofs/internal/workload"
)

// noCluster is the base for non-cluster sweeps: no fleet, closed loop.
var noCluster = cluster.Config{}

func TestParseValuesAcceptsFractionsAndNames(t *testing.T) {
	vals, err := parseValues("1, 1.5 ,2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "1.5", "2"}
	if len(vals) != len(want) {
		t.Fatalf("got %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("value %d = %q, want %q", i, vals[i], want[i])
		}
	}
	// Tokens stay strings, so name-valued axes parse too.
	names, err := parseValues("rr,least,affinity")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[1] != "least" {
		t.Errorf("name-valued tokens mangled: %v", names)
	}
	if _, err := parseValues(" ,, "); err == nil {
		t.Error("empty list accepted")
	}
}

func TestBuildSpecsGrowFraction(t *testing.T) {
	sc := experiments.BenchScale()
	specs, err := buildSpecs(sc, "grow", "TS", core.Allocation,
		[]string{"1", "1.5", "2"}, fault.Scenario{}, noCluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs", len(specs))
	}
	if got := specs[1].Policy.Name(); !strings.Contains(got, "g1.5") {
		t.Errorf("fractional grow factor lost: policy %q", got)
	}
	if specs[0].Key() == specs[1].Key() {
		t.Error("different grow factors share a key")
	}
}

func TestBuildSpecsRejectsFractionalIntParams(t *testing.T) {
	sc := experiments.BenchScale()
	for _, param := range []string{"seed", "users", "stripe", "disks", "sizes", "instances"} {
		if _, err := buildSpecs(sc, param, "TP", core.Application,
			[]string{"1.5"}, fault.Scenario{}, noCluster, nil); err == nil {
			t.Errorf("parameter %q accepted a fractional value", param)
		}
	}
	// Integer-valued tokens convert cleanly.
	specs, err := buildSpecs(sc, "seed", "TP", core.Application,
		[]string{"7"}, fault.Scenario{}, noCluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Seed != 7 {
		t.Errorf("seed = %d, want 7", specs[0].Seed)
	}
	// Numeric parameters reject garbage tokens.
	if _, err := buildSpecs(sc, "seed", "TP", core.Application,
		[]string{"x"}, fault.Scenario{}, noCluster, nil); err == nil {
		t.Error("garbage token accepted for a numeric parameter")
	}
}

func TestBuildSpecsRebuildPauseSweep(t *testing.T) {
	sc := experiments.BenchScale()
	// rebuild-pause without a rebuild scenario is an error.
	if _, err := buildSpecs(sc, "rebuild-pause", "TS", core.Application,
		[]string{"0", "50"}, fault.Scenario{}, noCluster, nil); err == nil {
		t.Error("rebuild-pause sweep accepted without a fault scenario")
	}
	faults := fault.Scenario{FailAtMS: 1000, Rebuild: true}
	specs, err := buildSpecs(sc, "rebuild-pause", "TS", core.Application,
		[]string{"0", "50"}, faults, noCluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Faults.RebuildPauseMS != 0 || specs[1].Faults.RebuildPauseMS != 50 {
		t.Errorf("pause not applied: %g, %g", specs[0].Faults.RebuildPauseMS, specs[1].Faults.RebuildPauseMS)
	}
	if specs[0].Key() == specs[1].Key() {
		t.Error("different rebuild pauses share a key")
	}
}

func TestBuildSpecsAttachScenario(t *testing.T) {
	sc := experiments.BenchScale()
	faults := fault.Scenario{FailAtMS: 2000, TransientProb: 0.01}
	specs, err := buildSpecs(sc, "seed", "TP", core.Application,
		[]string{"1", "2"}, faults, noCluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		if sp.Faults != faults {
			t.Errorf("spec %d lost the fault scenario: %+v", i, sp.Faults)
		}
	}
}

func TestBuildSpecsVariesOnlyTheParameter(t *testing.T) {
	sc := experiments.BenchScale()
	specs, err := buildSpecs(sc, "users", "TP", core.Application,
		[]string{"8", "16"}, fault.Scenario{}, noCluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Workload.Types[0].Users != 8 || specs[1].Workload.Types[0].Users != 16 {
		t.Errorf("users not applied: %d, %d",
			specs[0].Workload.Types[0].Users, specs[1].Workload.Types[0].Users)
	}
	if specs[0].Seed != specs[1].Seed {
		t.Error("seed drifted across points")
	}
}

func TestBuildSpecsInstancesSweep(t *testing.T) {
	sc := experiments.BenchScale()
	arr := &workload.Arrivals{RatePerSec: 400}
	specs, err := buildSpecs(sc, "instances", "TP", core.Application,
		[]string{"1", "2", "4"}, fault.Scenario{}, noCluster, arr)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 4} {
		if specs[i].Cluster.Instances != want {
			t.Errorf("point %d: instances = %d, want %d", i, specs[i].Cluster.Instances, want)
		}
		if specs[i].Workload.Arrivals == nil || specs[i].Workload.Arrivals.RatePerSec != 400 {
			t.Errorf("point %d lost the arrival process: %+v", i, specs[i].Workload.Arrivals)
		}
	}
	if specs[0].Key() == specs[2].Key() {
		t.Error("different fleet sizes share a key")
	}
	// The cluster axes are app-test only.
	if _, err := buildSpecs(sc, "instances", "TP", core.Sequential,
		[]string{"2"}, fault.Scenario{}, noCluster, nil); err == nil {
		t.Error("instances sweep accepted outside the app test")
	}
	// A negative fleet size is an error, not a plain run.
	if _, err := buildSpecs(sc, "instances", "TP", core.Application,
		[]string{"2", "-1"}, fault.Scenario{}, noCluster, arr); err == nil {
		t.Error("instances sweep accepted -1")
	}
}

func TestBuildSpecsRoutingAndAdmissionSweeps(t *testing.T) {
	sc := experiments.BenchScale()
	base := cluster.Config{Instances: 4, TokenCapacity: 32, TokenRefillPerSec: 300, QueueCap: 64}
	arr := &workload.Arrivals{RatePerSec: 400}
	specs, err := buildSpecs(sc, "routing", "TP", core.Application,
		[]string{"rr", "least", "affinity"}, fault.Scenario{}, base, arr)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"rr", "least", "affinity"} {
		if specs[i].Cluster.Routing != want {
			t.Errorf("point %d: routing = %q, want %q", i, specs[i].Cluster.Routing, want)
		}
	}
	// Routing needs a fleet to route across.
	if _, err := buildSpecs(sc, "routing", "TP", core.Application,
		[]string{"rr"}, fault.Scenario{}, noCluster, arr); err == nil {
		t.Error("routing sweep accepted without -instances")
	}
	// Unknown policy names fail per point via cluster validation.
	if _, err := buildSpecs(sc, "routing", "TP", core.Application,
		[]string{"random"}, fault.Scenario{}, base, arr); err == nil {
		t.Error("unknown routing policy accepted")
	}

	specs, err = buildSpecs(sc, "admission", "TP", core.Application,
		[]string{"none", "token", "queue"}, fault.Scenario{}, base, arr)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"", "token", "queue"} {
		if specs[i].Cluster.Admission != want {
			t.Errorf("point %d: admission = %q, want %q", i, specs[i].Cluster.Admission, want)
		}
	}
}

func TestBuildSpecsRateSweep(t *testing.T) {
	sc := experiments.BenchScale()
	base := cluster.Config{Instances: 2}
	arr := &workload.Arrivals{RatePerSec: 100, Clients: 64}
	specs, err := buildSpecs(sc, "rate", "TP", core.Application,
		[]string{"200", "400"}, fault.Scenario{}, base, arr)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{200, 400} {
		a := specs[i].Workload.Arrivals
		if a == nil || a.RatePerSec != want {
			t.Errorf("point %d: arrivals = %+v, want rate %g", i, a, want)
		}
		if a != nil && a.Clients != 64 {
			t.Errorf("point %d dropped the client population: %+v", i, a)
		}
	}
	if specs[0].Key() == specs[1].Key() {
		t.Error("different arrival rates share a key")
	}
}

// TestMainProcess is not a test: TestNegativeDisksExits re-runs the test
// binary with ROFS_SWEEP_MAIN set so that this function runs main with
// the arguments after "--", letting the parent observe the exit status.
func TestMainProcess(t *testing.T) {
	if os.Getenv("ROFS_SWEEP_MAIN") != "1" {
		t.Skip("helper process for TestNegativeDisksExits")
	}
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{"rofs-sweep"}, os.Args[i+1:]...)
			break
		}
	}
	main()
}

func TestNegativeDisksExits(t *testing.T) {
	_, specErr := (&service.RunRequest{Policy: "rbuddy", Workload: "TP", Test: "app", Disks: -3}).Spec()
	if specErr == nil {
		t.Fatal("RunRequest.Spec accepted disks -3")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainProcess$", "--",
		"-param", "seed", "-values", "1", "-disks", "-3")
	cmd.Env = append(os.Environ(), "ROFS_SWEEP_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("rofs-sweep -disks -3: got %v, want exit status 1 (stderr %q)", err, stderr.String())
	}
	if want := "rofs-sweep: " + specErr.Error() + "\n"; stderr.String() != want {
		t.Fatalf("stderr = %q, want %q", stderr.String(), want)
	}
}

// TestBadPointExits: a sweep value a run request refuses stops the sweep
// before any run, with exit status 1 and the request's own message.
func TestBadPointExits(t *testing.T) {
	_, specErr := (&service.RunRequest{Policy: "rbuddy", Workload: "TP", Test: "app", Disks: -3}).Spec()
	if specErr == nil {
		t.Fatal("RunRequest.Spec accepted disks -3")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainProcess$", "--",
		"-param", "disks", "-values", "2,-3")
	cmd.Env = append(os.Environ(), "ROFS_SWEEP_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("rofs-sweep -param disks -values 2,-3: got %v, want exit status 1 (stderr %q)", err, stderr.String())
	}
	if want := "rofs-sweep: " + specErr.Error() + "\n"; stderr.String() != want {
		t.Fatalf("stderr = %q, want %q (no run may start)", stderr.String(), want)
	}
}

func TestCheckPoints(t *testing.T) {
	base := service.RunRequest{Policy: "rbuddy", Workload: "TS", Test: "alloc"}
	for _, c := range []struct {
		param, values, wantErr string
	}{
		{"disks", "1,2,4", ""},
		{"disks", "-3", "disks must be non-negative, got -3"},
		{"stripe", "-5", "stripe_bytes must be non-negative, got -5"},
		{"sizes", "2,9", "rbuddy wants 2-5 block sizes, got 9"},
		{"grow", "1,0.5", "rbuddy grow factor must be at least 1, got 0.5"},
		{"sizes", "0", `parameter "sizes" value 0 is not accepted`},
		{"seed", "1,0", `parameter "seed" value 0 is not accepted`},
		{"grow", "x", `parameter "grow" needs numeric values, got "x"`},
		{"users", "-1", ""}, // not a run-request field: left to buildSpecs
	} {
		vals, err := parseValues(c.values)
		if err != nil {
			t.Fatal(err)
		}
		err = checkPoints(base, c.param, vals)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("-param %s -values %s: %v", c.param, c.values, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("-param %s -values %s: error %v, want %q", c.param, c.values, err, c.wantErr)
		}
	}
}
