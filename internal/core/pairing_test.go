package core_test

import (
	"reflect"
	"testing"

	"rofs/internal/core"
	"rofs/internal/disk"
	"rofs/internal/experiments"
)

// wantAppFromSeq runs cfg's sequential test and requires the application
// outcome it carries to deep-equal a standalone application run: result,
// engine statistics and error alike.
func wantAppFromSeq(t *testing.T, label string, cfg core.Config) core.Outcome {
	t.Helper()
	seq, seqErr := core.Run(cfg, core.Sequential)
	if seqErr != nil {
		t.Fatalf("%s: seq: %v", label, seqErr)
	}
	if seq.App == nil {
		t.Fatalf("%s: sequential run carried no application outcome", label)
	}
	app, appErr := core.Run(cfg, core.Application)
	if !reflect.DeepEqual(seq.App.Perf, app.Perf) {
		t.Errorf("%s: app from seq %+v\nstandalone app   %+v", label, seq.App.Perf, app.Perf)
	}
	if seq.App.Stats != app.Stats {
		t.Errorf("%s: app stats from seq %+v, standalone %+v", label, seq.App.Stats, app.Stats)
	}
	if seq.App.Kind != core.Application || app.App != nil {
		t.Errorf("%s: kinds: from seq %v, standalone carries App %v", label, seq.App.Kind, app.App != nil)
	}
	if !reflect.DeepEqual(seq.AppErr, appErr) {
		t.Errorf("%s: app error from seq %v, standalone %v", label, seq.AppErr, appErr)
	}
	return app
}

// TestSequentialCarriesApplicationOutcome: the sequential test's first
// phase is the application test, so its recorded outcome must equal a
// standalone application run for every workload and Figure 6 policy.
func TestSequentialCarriesApplicationOutcome(t *testing.T) {
	sc := experiments.BenchScale()
	for _, name := range []string{"SC", "TP", "TS"} {
		wl, err := sc.Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := sc.Figure6Policies(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			wantAppFromSeq(t, name+"/"+p.Name(), sc.Spec(p, wl, core.Sequential).Config())
		}
	}
}

// TestSequentialCarriesFaultedApplicationOutcome covers a drive failure
// and rebuild inside the application phase: the fault report must match.
func TestSequentialCarriesFaultedApplicationOutcome(t *testing.T) {
	sc := experiments.BenchScale()
	sc.Disk.Layout = disk.RAID5
	sc.Disk.NDisks = 4 // room for the bench workload beside the parity
	wl, err := sc.Workload("TP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Spec(core.Buddy(), wl, core.Sequential).Config()
	cfg.Faults = experiments.DefaultFaultScenario(sc)
	app := wantAppFromSeq(t, "TP/buddy/faults", cfg)
	if app.Perf.Faults == nil || app.Perf.Faults.DriveFailures == 0 {
		t.Fatalf("fault scenario never failed a drive: %+v", app.Perf.Faults)
	}
}

// TestSequentialCarriesCappedApplicationOutcome covers an application
// phase that hits MaxSimMS before it stabilizes.
func TestSequentialCarriesCappedApplicationOutcome(t *testing.T) {
	sc := experiments.BenchScale()
	wl, err := sc.Workload("TS")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Spec(core.Buddy(), wl, core.Sequential).Config()
	cfg.MaxSimMS = 25_000
	cfg.StableWindows = 1000
	app := wantAppFromSeq(t, "TS/buddy/capped", cfg)
	if app.Perf.Stable || app.Perf.SimMS != cfg.MaxSimMS {
		t.Fatalf("application phase stable=%v at %.0f ms, want it capped at %.0f ms",
			app.Perf.Stable, app.Perf.SimMS, cfg.MaxSimMS)
	}
}

// TestApplicationOutcomeOnlyFromSequential: no other test kind carries
// one, and a sequential run that fails before its application phase ends
// carries none.
func TestApplicationOutcomeOnlyFromSequential(t *testing.T) {
	sc := experiments.BenchScale()
	wl, err := sc.Workload("TS")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.TestKind{core.Allocation, core.Application} {
		out, err := core.Run(sc.Spec(core.Buddy(), wl, kind).Config(), kind)
		if err != nil {
			t.Fatal(err)
		}
		if out.App != nil || out.AppErr != nil {
			t.Fatalf("%s run carries an application outcome", kind)
		}
	}
	cfg := sc.Spec(core.Buddy(), wl, core.Sequential).Config()
	cfg.LowerUtil, cfg.UpperUtil = 0.999, 1 // fills during initialization
	wl.Types[0].Files *= 50
	cfg.Workload = wl
	out, err := core.Run(cfg, core.Sequential)
	if err == nil || out.App != nil {
		t.Fatalf("seq that fills during init: err %v, App %v; want an error and no App", err, out.App)
	}
}
