package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rofs/internal/core"
	"rofs/internal/experiments"
	"rofs/internal/service"
	"rofs/internal/workload"
)

func TestStability(t *testing.T) {
	if got := stability(core.PerfResult{Stable: true, Windows: 3}); got != "stabilized after 3 windows" {
		t.Errorf("stability = %q", got)
	}
	if got := stability(core.PerfResult{}); got != "time-capped; overall average" {
		t.Errorf("stability = %q", got)
	}
}

// TestWorkloadFileRunsUnscaled pins -workload-file: the file's workload
// runs as written, not divided by the scale, in place of -workload, and
// extent ranges are looked up by the file workload's own name.
func TestWorkloadFileRunsUnscaled(t *testing.T) {
	sc := experiments.BenchScale()
	for _, name := range []string{"TS", "SC"} {
		wl, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// The file -dump-workload writes.
		path := filepath.Join(t.TempDir(), name+".json")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.ToJSON(f, wl); err != nil {
			t.Fatal(err)
		}
		f.Close()

		fs := flag.NewFlagSet("rofsim", flag.ContinueOnError)
		rf := service.AddRunFlags(fs)
		if err := fs.Parse([]string{"-policy", "extent", "-workload", "TP", "-scale", "bench"}); err != nil {
			t.Fatal(err)
		}
		req, err := request(rf, path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sp.Workload.KeyString(), wl.KeyString(); got != want {
			t.Errorf("%s: workload-file run used %s, want the unscaled %s", name, got, want)
		}
		want, err := sc.ExtentRanges(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sp.Policy.RangeMeans, want) {
			t.Errorf("%s: extent ranges %v, want %v", name, sp.Policy.RangeMeans, want)
		}
	}
}
