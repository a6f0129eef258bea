package main

import (
	"fmt"
	"time"

	"rofs/internal/alloc"
	"rofs/internal/disk"
	"rofs/internal/experiments"
	"rofs/internal/fs"
	"rofs/internal/sim"
	"rofs/internal/units"
	"rofs/internal/workload"
)

// The alloc/fs layer probe drives each paper-ts policy directly through
// the file-system layer, without the simulator: a seeded TS populate
// from the workload's FileType parameters, then a churn pass of extends,
// truncates and delete-recreates, then one consistency check. It times
// File.Allocate, File.Truncate, File.Delete and FileSystem.Check.

// probeChurnOps is the number of churn operations per policy.
const probeChurnOps = 100_000

// probeResult is one policy's probe figures.
type probeResult struct {
	Policy                   string
	AllocateUS, TruncateUS   float64 // mean per call
	DeleteUS                 float64
	CheckMS                  float64
	Allocates                int64
	Coalesces, FreeFragments int64
}

// probe runs the layer probe for every paper-ts policy.
func probe(seed int64, spans *spanRecorder, parent int) ([]probeResult, error) {
	sc := experiments.FullScale()
	dsys, err := disk.New(sc.Disk, &sim.Engine{})
	if err != nil {
		return nil, err
	}
	wl, err := sc.Workload("TS")
	if err != nil {
		return nil, err
	}
	ps, err := paperTSPolicies(sc)
	if err != nil {
		return nil, err
	}
	var out []probeResult
	for i, ps := range ps {
		id := spans.start("probe "+ps.Name(), i, parent)
		rng := sim.NewRNG(seed)
		pol, err := ps.Build(dsys.Units(), dsys.UnitBytes(), rng)
		if err != nil {
			return nil, err
		}
		fsys, err := fs.New(pol, nil, dsys.UnitBytes())
		if err != nil {
			return nil, err
		}
		r, err := probePolicy(fsys, wl, rng)
		spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", ps.Name(), err)
		}
		r.Policy = ps.Name()
		if sr, ok := pol.(alloc.StatsReporter); ok {
			r.Coalesces = sr.OpStats().Coalesces
		}
		if fr, ok := pol.(alloc.FreeSpaceReporter); ok {
			r.FreeFragments = fr.FreeSpaceStats().Fragments
		}
		out = append(out, r)
	}
	return out, nil
}

// probeFile is a populated file and the type it was drawn from.
type probeFile struct {
	f  *fs.File
	ft *workload.FileType
}

func probePolicy(fsys *fs.FileSystem, wl workload.Workload, rng *sim.RNG) (probeResult, error) {
	var r probeResult
	var allocT, truncT, delT time.Duration
	var truncN, delN int64
	allocate := func(f *fs.File, n int64) {
		t := time.Now()
		// A full disk is the policy's answer, not a failure: the
		// probe times the call either way.
		_ = f.Allocate(n)
		allocT += time.Since(t)
		r.Allocates++
	}
	initial := func(ft *workload.FileType) int64 {
		size := rng.SizeUniform(float64(ft.InitialBytes), float64(ft.InitialDevBytes), 0)
		return units.RoundUp(size, fsys.UnitBytes())
	}
	var files []probeFile
	for i := range wl.Types {
		ft := &wl.Types[i]
		for n := 0; n < ft.Files; n++ {
			f := fsys.Create(ft.AllocSizeBytes)
			allocate(f, initial(ft))
			files = append(files, probeFile{f, ft})
		}
	}
	for op := 0; op < probeChurnOps; op++ {
		k := rng.Intn(len(files))
		pf := &files[k]
		switch rng.Intn(3) {
		case 0:
			allocate(pf.f, pf.ft.ExtendSize())
		case 1:
			t := time.Now()
			pf.f.Truncate(pf.ft.TruncateBytes)
			truncT += time.Since(t)
			truncN++
		default:
			t := time.Now()
			pf.f.Delete()
			delT += time.Since(t)
			delN++
			pf.f = fsys.Create(pf.ft.AllocSizeBytes)
			allocate(pf.f, initial(pf.ft))
		}
	}
	t := time.Now()
	err := fsys.Check()
	r.CheckMS = float64(time.Since(t)) / float64(time.Millisecond)
	us := func(d time.Duration, n int64) float64 {
		return float64(d) / float64(time.Microsecond) / float64(max(n, 1))
	}
	r.AllocateUS, r.TruncateUS, r.DeleteUS = us(allocT, r.Allocates), us(truncT, truncN), us(delT, delN)
	return r, err
}
