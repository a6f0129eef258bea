package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"rofs/internal/runner"
)

// The paper-ts and sim-long repetitions each run in a fresh child
// process (this binary with -worker), so every repetition starts from
// the same empty heap and its CPU time and peak RSS are its own.

// simWorkload is a workload measured through runner.Pool in a worker.
type simWorkload struct {
	specs func(seed int64) ([]runner.Spec, error)
	jobs  int
}

var simWorkloads = map[string]simWorkload{
	// The rofs-tables path: every cell through one 2-job pool.
	"paper-ts": {specs: paperTSSpecs, jobs: 2},
	"sim-long": {specs: simLongSpecs, jobs: 2},
}

// repResult is what a worker reports for one repetition.
type repResult struct {
	WallS     float64      `json:"wall_s"`
	CPUS      float64      `json:"cpu_s"`
	Events    uint64       `json:"events"`
	Cells     []cellResult `json:"cells"`
	Simulated int64        `json:"simulated"`
	Cached    int64        `json:"cached"`
	Errors    []string     `json:"errors,omitempty"`

	// Filled in by the parent from the child's rusage.
	SetupS    float64 `json:"-"`
	PeakRSSMB float64 `json:"-"`
}

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// runWorker is the child side: build the specs, say "ready", run them
// once through a pool and print the repetition's result as JSON. With
// run false it stops after "ready" (a set-up-only sample).
func runWorker(name string, seed int64, run bool, out io.Writer) error {
	wl, ok := simWorkloads[name]
	if !ok {
		return fmt.Errorf("no worker workload %q", name)
	}
	specs, err := wl.specs(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "ready")
	if !run {
		return nil
	}
	rep := runPool(wl, specs)
	return json.NewEncoder(out).Encode(rep)
}

// runPool runs specs once through a fresh pool and records the cells.
func runPool(wl simWorkload, specs []runner.Spec) repResult {
	pool := runner.New(wl.jobs)
	cpu0, t0 := cpuSeconds(), time.Now()
	res, err := pool.Run(context.Background(), specs)
	rep := repResult{WallS: time.Since(t0).Seconds(), CPUS: cpuSeconds() - cpu0}
	if err != nil {
		rep.Errors = append(rep.Errors, err.Error())
	}
	for i, r := range res {
		if r.Err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", specs[i].Label(), r.Err))
			rep.Cells = append(rep.Cells, cellResult{Label: specs[i].Label()})
			continue
		}
		rep.Events += r.Outcome.Stats.Events
		rep.Cells = append(rep.Cells, newCellResult(specs[i], r.Outcome))
	}
	st := pool.Stats()
	rep.Simulated, rep.Cached = st.Simulated, st.Cached
	return rep
}

// spawnWorker runs one repetition (or, with run false, one set-up-only
// sample) in a child process. SetupS is the time from exec to the
// child's "ready" line.
func spawnWorker(name string, seed int64, run bool) (repResult, error) {
	var rep repResult
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(self, "-worker", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-run="+strconv.FormatBool(run))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return rep, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return rep, err
	}
	br := bufio.NewReader(stdout)
	line, rerr := br.ReadString('\n')
	rep.SetupS = time.Since(t0).Seconds()
	var body []byte
	if rerr == nil && line == "ready\n" && run {
		body, rerr = io.ReadAll(br)
	}
	werr := cmd.Wait()
	switch {
	case werr != nil:
		return rep, fmt.Errorf("worker %s: %w", name, werr)
	case rerr != nil:
		return rep, fmt.Errorf("worker %s: %w", name, rerr)
	case line != "ready\n":
		return rep, fmt.Errorf("worker %s: unexpected first line %q", name, line)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if !run {
		return rep, nil
	}
	setup, rss := rep.SetupS, rep.PeakRSSMB
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, fmt.Errorf("worker %s: decode result: %w", name, err)
	}
	rep.SetupS, rep.PeakRSSMB = setup, rss
	return rep, nil
}
