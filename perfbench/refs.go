package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// refs holds the recorded full-precision results for seed 42: every
// paper-ts and sim-long cell and the eight serve-mix repeat specs.
// Regenerate with -record (see README.md) only when a change to the
// simulator is meant to change results.
//
//go:embed refs/*.json
var refs embed.FS

func loadRefs(workload string, v any) error {
	b, err := refs.ReadFile("refs/" + workload + ".json")
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func writeRefs(dir, workload string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), append(b, '\n'), 0o644)
}

// recordRefs runs the workload once at seed 42 and writes its results.
func recordRefs(workload, serverBin, outDir, dir string) error {
	if workload == "serve-mix" {
		rep, err := serveRepetition(serverBin, outDir, nil, serveOpts{})
		if err != nil {
			return err
		}
		if rep.Failed > 0 {
			return fmt.Errorf("warm-up failed: %v", rep.Errors)
		}
		return writeRefs(dir, workload, rep.Warm)
	}
	wl, ok := simWorkloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	specs, err := wl.specs(refSeed)
	if err != nil {
		return err
	}
	rep := runPool(wl, specs)
	if len(rep.Errors) > 0 {
		return fmt.Errorf("%s: %v", workload, rep.Errors)
	}
	return writeRefs(dir, workload, rep.Cells)
}

// cellCheck compares simulated cells with the references (seed 42) or,
// for any other seed, with the first repetition's cells.
type cellCheck struct {
	want []string
}

func newCellCheck(workload string, seed int64) (*cellCheck, error) {
	c := &cellCheck{}
	if seed != refSeed {
		return c, nil
	}
	var cells []cellResult
	if err := loadRefs(workload, &cells); err != nil {
		return nil, err
	}
	for _, cell := range cells {
		c.want = append(c.want, cell.key())
	}
	return c, nil
}

// cells returns the number of mismatched cells and their messages.
// Cells that failed to run carry no result and were counted already.
func (c *cellCheck) cells(got []cellResult) (int, []string) {
	keys := make([]string, len(got))
	for i, cell := range got {
		keys[i] = cell.key()
	}
	if c.want == nil {
		c.want = keys
		return 0, nil
	}
	failed := 0
	var msgs []string
	for i, cell := range got {
		if cell.Frag == nil && cell.Perf == nil {
			continue
		}
		if i >= len(c.want) || keys[i] != c.want[i] {
			failed++
			msgs = append(msgs, fmt.Sprintf("%s: result differs from the reference", cell.Label))
		}
	}
	return failed, msgs
}

// serveCheck compares the repeat specs' first responses with the
// references and every fresh run with the first repetition's.
type serveCheck struct {
	want  []string
	fresh map[int][32]byte
}

func newServeCheck() (*serveCheck, error) {
	var want []serveRef
	if err := loadRefs("serve-mix", &want); err != nil {
		return nil, err
	}
	c := &serveCheck{}
	for _, r := range want {
		c.want = append(c.want, string(mustJSON(r)))
	}
	return c, nil
}

func (c *serveCheck) rep(r *serveRep) (int, []string) {
	failed := 0
	var msgs []string
	for i, w := range r.Warm {
		if i >= len(c.want) || string(mustJSON(w)) != c.want[i] {
			failed++
			msgs = append(msgs, fmt.Sprintf("%s: served result differs from the reference", w.Label))
		}
	}
	if c.fresh == nil {
		c.fresh = r.Fresh
		return failed, msgs
	}
	for i, h := range r.Fresh {
		if w, ok := c.fresh[i]; ok && w != h {
			failed++
			msgs = append(msgs, fmt.Sprintf("fresh request %d: result differs between repetitions", i))
		}
	}
	return failed, msgs
}
