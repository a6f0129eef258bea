package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rofs/internal/core"
)

func loadCells(t *testing.T, workload string) []cellResult {
	t.Helper()
	var cells []cellResult
	if err := loadRefs(workload, &cells); err != nil {
		t.Fatal(err)
	}
	return cells
}

// flipDigit encodes v and changes the tenth significant digit of its
// Percent value — a difference far below anything a report prints.
func flipDigit(t *testing.T, v any) []byte {
	t.Helper()
	b := mustJSON(v)
	i := strings.Index(string(b), `"Percent":`)
	if i < 0 {
		t.Fatal("no Percent field")
	}
	j, digits := i+len(`"Percent":`), 0
	for ; j < len(b) && digits < 10; j++ {
		if b[j] >= '0' && b[j] <= '9' {
			digits++
		}
	}
	if digits < 10 {
		t.Fatalf("Percent has fewer than ten digits: %s", b[i:j])
	}
	b[j-1] = '0' + (b[j-1]-'0'+1)%10
	return b
}

func TestReferencesMatchThemselves(t *testing.T) {
	for _, w := range []string{"paper-ts", "sim-long"} {
		c, err := newCellCheck(w, refSeed)
		if err != nil {
			t.Fatal(err)
		}
		if n, msgs := c.cells(loadCells(t, w)); n != 0 {
			t.Errorf("%s: %d mismatches against its own references: %v", w, n, msgs)
		}
	}
}

func TestOneFlippedDigitFails(t *testing.T) {
	c, err := newCellCheck("paper-ts", refSeed)
	if err != nil {
		t.Fatal(err)
	}
	cells := loadCells(t, "paper-ts")
	var flipped cellResult
	if err := json.Unmarshal(flipDigit(t, cells[1]), &flipped); err != nil {
		t.Fatal(err)
	}
	if flipped.Perf.Percent == cells[1].Perf.Percent {
		t.Fatal("the flip did not change the value")
	}
	cells[1] = flipped
	if n, _ := c.cells(cells); n != 1 {
		t.Errorf("one flipped digit: %d mismatches, want 1", n)
	}

	// A different event count alone is a mismatch too.
	cells = loadCells(t, "paper-ts")
	cells[0].Events++
	if n, _ := c.cells(cells); n != 1 {
		t.Errorf("event count off by one: %d mismatches, want 1", n)
	}
}

func TestOtherSeedsCompareRepetitions(t *testing.T) {
	c, err := newCellCheck("sim-long", 7)
	if err != nil {
		t.Fatal(err)
	}
	first := loadCells(t, "sim-long")
	if n, _ := c.cells(first); n != 0 {
		t.Fatal("the first repetition of a non-reference seed sets the expectation")
	}
	again := loadCells(t, "sim-long")
	again[1].Perf.Ops++
	if n, _ := c.cells(again); n != 1 {
		t.Errorf("a repetition that disagrees: %d mismatches, want 1", n)
	}
}

func TestServeReferencesFlippedDigit(t *testing.T) {
	c, err := newServeCheck()
	if err != nil {
		t.Fatal(err)
	}
	var warm []serveRef
	if err := loadRefs("serve-mix", &warm); err != nil {
		t.Fatal(err)
	}
	if n, msgs := c.rep(&serveRep{Warm: warm}); n != 0 {
		t.Fatalf("references against themselves: %v", msgs)
	}
	if err := json.Unmarshal(flipDigit(t, warm[0]), &warm[0]); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.rep(&serveRep{Warm: warm}); n != 1 {
		t.Errorf("one flipped digit: %d mismatches, want 1", n)
	}
}

// TestPaperTSAnchors ties the recorded full-precision paper-ts results to
// the values full_results.txt prints for the full-scale reproduction at
// seed 42 (Table 3, Figures 1, 2, 4, 5 and 6, Table 4).
func TestPaperTSAnchors(t *testing.T) {
	type frag struct{ internal, external string }
	wantFrag := map[string]frag{
		"buddy":               {"19.7", "0.0"},
		"rbuddy-5-g1-clus":    {"6.0", "0.7"},
		"rbuddy-2-g2-clus":    {"0.8", "0.4"},
		"extent-first-fit-3r": {"0.4", "0.0"},
	}
	wantPerf := map[string]string{ // app, seq
		"buddy/TS/app": "9.7", "buddy/TS/seq": "32.6",
		"rbuddy-5-g1-clus/TS/app": "9.5", "rbuddy-5-g1-clus/TS/seq": "33.9",
		"rbuddy-2-g2-clus/TS/app": "9.4", "rbuddy-2-g2-clus/TS/seq": "36.0",
		"extent-first-fit-3r/TS/app": "9.9", "extent-first-fit-3r/TS/seq": "35.4",
		"fixed-4K/TS/app": "8.4", "fixed-4K/TS/seq": "23.7",
	}
	f1 := func(x float64) string { return fmt.Sprintf("%.1f", x) }
	seen := 0
	for _, c := range loadCells(t, "paper-ts") {
		switch {
		case c.Frag != nil:
			if w, ok := wantFrag[c.Frag.Policy]; ok {
				seen++
				if f1(c.Frag.InternalPct) != w.internal || f1(c.Frag.ExternalPct) != w.external {
					t.Errorf("%s: frag %s/%s, printed %s/%s", c.Label,
						f1(c.Frag.InternalPct), f1(c.Frag.ExternalPct), w.internal, w.external)
				}
			}
			if c.Frag.Policy == "extent-first-fit-3r" && f1(c.Frag.ExtentsPerFile) != "6.6" {
				t.Errorf("%s: %s extents per file, Table 4 prints 6.6", c.Label, f1(c.Frag.ExtentsPerFile))
			}
		case c.Perf != nil:
			if w, ok := wantPerf[c.Label]; ok {
				seen++
				if f1(c.Perf.Percent) != w {
					t.Errorf("%s: %s%%, printed %s%%", c.Label, f1(c.Perf.Percent), w)
				}
			}
		}
	}
	if seen != len(wantFrag)+len(wantPerf) {
		t.Errorf("anchored %d cells, want %d", seen, len(wantFrag)+len(wantPerf))
	}
	var events uint64
	for _, c := range loadCells(t, "paper-ts") {
		events += c.Events
	}
	if events != 1_343_293 {
		t.Errorf("paper-ts fires %d events at seed 42, want 1343293", events)
	}
}

func TestServeRecordCountsRefusalsAsFailures(t *testing.T) {
	warm := []byte(`"result": {"test": "app", "perf": {"Percent": 1}, `)
	ok := []byte(`{"state": "done", "result": {"test": "app", "perf": {"Percent": 1}, "stats": {"Events": 9}, "wall_seconds": 1}}`)
	seq := []mixRequest{{spec: 0}, {spec: 0}, {spec: 0}, {spec: 0}, {spec: 0, fresh: true}}
	r := &serveRep{Fresh: map[int][32]byte{}, warm: [][]byte{warm}}
	r.begin(len(seq))
	r.record(0, seq[0], http.StatusOK, []byte(`{"result": {"test": "app", "perf": {"Percent": 1}, "wall_seconds": 2}}`), 1.5, nil)
	r.record(1, seq[1], http.StatusServiceUnavailable, []byte(`{"error": "queue full"}`), 0.1, nil)
	r.record(2, seq[2], 0, nil, 0, fmt.Errorf("connection reset"))
	r.record(3, seq[3], http.StatusOK, []byte(`{"result": {"test": "app", "perf": {"Percent": 2}, "wall_seconds": 2}}`), 1.5, nil)
	r.record(4, seq[4], http.StatusOK, ok, 20, nil)
	r.end(seq)
	if r.Attempted != 5 || r.Failed != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3 (refusal, transport error, mismatched hit)", r.Attempted, r.Failed)
	}
	if len(r.HitMS) != 1 || len(r.FreshMS) != 1 || r.Events != 9 {
		t.Errorf("hits %v fresh %v events %d", r.HitMS, r.FreshMS, r.Events)
	}

	// The server's counters must agree with what the clients saw: here
	// it did not count the refusal, which is one more failure.
	r.Before = map[string]float64{}
	r.After = map[string]float64{
		"rofs_service_http_requests_submit": 5,
		"rofs_service_runs_admitted":        3,
		"rofs_service_runs_done":            3,
		"rofs_service_runs_rejected":        0,
		"rofs_service_runs_cached":          2,
	}
	r.checkAccounting(seq)
	if r.Failed != 4 {
		t.Errorf("after the accounting check %d failures, want 4: %v", r.Failed, r.Errors)
	}
	r.After["rofs_service_runs_rejected"] = 1
	r.Failed = 0
	r.checkAccounting(seq)
	if r.Failed != 0 {
		t.Errorf("consistent counters failed the check: %v", r.Errors)
	}
}

func TestMixSequenceIsBalancedAndSeeded(t *testing.T) {
	a, b, c := mixSequence(1, 800), mixSequence(1, 800), mixSequence(2, 800)
	perSpec := map[[2]int]int{}
	seeds := map[string]bool{}
	for i, rq := range a {
		if string(rq.body) != string(b[i].body) {
			t.Fatal("the same seed must give the same sequence")
		}
		fresh := 0
		if rq.fresh {
			fresh = 1
			if seeds[string(rq.body)] {
				t.Errorf("fresh request %s repeats", rq.body)
			}
			seeds[string(rq.body)] = true
		}
		perSpec[[2]int{rq.spec, fresh}]++
	}
	for k := range repeatSpecs {
		if perSpec[[2]int{k, 0}] != 90 || perSpec[[2]int{k, 1}] != 10 {
			t.Errorf("spec %d: %d repeats and %d fresh, want 90 and 10", k, perSpec[[2]int{k, 0}], perSpec[[2]int{k, 1}])
		}
	}
	same := 0
	for i := range a {
		if string(a[i].body) == string(c[i].body) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds gave the same sequence")
	}
	if freshSeed(1, 1) == freshSeed(-1, 1) || freshSeed(3, 1) == 42 {
		t.Error("fresh seeds collide")
	}
}

func TestPayloadExcludesServingMetadata(t *testing.T) {
	a := []byte("{\n  \"id\": \"run-000001\",\n  \"result\": {\n    \"test\": \"app\",\n    \"wall_seconds\": 0.5,\n    \"cached\": false\n  }\n}")
	b := []byte("{\n  \"id\": \"run-000009\",\n  \"result\": {\n    \"test\": \"app\",\n    \"wall_seconds\": 0.001,\n    \"cached\": true\n  }\n}")
	pa, err := payload(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := payload(b)
	if string(pa) != string(pb) {
		t.Errorf("payloads differ: %q vs %q", pa, pb)
	}
	if _, err := payload([]byte(`{"error": "x"}`)); err == nil {
		t.Error("a body without a result must be an error")
	}
}

func TestParseGCTrace(t *testing.T) {
	log := `listening on 127.0.0.1:1
gc 1 @0.010s 2%: 0.01+0.5+0.01 ms clock, 0.02+0.1/0.2/0.3+0.02 ms cpu, 4->5->2 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P
gc 2 @0.050s 7%: 0.01+0.5+0.01 ms clock, 0.02+0.1/0.2/0.3+0.02 ms cpu, 10->11->3 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P
`
	s := parseGCTrace(log)
	if s.cycles != 2 || s.cpuFrac != 0.07 || s.allocMB != 4+(10-2) {
		t.Errorf("got %+v, want 2 cycles, 0.07, 12 MB", s)
	}
}

func TestPerLayerNamesAreUniqueAndValid(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range perLayer {
		if seen[n] || len(n) > 64 || strings.Trim(n, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" {
			t.Errorf("bad or repeated per-layer name %q", n)
		}
		seen[n] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
	if _, ok := layerUnits["alloc."+core.RBuddy(2, 2, true).Name()+".allocate_us"]; !ok {
		t.Error("probe metrics are missing for rbuddy-2-g2-clus")
	}
}

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json (at the
// root of the repository) in step with what the runs report.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside perfbench:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end %v, runs report %v", e2e, endToEnd)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer lists %d metrics, traced runs report %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i] || m.Unit != layerUnits[m.Name] {
			t.Errorf("per_layer[%d] = %s (%s), runs report %s (%s)", i, m.Name, m.Unit, perLayer[i], layerUnits[perLayer[i]])
		}
	}
}

// TestServeRecordConcurrent drives record from several goroutines, as the
// closed-loop clients do; run it with -race.
func TestServeRecordConcurrent(t *testing.T) {
	warm := []byte(`"result": {"test": "app", `)
	body := []byte(`{"result": {"test": "app", "wall_seconds": 1}}`)
	seq := make([]mixRequest, 400)
	r := &serveRep{Fresh: map[int][32]byte{}, warm: [][]byte{warm}}
	r.begin(len(seq))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(seq); i += 4 {
				r.record(i, seq[i], http.StatusOK, body, 1, nil)
			}
		}()
	}
	wg.Wait()
	r.end(seq)
	if r.Failed != 0 || len(r.HitMS) != len(seq) || r.completed != len(seq) {
		t.Errorf("failed %d, hits %d, completed %d of %d", r.Failed, len(r.HitMS), r.completed, len(seq))
	}
}
