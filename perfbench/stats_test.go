package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{5.5, 1.25, 9.75, 3.0, 7.5, 2.25, 8.0, 4.5, 6.25, 0.5}, 2.0, 7.625},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	xs := []float64{5.5, 1.25, 9.75, 3.0, 7.5, 2.25, 8.0, 4.5, 6.25, 0.5}
	if got := spread(xs); got != 1.125 {
		t.Errorf("spread = %g, want 1.125", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	want := []float64{99, 95, 90}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // 10 samples beyond p99
		{999, 95},  // 9.99 beyond p99: fall back
		{200, 95},  // exactly 10 beyond p95
		{100, 90},
		{99, 0}, // not even p90 qualifies
		{0, 0},
	} {
		if got := tailPercentile(c.n, want, 10); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestResultReportsMediansAndFailFrac(t *testing.T) {
	r := newResult()
	r.add("wall_s", "s", 3, 1, 2)
	r.add("extra_ms", "ms", 7)
	r.Attempted = 4
	r.note(1, []string{"boom"})
	var b strings.Builder
	if err := r.write(&b, []string{"wall_s"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if want := `{"correct":false,"attempted":4,"failed":1,"metrics":{"wall_s":{"unit":"s","value":2}}}`; last != want {
		t.Errorf("summary line\n got %s\nwant %s", last, want)
	}
	for _, want := range []string{"extra_ms", "fail_frac", "0.25", "1/4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
	if err := newResult().write(&b, []string{"wall_s"}); err == nil {
		t.Error("an unmeasured metric must be an error")
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newSpanRecorder()
	r.spans = []span{
		{ID: 1, Name: "pass", Cell: -1, StartUS: 0, EndUS: 10e6},
		{ID: 2, Parent: 1, Name: "cell", StartUS: 1e6, EndUS: 5e6},
		{ID: 3, Parent: 1, Name: "cell", StartUS: 3e6, EndUS: 7e6}, // overlaps the first
		{ID: 4, Parent: 2, Name: "core.Run", StartUS: 1e6, EndUS: 4e6},
	}
	got := map[string]spanTotal{}
	for _, tot := range r.totals() {
		got[tot.Name] = tot
	}
	for name, want := range map[string]spanTotal{
		"pass":     {Name: "pass", Count: 1, TotalS: 10, SelfS: 4},
		"cell":     {Name: "cell", Count: 2, TotalS: 8, SelfS: 5},
		"core.Run": {Name: "core.Run", Count: 1, TotalS: 3, SelfS: 3},
	} {
		if got[name] != want {
			t.Errorf("%s: got %+v, want %+v", name, got[name], want)
		}
	}
}
