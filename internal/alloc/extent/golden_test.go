package extent

import (
	"flag"
	"path/filepath"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/alloc/alloctest"
	"rofs/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current implementation")

// TestDifferentialGolden replays seeded grow/truncate/delete scripts under
// both fit disciplines and compares every extent handed out, as
// allocated, with recorded goldens. The space is small enough that grows
// fail and roll back.
func TestDifferentialGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		fit  Fit
		seed int64
	}{
		{"first-fit", FirstFit, 9},
		{"best-fit", BestFit, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(Config{
				TotalUnits: 20333,
				Fit:        tc.fit,
				RangeMeans: []int64{40, 400},
				RNG:        sim.NewRNG(tc.seed),
			})
			if err != nil {
				t.Fatal(err)
			}
			got := alloctest.Script(p, tc.seed, 2500, 400, func(f alloc.File) []string {
				var out []string
				for _, e := range f.(*file).pieces {
					out = append(out, e.String())
				}
				return out
			})
			alloctest.CheckGolden(t, filepath.Join("testdata", tc.name+".golden"), got, *update)
		})
	}
}
