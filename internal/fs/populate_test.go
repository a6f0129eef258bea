package fs

import (
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/alloc/buddy"
	"rofs/internal/alloc/extent"
	"rofs/internal/alloc/fixed"
	"rofs/internal/alloc/rbuddy"
	"rofs/internal/sim"
	"rofs/internal/units"
)

// TestPopulateAllocsPerFile bounds the heap allocations it takes to create
// a file and give it its initial size plus one fill-phase growth — the
// populate path every simulation runs hundreds of thousands of times.
// The bounds are the measured averages (buddy 5.75, rbuddy 1.06, extent
// 4.85, fixed 1.01) with a little headroom: the file record and policy
// handle come from shared chunks, Grow builds nothing it returns, and what
// remains is each file's own extent list growing (buddy also keeps its
// block list, and the extent files here draw many small extents).
func TestPopulateAllocsPerFile(t *testing.T) {
	const total = 1 << 21 // 2G of 1K units
	cases := []struct {
		name   string
		policy func() (alloc.Policy, error)
		max    float64
	}{
		{"buddy", func() (alloc.Policy, error) {
			return buddy.New(buddy.Config{TotalUnits: total})
		}, 6.5},
		{"rbuddy", func() (alloc.Policy, error) {
			return rbuddy.New(rbuddy.Config{TotalUnits: total, SizesUnits: []int64{1, 8, 64, 1024, 16384},
				GrowFactor: 1, Clustered: true, RegionUnits: 32768})
		}, 1.5},
		{"extent", func() (alloc.Policy, error) {
			return extent.New(extent.Config{TotalUnits: total, RangeMeans: []int64{4, 64, 1024},
				RNG: sim.NewRNG(1)})
		}, 5.5},
		{"fixed", func() (alloc.Policy, error) {
			return fixed.New(fixed.Config{TotalUnits: total, BlockUnits: 4})
		}, 1.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.policy()
			if err != nil {
				t.Fatal(err)
			}
			fsys, err := New(p, nil, units.KB)
			if err != nil {
				t.Fatal(err)
			}
			const batch = 512
			fsys.ReserveFiles(6 * batch)
			rng := sim.NewRNG(2)
			perBatch := testing.AllocsPerRun(5, func() {
				for i := 0; i < batch; i++ {
					f := fsys.Create(8 * units.KB)
					// Mostly small files, a few large ones: 1K-64K and 1M.
					size := (1 + rng.Int63n(64)) * units.KB
					if i%32 == 0 {
						size = units.MB
					}
					if err := f.Allocate(size); err != nil {
						t.Fatal(err)
					}
					if err := f.Allocate(8 * units.KB); err != nil {
						t.Fatal(err)
					}
				}
			})
			got := perBatch / batch
			t.Logf("%s: %.2f allocs per populated file", tc.name, got)
			if got > tc.max {
				t.Errorf("%s: %.2f allocs per populated file, want at most %.2f", tc.name, got, tc.max)
			}
		})
	}
}
