package extent

import (
	"testing"
	"testing/quick"

	"rofs/internal/alloc"
	"rofs/internal/sim"
)

// TestQuickExtentInvariants drives the extent allocator with arbitrary
// grow/truncate scripts via testing/quick and checks, after every
// operation: space conservation against the free map, no overlapping
// extents, and that truncation never cuts below its target (extents are
// the unit of deallocation, so it can only round up). Both fits run the
// same scripts.
func TestQuickExtentInvariants(t *testing.T) {
	const total = 1 << 14
	for _, fit := range []Fit{FirstFit, BestFit} {
		prop := func(script []uint16, seed int64) bool {
			p, err := New(Config{
				TotalUnits: total,
				Fit:        fit,
				RangeMeans: []int64{8, 64, 256},
				RNG:        sim.NewRNG(seed),
			})
			if err != nil {
				return false
			}
			var files []*file
			for _, op := range script {
				arg := int64(op&0x3FF) + 1
				switch {
				case op&0x8000 == 0 || len(files) == 0: // grow (new or existing)
					var f *file
					if len(files) > 0 && op&0x4000 != 0 {
						f = files[int(op>>8)%len(files)]
					} else {
						// The size hint selects the extent-size range.
						f = p.NewFile(arg * int64(op%3+1)).(*file)
						files = append(files, f)
					}
					if err := f.Grow(arg); err != nil && err != alloc.ErrNoSpace {
						return false
					}
				default: // truncate
					f := files[int(op>>8)%len(files)]
					before := f.AllocatedUnits()
					target := arg % (before + 1)
					f.TruncateTo(target)
					if got := f.AllocatedUnits(); got < target || got > before {
						return false
					}
				}
				var used int64
				for _, f := range files {
					used += f.AllocatedUnits()
				}
				if used+p.FreeUnits() != total {
					return false
				}
			}
			var all []alloc.Extent
			for _, f := range files {
				all = append(all, f.pieces...)
			}
			return alloc.Validate(all, total) == nil
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%v fit: %v", fit, err)
		}
	}
}
