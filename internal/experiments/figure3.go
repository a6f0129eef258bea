package experiments

import (
	"context"
	"fmt"

	"rofs/internal/alloc"
	"rofs/internal/alloc/rbuddy"
	"rofs/internal/runner"
)

// Fig3Result demonstrates the Figure 3 interaction between contiguous
// allocation and the grow factor: when a growing file's block size
// increases, the next aligned block of the new size is not contiguous
// with the blocks already allocated, so the file pays a seek.
type Fig3Result struct {
	GrowFactor float64
	// FileKB is the file size at which the 64K block is first required
	// (72K under g=1, 144K under g=2, in the paper's example).
	FileKB int64
	// Extents is the file's physical layout just after crossing.
	Extents []alloc.Extent
	// Discontiguous reports whether the crossing produced a layout break.
	Discontiguous bool
	// GapKB is the skipped hole between the small-block run and the first
	// 64K block.
	GapKB int64
}

// Figure3 reproduces the paper's Figure 3 walk-through on a fresh
// single-region disk with block sizes {1K, 8K, 64K}, for grow factors 1
// and 2. The walk-throughs are pure allocator exercises, not simulation
// Specs, so they run through the pool's generic Do.
func Figure3(ctx context.Context, p *runner.Pool) ([]Fig3Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil {
		p = runner.New(0)
	}
	growFactors := []float64{1, 2}
	out := make([]Fig3Result, len(growFactors))
	err := p.Do(ctx, len(growFactors), func(i int) error {
		g := growFactors[i]
		p, err := rbuddy.New(rbuddy.Config{
			TotalUnits: 1024, // 1M in 1K units
			SizesUnits: []int64{1, 8, 64},
			GrowFactor: g,
		})
		if err != nil {
			return err
		}
		f := p.NewFile(0)
		// Grow one unit at a time until the first 64-unit block appears:
		// each Grow(1) adds exactly one block.
		crossed := false
		for i := 0; i < 1024 && !crossed; i++ {
			before := f.AllocatedUnits()
			if err := f.Grow(1); err != nil {
				return fmt.Errorf("figure3 g=%g: %w", g, err)
			}
			crossed = f.AllocatedUnits()-before == 64
		}
		if !crossed {
			return fmt.Errorf("figure3 g=%g: never reached a 64K block", g)
		}
		ext := append([]alloc.Extent(nil), f.Extents()...)
		res := Fig3Result{GrowFactor: g, FileKB: f.AllocatedUnits(), Extents: ext}
		if len(ext) > 1 {
			res.Discontiguous = true
			res.GapKB = ext[len(ext)-1].Start - ext[len(ext)-2].End()
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
