package extent

import (
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/sim"
)

// BenchmarkChurn interleaves many files growing and being truncated — the
// allocation test's population shape: every grow draws an extent and
// carves it out of the free map, every truncation frees and coalesces.
// Once each file's extent list has reached its longest, the cycle is
// allocation-free: lists are reused and free-map nodes recycled.
func BenchmarkChurn(b *testing.B) {
	for _, fit := range []Fit{FirstFit, BestFit} {
		b.Run(fit.String(), func(b *testing.B) {
			p, err := New(Config{
				TotalUnits: 1 << 20,
				Fit:        fit,
				RangeMeans: []int64{8, 64},
				RNG:        sim.NewRNG(1),
			})
			if err != nil {
				b.Fatal(err)
			}
			const nFiles = 64
			files := make([]alloc.File, nFiles)
			for i := range files {
				files[i] = p.NewFile(int64(i % 128))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := files[i%nFiles]
				if f.AllocatedUnits() >= 512 {
					f.TruncateTo(0)
				} else if err := f.Grow(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
