package rbuddy

import (
	"testing"

	"rofs/internal/alloc"
)

// benchConfig is a 5-size restricted buddy space (units of 1K: 1K, 8K,
// 64K, 512K, 4M blocks over a 1G space), clustered into 32M regions —
// the paper's shape at reduced scale.
func benchConfig(clustered bool) Config {
	cfg := Config{
		TotalUnits: 1 << 20,
		SizesUnits: []int64{1, 8, 64, 512, 4096},
		GrowFactor: 1,
	}
	if clustered {
		cfg.Clustered = true
		cfg.RegionUnits = 32768
	}
	return cfg
}

// BenchmarkGrowTruncate measures the grow/coalesce hot path: each cycle
// walks a file up the block-size ladder (splitting larger blocks as
// classes empty) and truncates it back, coalescing the pieces.
func BenchmarkGrowTruncate(b *testing.B) {
	for _, mode := range []struct {
		name      string
		clustered bool
	}{
		{"clustered", true},
		{"unclustered", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			p, err := New(benchConfig(mode.clustered))
			if err != nil {
				b.Fatal(err)
			}
			f := p.NewFile(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for f.AllocatedUnits() < 1024 {
					if err := f.Grow(1); err != nil {
						b.Fatal(err)
					}
				}
				f.TruncateTo(0)
			}
			b.StopTimer()
			f.TruncateTo(0)
			if p.FreeUnits() != p.TotalUnits() {
				b.Fatalf("leaked units: %d free of %d", p.FreeUnits(), p.TotalUnits())
			}
		})
	}
}

// BenchmarkChurn interleaves a population of files growing and being
// truncated, so allocations hit the region-preference paths (optimal
// region, any region with the right size, next region with space) rather
// than always finding the last-split block.
func BenchmarkChurn(b *testing.B) {
	p, err := New(benchConfig(true))
	if err != nil {
		b.Fatal(err)
	}
	const nFiles = 64
	files := make([]alloc.File, nFiles)
	for i := range files {
		files[i] = p.NewFile(0)
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
}
