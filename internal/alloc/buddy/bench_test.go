package buddy

import (
	"testing"

	"rofs/internal/alloc"
)

// BenchmarkGrowTruncate measures the split/merge hot path through the
// public policy interface: growing a file to 1024 units forces a chain of
// doubling allocations splitting high-order blocks, and truncating to zero
// frees them all back, coalescing buddy pairs up the order tree.
func BenchmarkGrowTruncate(b *testing.B) {
	p, err := New(Config{TotalUnits: 1 << 20})
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
	if p.FreeUnits() != 1<<20 {
		b.Fatalf("leaked units: %d free of %d", p.FreeUnits(), int64(1)<<20)
	}
}

// BenchmarkChurn interleaves many files growing and being truncated — the
// allocation test's population shape, where block sizes mix and frees land
// far from the most recent split.
func BenchmarkChurn(b *testing.B) {
	p, err := New(Config{TotalUnits: 1 << 20})
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
