package fixed

import (
	"testing"

	"rofs/internal/alloc"
)

// BenchmarkChurn interleaves many files growing and being truncated, in
// both free-list disciplines. In LIFO mode the freed blocks come back
// scattered, so the files' extent lists fragment as the system ages.
func BenchmarkChurn(b *testing.B) {
	for _, mode := range []struct {
		name  string
		order Order
	}{
		{"lifo", LIFO},
		{"address-ordered", AddressOrdered},
	} {
		b.Run(mode.name, func(b *testing.B) {
			p, err := New(Config{TotalUnits: 1 << 20, BlockUnits: 4, Order: mode.order})
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
		})
	}
}
