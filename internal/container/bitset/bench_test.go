package bitset

import (
	"math/rand"
	"testing"
)

var sink int64

// BenchmarkNext measures the ordered scan the block allocators run on
// every search: a 1M-index set (a 1G volume of 1K blocks) holding 1%
// of its indices, queried from random starting points.
func BenchmarkNext(b *testing.B) {
	const n = 1 << 20
	s := New(n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n/100; i++ {
		s.Add(rng.Int63n(n))
	}
	froms := make([]int64, 1024)
	for i := range froms {
		froms[i] = rng.Int63n(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, _ := s.Next(froms[i&1023])
		sink += next
	}
}
