// Package slab carves many small, long-lived values out of shared chunks,
// so building hundreds of thousands of per-file records costs one heap
// allocation per chunk instead of one per record.
package slab

// chunkRecords is how many Take(n) calls one chunk serves.
const chunkRecords = 256

// Slab hands out zeroed values of T. The zero value is ready to use. A
// chunk stays reachable while any value carved from it is, so a slab
// suits records that live about as long as their neighbours.
type Slab[T any] struct {
	free []T
}

// Take returns n zeroed values. The slice's capacity is n, so appending
// to it never reaches a neighbour's values.
func (s *Slab[T]) Take(n int) []T {
	if len(s.free) < n {
		s.free = make([]T, chunkRecords*n)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}
