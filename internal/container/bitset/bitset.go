// Package bitset implements a fixed-size two-level bitmap over the
// integers [0, n): one bit per index, plus a summary bit per 64-bit word
// recording whether that word holds any set bit. Add, Remove and Contains
// are O(1); Next reads the summary to skip empty words, so an ordered scan
// over an empty stretch costs one summary word per 4096 indices.
//
// The block allocators keep one Set per block size, indexed by aligned
// block number (address / size): the paper's bitmap of free blocks (§4.2),
// searched in address order.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a set of integers in [0, n). Create with New.
type Set struct {
	words   []uint64 // bit i%64 of words[i/64] is index i
	summary []uint64 // bit w%64 of summary[w/64] is words[w] != 0
	n       int64
	count   int
}

// New returns an empty set over [0, n).
func New(n int64) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	nw := (n + 63) >> 6
	return &Set{
		words:   make([]uint64, nw),
		summary: make([]uint64, (nw+63)>>6),
		n:       n,
	}
}

// Len returns the number of indices in the set.
func (s *Set) Len() int { return s.count }

// Add inserts i, which must lie in [0, n). Adding a present index is a
// no-op.
func (s *Set) Add(i int64) {
	if uint64(i) >= uint64(s.n) {
		panic(fmt.Sprintf("bitset: index %d outside [0,%d)", i, s.n))
	}
	w := i >> 6
	bit := uint64(1) << (i & 63)
	if s.words[w]&bit != 0 {
		return
	}
	if s.words[w] == 0 {
		s.summary[w>>6] |= 1 << (w & 63)
	}
	s.words[w] |= bit
	s.count++
}

// Remove deletes i and reports whether it was present. Indices outside
// [0, n) are never present.
func (s *Set) Remove(i int64) bool {
	if uint64(i) >= uint64(s.n) {
		return false
	}
	w := i >> 6
	bit := uint64(1) << (i & 63)
	if s.words[w]&bit == 0 {
		return false
	}
	s.words[w] &^= bit
	if s.words[w] == 0 {
		s.summary[w>>6] &^= 1 << (w & 63)
	}
	s.count--
	return true
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int64) bool {
	return uint64(i) < uint64(s.n) && s.words[i>>6]&(1<<(i&63)) != 0
}

// Next returns the smallest index >= from in the set, and false when
// there is none.
func (s *Set) Next(from int64) (int64, bool) {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return 0, false
	}
	w := from >> 6
	if m := s.words[w] >> (from & 63); m != 0 {
		return from + int64(bits.TrailingZeros64(m)), true
	}
	// The rest of from's word is empty: find the next non-empty word
	// through the summary.
	w++
	sw := w >> 6
	if sw >= int64(len(s.summary)) {
		return 0, false
	}
	m := s.summary[sw] &^ (1<<(w&63) - 1)
	for m == 0 {
		sw++
		if sw == int64(len(s.summary)) {
			return 0, false
		}
		m = s.summary[sw]
	}
	w = sw<<6 + int64(bits.TrailingZeros64(m))
	return w<<6 + int64(bits.TrailingZeros64(s.words[w])), true
}
