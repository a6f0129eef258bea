package fs

import (
	"fmt"
	"math/bits"

	"rofs/internal/alloc"
)

// Check is the simulator's fsck: it cross-validates the file system
// against its allocation policy and reports the first inconsistency —
// extents of non-positive length or outside the volume, overlapping
// allocations within or between files, extent sums disagreeing with the
// file's allocation, length exceeding allocation, used-bytes drift, or the
// policy's free count disagreeing with the sum of file allocations. The
// experiment harness and the failure-injection tests run it after aging
// runs to catch allocator bookkeeping bugs that individual operations
// would not surface.
//
// It makes one pass over the files, marking every extent into an
// occupancy bitmap with one bit per disk unit: a bit already set is an
// overlap, whichever file set it first.
func (fs *FileSystem) Check() error {
	total := fs.policy.TotalUnits()
	occupied := make([]uint64, (total+63)/64)
	var allocated, used int64
	for id, f := range fs.files {
		ext := f.fa.Extents()
		var sum int64
		for i, e := range ext {
			if e.Len <= 0 {
				return fmt.Errorf("fs: file %d: extent %d has non-positive length %d", id, i, e.Len)
			}
			if e.Start < 0 || e.Start > total || e.Len > total-e.Start {
				return fmt.Errorf("fs: file %d: extent %d %v outside [0,%d)", id, i, e, total)
			}
			if at, ok := mark(occupied, e.Start, e.End()); !ok {
				return fs.overlapError(id, ext, i, at)
			}
			sum += e.Len
		}
		if sum != f.fa.AllocatedUnits() {
			return fmt.Errorf("fs: file %d: extents sum to %d units but AllocatedUnits is %d",
				id, sum, f.fa.AllocatedUnits())
		}
		if f.length > f.AllocatedBytes() {
			return fmt.Errorf("fs: file %d: length %d exceeds allocation %d",
				id, f.length, f.AllocatedBytes())
		}
		if f.length < 0 {
			return fmt.Errorf("fs: file %d: negative length %d", id, f.length)
		}
		allocated += sum
		used += f.length
	}
	if used != fs.usedBytes {
		return fmt.Errorf("fs: used-bytes accounting drifted: files sum to %d, counter says %d",
			used, fs.usedBytes)
	}
	if free := fs.policy.FreeUnits(); allocated+free != total {
		return fmt.Errorf("fs: space leak: %d allocated + %d free != %d total",
			allocated, free, total)
	}
	return nil
}

// mark sets the bits of units [start, end) a word at a time. If any was
// already set it stops and returns the first such unit and false.
func mark(occupied []uint64, start, end int64) (int64, bool) {
	for start < end {
		w, lo := start>>6, uint(start&63)
		mask := ^uint64(0) << lo
		if n := end - start; n < int64(64-lo) {
			mask &= 1<<(lo+uint(n)) - 1
		}
		if clash := occupied[w] & mask; clash != 0 {
			return w<<6 + int64(bits.TrailingZeros64(clash)), false
		}
		occupied[w] |= mask
		start = (w + 1) << 6
	}
	return 0, true
}

// overlapError names the extents that claim unit at: extent i of file id
// and whichever earlier extent, of this file or another, marked it first.
// Only the error path pays for the search.
func (fs *FileSystem) overlapError(id int64, ext []alloc.Extent, i int, at int64) error {
	contains := func(e alloc.Extent) bool { return e.Start <= at && at < e.End() }
	for j, e := range ext[:i] {
		if contains(e) {
			return fmt.Errorf("fs: file %d: extents %d and %d overlap at unit %d", id, j, i, at)
		}
	}
	for other, f := range fs.files {
		if other == id {
			continue
		}
		for _, e := range f.fa.Extents() {
			if contains(e) {
				return fmt.Errorf("fs: files %d and %d overlap at unit %d", other, id, at)
			}
		}
	}
	return fmt.Errorf("fs: file %d: extent %d %v overlaps at unit %d", id, i, ext[i], at)
}
