package slab

import "testing"

func TestTakeIsZeroedAndDisjoint(t *testing.T) {
	var s Slab[int64]
	var all [][]int64
	for i := 0; i < 3*chunkRecords; i++ {
		got := s.Take(3)
		if len(got) != 3 || cap(got) != 3 {
			t.Fatalf("Take(3) len %d cap %d", len(got), cap(got))
		}
		for _, v := range got {
			if v != 0 {
				t.Fatalf("Take %d returned a non-zero value", i)
			}
		}
		got[0], got[1], got[2] = int64(i), int64(i), int64(i)
		all = append(all, got)
	}
	for i, got := range all {
		for _, v := range got {
			if v != int64(i) {
				t.Fatalf("values of Take %d overwritten: %v", i, got)
			}
		}
	}
}

func TestTakeAllocatesPerChunk(t *testing.T) {
	var s Slab[[4]int64]
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < chunkRecords; i++ {
			s.Take(1)
		}
	})
	if allocs > 1 {
		t.Fatalf("%v allocations per %d Takes, want at most 1", allocs, chunkRecords)
	}
}
