package buddy

import (
	"math/rand"
	"testing"

	"rofs/internal/alloc"
)

func TestCompactSizes(t *testing.T) {
	cases := []struct {
		used, min, max int64
		pieces         int
		want           []int64
	}{
		{5, 1, 1024, 3, []int64{4, 1}},
		{8, 1, 1024, 3, []int64{8}},
		{100, 1, 1024, 3, []int64{64, 32, 4}},
		{100, 1, 1024, 2, []int64{64, 64}}, // 32+4 merge up
		{100, 1, 1024, 1, []int64{128}},    // everything merges
		{3000, 1, 1024, 3, []int64{1024, 1024, 1024}},
		{2500, 1, 1024, 3, []int64{1024, 1024, 512}},
		{7, 4, 1024, 3, []int64{8}}, // min extent rounds up
		{1, 1, 1024, 3, []int64{1}},
	}
	for _, c := range cases {
		got := compactSizes(c.used, c.min, c.max, c.pieces)
		if len(got) != len(c.want) {
			t.Errorf("compactSizes(%d,%d,%d,%d) = %v, want %v",
				c.used, c.min, c.max, c.pieces, got, c.want)
			continue
		}
		var sum int64
		for i := range got {
			sum += got[i]
			if got[i] != c.want[i] {
				t.Errorf("compactSizes(%d,...) = %v, want %v", c.used, got, c.want)
				break
			}
		}
		if sum < c.used {
			t.Errorf("compactSizes(%d,...) covers only %d", c.used, sum)
		}
	}
}

func TestCompactTightensDoubledFile(t *testing.T) {
	p := newPolicy(t, 1<<16)
	f := p.NewFile(0).(*file)
	// Doubling growth for a 70-unit file: 1+1+2+4+8+16+32+64 = 128 units.
	if err := f.Grow(70); err != nil {
		t.Fatal(err)
	}
	if f.AllocatedUnits() != 128 {
		t.Fatalf("allocated %d before compaction", f.AllocatedUnits())
	}
	if !f.Compact(70, 3) {
		t.Fatal("compaction failed on a mostly free disk")
	}
	// Target: 64+4+2 = 70 exactly.
	if f.AllocatedUnits() != 70 {
		t.Fatalf("allocated %d after compaction, want 70", f.AllocatedUnits())
	}
	if len(f.blocks) > 3 {
		t.Fatalf("%d blocks after compaction", len(f.blocks))
	}
	if err := alloc.Validate(f.Extents(), p.TotalUnits()); err != nil {
		t.Fatal(err)
	}
	if p.FreeUnits() != 1<<16-70 {
		t.Fatalf("free = %d", p.FreeUnits())
	}
}

func TestCompactNoopWhenAlreadyTight(t *testing.T) {
	p := newPolicy(t, 1<<16)
	f := p.NewFile(0).(*file)
	if err := f.Grow(64); err != nil { // ends as exactly covering blocks
		t.Fatal(err)
	}
	f.Compact(64, 3)
	before := append([]block(nil), f.blocks...)
	if !f.Compact(64, 3) {
		t.Fatal("idempotent compaction failed")
	}
	for i := range before {
		if f.blocks[i] != before[i] {
			t.Fatal("no-op compaction moved blocks")
		}
	}
}

func TestCompactZeroReleasesAll(t *testing.T) {
	p := newPolicy(t, 1024)
	f := p.NewFile(0).(*file)
	f.Grow(100)
	if !f.Compact(0, 3) {
		t.Fatal("Compact(0) failed")
	}
	if f.AllocatedUnits() != 0 || p.FreeUnits() != 1024 {
		t.Fatal("Compact(0) did not release everything")
	}
}

func TestCompactReusesOwnCoalescedSpace(t *testing.T) {
	// A file owning two buddy 1-blocks compacts into the 2-block its own
	// freed space coalesces into, even on an otherwise full disk.
	p := newPolicy(t, 4)
	a := p.NewFile(0).(*file)
	b := p.NewFile(0).(*file)
	if err := a.Grow(2); err != nil { // units 0,1 (buddies)
		t.Fatal(err)
	}
	if err := b.Grow(2); err != nil { // units 2,3
		t.Fatal(err)
	}
	if !a.Compact(2, 1) {
		t.Fatal("self-space compaction failed")
	}
	if a.AllocatedUnits() != 2 || len(a.blocks) != 1 || a.blocks[0].order != 1 {
		t.Fatalf("after compact: %d units in %d blocks", a.AllocatedUnits(), len(a.blocks))
	}
}

func TestCompactRollsBackWhenTargetImpossible(t *testing.T) {
	// Build a file whose two 1-blocks are NOT buddies (units 0 and 3),
	// with units 1 and 2 owned by other files: the 2-block target cannot
	// exist, so Compact must restore the original layout and return false.
	p := newPolicy(t, 4)
	a := p.NewFile(0).(*file) // unit 0
	b := p.NewFile(0).(*file) // unit 1
	c := p.NewFile(0).(*file) // unit 2
	d := p.NewFile(0).(*file) // unit 3
	for _, f := range []*file{a, b, c, d} {
		if err := f.Grow(1); err != nil {
			t.Fatal(err)
		}
	}
	d.TruncateTo(0) // unit 3 free
	if err := a.Grow(1); err != nil {
		t.Fatal(err) // doubling: one more 1-block -> unit 3
	}
	if a.blocks[1].addr != 3 {
		t.Fatalf("setup: second block at %d, want 3", a.blocks[1].addr)
	}
	free0 := p.FreeUnits()
	if a.Compact(2, 1) {
		t.Fatal("impossible compaction reported success")
	}
	if a.AllocatedUnits() != 2 || len(a.blocks) != 2 {
		t.Fatalf("rollback lost blocks: %d units in %d blocks",
			a.AllocatedUnits(), len(a.blocks))
	}
	if p.FreeUnits() != free0 {
		t.Fatalf("rollback leaked space: %d -> %d", free0, p.FreeUnits())
	}
	if err := alloc.Validate(a.Extents(), p.TotalUnits()); err != nil {
		t.Fatal(err)
	}
}

func TestCompactRandomizedConservation(t *testing.T) {
	const total = 1 << 14
	p := newPolicy(t, total)
	rng := rand.New(rand.NewSource(77))
	type entry struct {
		f    *file
		used int64
	}
	var files []entry
	for i := 0; i < 200; i++ {
		f := p.NewFile(0).(*file)
		used := rng.Int63n(200) + 1
		if err := f.Grow(used); err != nil {
			break
		}
		files = append(files, entry{f, used})
	}
	for step := 0; step < 500; step++ {
		e := files[rng.Intn(len(files))]
		e.f.Compact(e.used, rng.Intn(4)+1)
		if step%50 == 0 {
			var usedTotal int64
			var all []alloc.Extent
			for _, e := range files {
				usedTotal += e.f.AllocatedUnits()
				all = append(all, e.f.Extents()...)
			}
			if usedTotal+p.FreeUnits() != total {
				t.Fatalf("step %d: conservation violated", step)
			}
			if err := alloc.Validate(all, total); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for _, e := range files {
				if e.f.AllocatedUnits() < e.used {
					t.Fatalf("step %d: compaction under-allocated %d < %d",
						step, e.f.AllocatedUnits(), e.used)
				}
			}
		}
	}
}
