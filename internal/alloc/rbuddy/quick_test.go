package rbuddy

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"rofs/internal/alloc"
	"rofs/internal/units"
)

// TestQuickRBuddyInvariants drives the restricted buddy allocator with
// arbitrary grow/truncate scripts via testing/quick and checks, after
// every operation: space conservation, extent validity, that every block
// is one of the configured sizes, and that blocks are size-aligned — for
// both a clustered grow-factor-1 configuration and an unclustered
// fractional one.
func TestQuickRBuddyInvariants(t *testing.T) {
	const total = 1 << 12
	configs := []Config{
		{TotalUnits: total, SizesUnits: []int64{1, 8, 64}, GrowFactor: 1, Clustered: true, RegionUnits: 512},
		{TotalUnits: total, SizesUnits: []int64{1, 8, 64, 512}, GrowFactor: 1.5},
	}
	for _, cfg := range configs {
		prop := func(script []uint16) bool {
			p, err := New(cfg)
			if err != nil {
				return false
			}
			var files []*file
			for _, op := range script {
				arg := int64(op&0x3FF) + 1
				switch {
				case op&0x8000 == 0 || len(files) == 0: // grow (new or existing)
					var f *file
					if len(files) > 0 && op&0x4000 != 0 {
						f = files[int(op>>8)%len(files)]
					} else {
						f = p.NewFile(0).(*file)
						files = append(files, f)
					}
					if err := f.Grow(arg); err != nil && err != alloc.ErrNoSpace {
						return false
					}
				default: // truncate
					f := files[int(op>>8)%len(files)]
					f.TruncateTo(arg % (f.AllocatedUnits() + 1))
				}
				var used int64
				for _, f := range files {
					used += f.AllocatedUnits()
					for _, b := range f.blocks() {
						size := p.sizes[b.class]
						if !units.IsAligned(b.addr, size) {
							return false
						}
					}
				}
				if used+p.FreeUnits() != total {
					return false
				}
			}
			var all []alloc.Extent
			for _, f := range files {
				all = append(all, f.Extents()...)
			}
			return alloc.Validate(all, total) == nil
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}

// TestQuickGrowPolicyMonotone: under arbitrary unit counts, the grow
// policy's size class never moves down and never skips past the
// configured ladder.
func TestQuickGrowPolicyMonotone(t *testing.T) {
	sizes := []int64{1, 8, 64, 512}
	prop := func(raw [4]uint16, level uint8) bool {
		uac := make([]int64, len(sizes))
		for i := range uac {
			uac[i] = int64(raw[i])
		}
		start := int(level) % len(sizes)
		next := nextClass(start, uac, sizes, 1)
		return next >= start && next < len(sizes)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// block is one of a file's blocks, as derived from its extents.
type block struct {
	addr  int64
	class int
}

// deriveBlocks recovers f's blocks, in logical order, from its extents and
// per-class unit counts by peeling them off the tail the way TruncateTo
// does: the last block is the tail of the last extent, of the highest
// class still holding units. It fails when the two disagree.
func deriveBlocks(f *file) ([]block, error) {
	left := slices.Clone(f.unitsAtClass)
	var out []block
	for i := len(f.extents) - 1; i >= 0; i-- {
		e := f.extents[i]
		for end := e.End(); end > e.Start; {
			c := len(left) - 1
			for c > 0 && left[c] == 0 {
				c--
			}
			size := f.p.sizes[c]
			if left[c] < size || end-size < e.Start {
				return nil, fmt.Errorf("extent %d %v: no class-%d block ends at %d", i, e, c, end)
			}
			left[c] -= size
			end -= size
			out = append(out, block{end, c})
		}
	}
	for c, u := range left {
		if u != 0 {
			return nil, fmt.Errorf("class %d holds %d units beyond the extents", c, u)
		}
	}
	slices.Reverse(out)
	return out, nil
}

// blocks is deriveBlocks for tests that expect a consistent file.
func (f *file) blocks() []block {
	bs, err := deriveBlocks(f)
	if err != nil {
		panic(err)
	}
	return bs
}

// TestQuickDerivedBlocks checks the representation rbuddy files rely on:
// after any grow/truncate script, the blocks derived from extents and
// unitsAtClass are consistent, have non-decreasing classes, are
// size-aligned and sum to AllocatedUnits; a Grow only appends blocks and
// a TruncateTo only removes a suffix of them, so a failed (rolled back)
// Grow leaves them exactly as they were.
func TestQuickDerivedBlocks(t *testing.T) {
	const total = 1 << 12
	configs := []Config{
		{TotalUnits: total, SizesUnits: []int64{1, 8, 64}, GrowFactor: 1, Clustered: true, RegionUnits: 512},
		{TotalUnits: total, SizesUnits: []int64{1, 8, 64, 512}, GrowFactor: 1.5},
		{TotalUnits: total - 3, SizesUnits: []int64{1, 4, 16, 256}, GrowFactor: 2},
	}
	for _, cfg := range configs {
		prop := func(script []uint16) bool {
			p, err := New(cfg)
			if err != nil {
				return false
			}
			var files []*file
			for _, op := range script {
				arg := int64(op&0x3FF) + 1
				var f *file
				if len(files) > 0 && op&0x4000 != 0 {
					f = files[int(op>>8)%len(files)]
				} else {
					f = p.NewFile(0).(*file)
					files = append(files, f)
				}
				before, err := deriveBlocks(f)
				if err != nil {
					t.Log(err)
					return false
				}
				grew, failed := false, false
				if op&0x8000 == 0 {
					err := f.Grow(arg)
					if err != nil && err != alloc.ErrNoSpace {
						return false
					}
					grew, failed = err == nil, err != nil
				} else {
					f.TruncateTo(arg % (f.AllocatedUnits() + 1))
				}
				after, err := deriveBlocks(f)
				if err != nil {
					t.Log(err)
					return false
				}
				shorter, longer := after, before
				if grew {
					shorter, longer = before, after
				}
				if len(shorter) > len(longer) || !slices.Equal(shorter, longer[:len(shorter)]) ||
					failed && len(after) != len(before) {
					t.Logf("blocks %v became %v", before, after)
					return false
				}
				var sum int64
				for i, b := range after {
					size := p.sizes[b.class]
					if !units.IsAligned(b.addr, size) || i > 0 && b.class < after[i-1].class {
						t.Logf("blocks %v: block %d misaligned or out of class order", after, i)
						return false
					}
					sum += size
				}
				if sum != f.AllocatedUnits() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}
