package fixed

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/alloc/alloctest"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current implementation")

// TestDifferentialGolden replays a seeded grow/truncate/delete script in
// AddressOrdered mode and compares every block handed out with a golden
// recorded from the red-black tree that mode used before its bitmap.
// Blocks are derived from each file's extents, the only block list a file
// keeps.
func TestDifferentialGolden(t *testing.T) {
	p, err := New(Config{TotalUnits: 20333, BlockUnits: 4, Order: AddressOrdered})
	if err != nil {
		t.Fatal(err)
	}
	got := alloctest.Script(p, 4, 2500, 200, blockIndices)
	alloctest.CheckGolden(t, filepath.Join("testdata", "address-ordered.golden"), got, *update)
}

// TestLIFOGolden replays a seeded grow/truncate/delete script in LIFO mode
// — the mode of the paper's fixed-block cells — and compares every block
// handed out with a recorded golden. The space is small enough that
// grows fail, so the order in which a failed Grow returns its blocks to
// the stack is covered too.
func TestLIFOGolden(t *testing.T) {
	p, err := New(Config{TotalUnits: 20333, BlockUnits: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := alloctest.Script(p, 5, 2500, 400, blockIndices)
	alloctest.CheckGolden(t, filepath.Join("testdata", "lifo.golden"), got, *update)
}

// blockIndices lists f's blocks in logical order: its extents cut into
// BlockUnits pieces.
func blockIndices(f alloc.File) []string {
	bu := f.(*file).p.cfg.BlockUnits
	var out []string
	for _, e := range f.Extents() {
		for u := e.Start; u < e.End(); u += bu {
			out = append(out, fmt.Sprint(u/bu))
		}
	}
	return out
}
