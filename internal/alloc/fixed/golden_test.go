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
func TestDifferentialGolden(t *testing.T) {
	p, err := New(Config{TotalUnits: 20333, BlockUnits: 4, Order: AddressOrdered})
	if err != nil {
		t.Fatal(err)
	}
	got := alloctest.Script(p, 4, 2500, 200, func(f alloc.File) []string {
		var out []string
		for _, b := range f.(*file).blocks {
			out = append(out, fmt.Sprint(b))
		}
		return out
	})
	alloctest.CheckGolden(t, filepath.Join("testdata", "address-ordered.golden"), got, *update)
}
