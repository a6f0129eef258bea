package buddy

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/alloc/alloctest"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current implementation")

// TestDifferentialGolden replays a seeded grow/truncate/delete script and
// compares every block handed out with a golden recorded from the
// red-black-tree free sets this package used before its bitmaps. The
// space is not a power of two, so the initial free set is a staircase of
// maximal blocks and some buddies fall outside the volume.
func TestDifferentialGolden(t *testing.T) {
	p, err := New(Config{TotalUnits: 20333})
	if err != nil {
		t.Fatal(err)
	}
	got := alloctest.Script(p, 3, 2500, 300, func(f alloc.File) []string {
		var out []string
		for _, b := range f.(*file).blocks {
			out = append(out, fmt.Sprintf("%d:%d", b.addr, b.order))
		}
		return out
	})
	alloctest.CheckGolden(t, filepath.Join("testdata", "nonpow2.golden"), got, *update)
}
