package rbuddy

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/alloc/alloctest"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current implementation")

// TestDifferentialGolden replays seeded grow/truncate/delete scripts and
// compares every block handed out with goldens recorded from the
// red-black-tree free sets this package used before its bitmaps: the
// search order must not have changed. TotalUnits is not a multiple of the
// largest block, so the unusable tail and the short last region are
// exercised too.
func TestDifferentialGolden(t *testing.T) {
	const total = 20333
	sizes := []int64{1, 8, 64, 512}
	cases := []struct {
		name string
		cfg  Config
		seed int64
	}{
		{"clustered", Config{TotalUnits: total, SizesUnits: sizes, GrowFactor: 1, Clustered: true, RegionUnits: 2048}, 1},
		{"unclustered", Config{TotalUnits: total, SizesUnits: sizes, GrowFactor: 1.5}, 2},
	}
	blocks := func(f alloc.File) []string {
		var out []string
		for _, b := range f.(*file).blocks {
			out = append(out, fmt.Sprintf("%d:%d", b.addr, b.class))
		}
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := alloctest.Script(p, tc.seed, 2500, 300, blocks)
			got += fmt.Sprintf("classes %v\n", p.FreeBlockCounts())
			alloctest.CheckGolden(t, filepath.Join("testdata", tc.name+".golden"), got, *update)
		})
	}
}
