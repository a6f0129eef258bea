// Package alloctest holds helpers shared by the allocation policies'
// tests.
package alloctest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rofs/internal/alloc"
)

// CheckGolden compares got with the golden file at path, reporting the
// first differing line. With update set it rewrites the file instead.
func CheckGolden(t testing.TB, path, got string, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}

// Script replays a seeded grow/truncate/delete script against p over a
// fixed set of file slots and returns its transcript: one line per
// operation, each Grow line naming the blocks it added, and a final line
// with the policy's free space and operation counts. blocks lists a
// file's blocks in allocation order. Replaying the same script against two
// implementations of one policy proves they place blocks identically.
func Script(p alloc.Policy, seed int64, ops int, maxGrow int64, blocks func(alloc.File) []string) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	files := make([]alloc.File, 40)
	for i := 0; i < ops; i++ {
		k := rng.Intn(len(files))
		if files[k] == nil {
			files[k] = p.NewFile(0)
		}
		f := files[k]
		switch r := rng.Intn(10); {
		case r < 6:
			n := rng.Int63n(maxGrow) + 1
			before := len(blocks(f))
			fmt.Fprintf(&b, "g %d %d", k, n)
			if err := f.Grow(n); err != nil {
				fmt.Fprintf(&b, " %v", err)
			} else {
				b.WriteString(" " + strings.Join(blocks(f)[before:], " "))
			}
		case r < 9:
			target := rng.Int63n(f.AllocatedUnits() + 1)
			f.TruncateTo(target)
			fmt.Fprintf(&b, "t %d %d -> %d", k, target, f.AllocatedUnits())
		default:
			f.TruncateTo(0)
			files[k] = nil
			fmt.Fprintf(&b, "d %d", k)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "free %d", p.FreeUnits())
	if r, ok := p.(alloc.StatsReporter); ok {
		fmt.Fprintf(&b, " ops %+v", r.OpStats())
	}
	if r, ok := p.(alloc.FreeSpaceReporter); ok {
		fmt.Fprintf(&b, " space %+v", r.FreeSpaceStats())
	}
	b.WriteByte('\n')
	return b.String()
}
