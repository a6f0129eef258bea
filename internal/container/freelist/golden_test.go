package freelist

import (
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"rofs/internal/alloc/alloctest"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current implementation")

// TestScriptGolden replays a seeded Insert/Alloc script — first-, best-
// and next-fit searches, interior allocations, frees that coalesce — and
// compares every answer and the map's shape after each operation with a
// recorded golden.
func TestScriptGolden(t *testing.T) {
	const total = 20333
	rng := rand.New(rand.NewSource(8))
	fl := New()
	fl.Insert(0, total)
	var used []Run
	var b strings.Builder
	for i := 0; i < 4000; i++ {
		if r := rng.Intn(10); r < 6 || len(used) == 0 {
			n := rng.Int63n(300) + 1
			var run Run
			var ok bool
			switch rng.Intn(3) {
			case 0:
				run, ok = fl.FirstFit(n)
				b.WriteString("ff")
			case 1:
				run, ok = fl.BestFit(n)
				b.WriteString("bf")
			default:
				run, ok = fl.NextFit(n, rng.Int63n(total))
				b.WriteString("nf")
			}
			fmt.Fprintf(&b, " %d", n)
			if ok {
				addr := run.Addr + rng.Int63n(run.Len-n+1)
				fl.Alloc(addr, n)
				used = append(used, Run{addr, n})
				fmt.Fprintf(&b, " %d+%d @%d", run.Addr, run.Len, addr)
			} else {
				b.WriteString(" none")
			}
		} else {
			k := rng.Intn(len(used))
			r := used[k]
			used[k] = used[len(used)-1]
			used = used[:len(used)-1]
			fl.Insert(r.Addr, r.Len)
			fmt.Fprintf(&b, "in %d+%d", r.Addr, r.Len)
		}
		fmt.Fprintf(&b, " | runs %d free %d max %d\n", fl.Runs(), fl.FreeUnits(), fl.MaxRun())
	}
	fl.Ascend(func(r Run) bool {
		fmt.Fprintf(&b, "%d+%d\n", r.Addr, r.Len)
		return true
	})
	fmt.Fprintf(&b, "coalesces %d\n", fl.Coalesces())
	alloctest.CheckGolden(t, filepath.Join("testdata", "script.golden"), b.String(), *update)
}
