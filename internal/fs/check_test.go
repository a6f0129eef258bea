package fs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/units"
)

// badFile is a corrupt alloc.File for failure-injection: it lets tests
// hand the file system impossible extent lists.
type badFile struct {
	extents   []alloc.Extent
	allocated int64
}

func (b *badFile) Extents() []alloc.Extent { return b.extents }
func (b *badFile) AllocatedUnits() int64   { return b.allocated }
func (b *badFile) Grow(int64) error        { return alloc.ErrNoSpace }
func (b *badFile) TruncateTo(int64)        {}

func TestCheckCleanSystem(t *testing.T) {
	fsys := newFS(t, 10000, 4)
	rng := rand.New(rand.NewSource(4))
	var files []*File
	for i := 0; i < 50; i++ {
		f := fsys.Create(0)
		if err := f.Allocate(rng.Int63n(50*units.KB) + 1); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	for i := 0; i < 200; i++ {
		f := files[rng.Intn(len(files))]
		switch rng.Intn(3) {
		case 0:
			f.Allocate(rng.Int63n(8*units.KB) + 1)
		case 1:
			f.Truncate(rng.Int63n(8*units.KB) + 1)
		case 2:
			f.Recreate()
			f.Allocate(rng.Int63n(20*units.KB) + 1)
		}
	}
	if err := fsys.Check(); err != nil {
		t.Fatalf("clean system failed fsck: %v", err)
	}
}

// corrupt creates a file with a real allocation the size of extents, then
// swaps in a corrupt allocation claiming extents instead. The real blocks
// stay allocated in the policy, so the space accounting still balances
// and only the extent check under test can fire.
func corrupt(t *testing.T, fsys *FileSystem, extents []alloc.Extent) *File {
	t.Helper()
	f := fsys.Create(0)
	n := alloc.Sum(extents)
	if err := f.Allocate(n * fsys.UnitBytes()); err != nil {
		t.Fatal(err)
	}
	if f.fa.AllocatedUnits() != n {
		t.Fatalf("real allocation %d units, want %d", f.fa.AllocatedUnits(), n)
	}
	f.fa = &badFile{extents: extents, allocated: n}
	return f
}

// wantCheckError runs fsck and requires an error naming every fragment.
func wantCheckError(t *testing.T, fsys *FileSystem, fragments ...string) {
	t.Helper()
	err := fsys.Check()
	if err == nil {
		t.Fatalf("fsck passed, want an error naming %q", fragments)
	}
	for _, frag := range fragments {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("fsck error %q does not name %q", err, frag)
		}
	}
}

func TestCheckDetectsOverlap(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	a := fsys.Create(0)
	a.Allocate(8 * units.KB)
	// A second file whose extent lies inside a's allocation, with the
	// space accounting balanced: only the cross-file overlap check can
	// catch it.
	corrupt(t, fsys, []alloc.Extent{{Start: 2, Len: 4}})
	wantCheckError(t, fsys, "files", "overlap")
}

func TestCheckDetectsIntraFileOverlap(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := corrupt(t, fsys, []alloc.Extent{{Start: 500, Len: 4}, {Start: 502, Len: 4}})
	wantCheckError(t, fsys, fmt.Sprintf("file %d:", f.id), "overlap")
}

func TestCheckDetectsExtentOutsideVolume(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := corrupt(t, fsys, []alloc.Extent{{Start: 998, Len: 4}})
	wantCheckError(t, fsys, fmt.Sprintf("file %d:", f.id), "outside")
}

func TestCheckDetectsZeroLengthExtent(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := corrupt(t, fsys, []alloc.Extent{{Start: 500, Len: 0}, {Start: 504, Len: 4}})
	wantCheckError(t, fsys, fmt.Sprintf("file %d:", f.id), "non-positive")
}

// TestCheckAllocatesOneBuffer bounds fsck's garbage: a pass over many
// files allocates its occupancy bitmap and nothing else.
func TestCheckAllocatesOneBuffer(t *testing.T) {
	fsys := newFS(t, 100000, 4)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		if err := fsys.Create(0).Allocate(rng.Int63n(100*units.KB) + 1); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if allocs := testing.AllocsPerRun(20, func() { err = fsys.Check() }); allocs > 1 {
		t.Fatalf("Check allocated %.1f times per call, want at most one buffer", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckDetectsLengthBeyondAllocation(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(0)
	f.Allocate(4 * units.KB)
	f.length = 100 * units.KB // corrupt directly
	defer func() { f.length = 4 * units.KB }()
	if err := fsys.Check(); err == nil {
		t.Fatal("fsck missed length > allocation")
	}
}

func TestCheckDetectsAccountingDrift(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(0)
	f.Allocate(4 * units.KB)
	fsys.usedBytes += 12345 // corrupt the counter
	if err := fsys.Check(); err == nil {
		t.Fatal("fsck missed used-bytes drift")
	}
	fsys.usedBytes -= 12345
	if err := fsys.Check(); err != nil {
		t.Fatalf("repaired system still failing: %v", err)
	}
}

func TestCheckDetectsBadExtentSum(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(0)
	f.fa = &badFile{
		extents:   []alloc.Extent{{Start: 500, Len: 4}},
		allocated: 8, // lies about its total
	}
	wantCheckError(t, fsys, fmt.Sprintf("file %d:", f.id), "extents sum")
}

// TestCheckErrorIsDeterministic: with two corrupt files, every fsck pass
// reports the same problem — the one in the lower-id file, since the walk
// follows the file table in id order.
func TestCheckErrorIsDeterministic(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	for i := 0; i < 20; i++ {
		if err := fsys.Create(0).Allocate(4 * units.KB); err != nil {
			t.Fatal(err)
		}
	}
	first := corrupt(t, fsys, []alloc.Extent{{Start: 998, Len: 4}})
	for i := 0; i < 20; i++ {
		if err := fsys.Create(0).Allocate(4 * units.KB); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(t, fsys, []alloc.Extent{{Start: 999, Len: 4}})
	var want string
	for i := 0; i < 50; i++ {
		err := fsys.Check()
		if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("fs: file %d:", first.id)) {
			t.Fatalf("call %d: fsck error %v, want one naming file %d", i, err, first.id)
		}
		if i == 0 {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("call %d: fsck error %q, first call said %q", i, err, want)
		}
	}
}

func TestMetaModel(t *testing.T) {
	m := DefaultMetaModel()
	// Few descriptors: inode only.
	if got := m.FileMetaBytes(3); got != m.InodeBytes {
		t.Fatalf("FileMetaBytes(3) = %d, want inode only", got)
	}
	if got := m.FileMetaBytes(12); got != m.InodeBytes {
		t.Fatalf("FileMetaBytes(12) = %d, want inode only", got)
	}
	// One descriptor over the direct slots: one indirect block.
	if got := m.FileMetaBytes(13); got != m.InodeBytes+m.IndirectBlockBytes {
		t.Fatalf("FileMetaBytes(13) = %d", got)
	}
	// A 210M fixed-16K file: 13440 pointers, ~39 indirect 4K blocks.
	n := int64(13440)
	want := m.InodeBytes + units.CeilDiv((n-12)*m.DescriptorBytes, m.IndirectBlockBytes)*m.IndirectBlockBytes
	if got := m.FileMetaBytes(n); got != want {
		t.Fatalf("FileMetaBytes(%d) = %d, want %d", n, got, want)
	}
}

func TestMetaStatsComparesPolicies(t *testing.T) {
	// The same 1M of files costs far more metadata under 4K fixed blocks
	// than under a policy reporting few descriptors.
	fixedFS := newFS(t, 10000, 4)
	for i := 0; i < 10; i++ {
		f := fixedFS.Create(0)
		f.Allocate(100 * units.KB) // 25 blocks each: indirect overflow
	}
	stats := fixedFS.MetaStats(DefaultMetaModel())
	if stats.Files != 10 || stats.Descriptors != 250 {
		t.Fatalf("fixed meta stats: %+v", stats)
	}
	if stats.MetaBytes <= 10*DefaultMetaModel().InodeBytes {
		t.Fatal("fixed-block files should overflow into indirect blocks")
	}
	if stats.MetaPctOfData <= 0 {
		t.Fatal("MetaPctOfData not computed")
	}
}
