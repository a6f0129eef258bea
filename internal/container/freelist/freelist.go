// Package freelist tracks free runs of a linear address space — the
// free-space map behind the extent-based allocation policy (§4.3 of the
// paper), where an extent "may begin at any address" and freed extents
// are "coalesced with adjoining extents if they are free".
//
// The structure is an address-keyed treap augmented with the maximum run
// length per subtree, which makes exact first-fit (lowest address whose
// run is long enough) an O(log n) descent, plus a (length, address)
// red-black index for exact best-fit. All mutations keep both indexes and
// the aggregate free count in sync, and adjacent runs are coalesced
// eagerly so the map always holds maximal runs.
package freelist

import (
	"fmt"

	"rofs/internal/container/rbtree"
)

// Run is a free range [Addr, Addr+Len).
type Run struct {
	Addr, Len int64
}

type node struct {
	run         Run
	pri         uint64 // treap heap priority
	maxLen      int64  // max run length in this subtree
	left, right *node
}

func (n *node) fix() {
	n.maxLen = n.run.Len
	if n.left != nil && n.left.maxLen > n.maxLen {
		n.maxLen = n.left.maxLen
	}
	if n.right != nil && n.right.maxLen > n.maxLen {
		n.maxLen = n.right.maxLen
	}
}

// sizeKey orders the best-fit index by (length, address).
type sizeKey struct {
	len, addr int64
}

func sizeLess(a, b sizeKey) bool {
	if a.len != b.len {
		return a.len < b.len
	}
	return a.addr < b.addr
}

// T is a free-run map. Create with New.
type T struct {
	root      *node
	bySize    *rbtree.Tree[sizeKey, struct{}]
	free      int64
	count     int
	coalesces int64
	seed      uint64 // xorshift state for treap priorities
	// spare lists deleted treap nodes, linked through left, for add to
	// reuse.
	spare *node
}

// New returns an empty map. Priorities are drawn from a deterministic
// generator so runs are reproducible.
func New() *T {
	return &T{
		bySize: rbtree.New[sizeKey, struct{}](sizeLess),
		seed:   0x9E3779B97F4A7C15,
	}
}

func (t *T) nextPri() uint64 {
	// xorshift64*
	t.seed ^= t.seed >> 12
	t.seed ^= t.seed << 25
	t.seed ^= t.seed >> 27
	return t.seed * 0x2545F4914F6CDD1D
}

// FreeUnits returns the total free space.
func (t *T) FreeUnits() int64 { return t.free }

// Runs returns the number of (maximal) free runs.
func (t *T) Runs() int { return t.count }

// Coalesces returns how many times Insert merged a run with an adjacent
// free neighbour (each Insert can count up to two merges).
func (t *T) Coalesces() int64 { return t.coalesces }

// MaxRun returns the length of the longest free run (0 when empty).
func (t *T) MaxRun() int64 {
	if t.root == nil {
		return 0
	}
	return t.root.maxLen
}

// Insert adds the free run [addr, addr+len), coalescing with neighbours.
// It panics if the run overlaps existing free space — freeing space twice
// is always an allocator bug.
func (t *T) Insert(addr, length int64) {
	if length <= 0 || addr < 0 {
		panic(fmt.Sprintf("freelist: bad run [%d,+%d)", addr, length))
	}
	// Coalesce with the predecessor and successor runs if adjacent.
	if prev, ok := t.floor(addr); ok {
		if prev.Addr+prev.Len > addr {
			panic(fmt.Sprintf("freelist: run [%d,+%d) overlaps free [%d,+%d)",
				addr, length, prev.Addr, prev.Len))
		}
		if prev.Addr+prev.Len == addr {
			t.remove(prev)
			addr, length = prev.Addr, prev.Len+length
			t.coalesces++
		}
	}
	if next, ok := t.ceiling(addr + 1); ok {
		if next.Addr < addr+length {
			panic(fmt.Sprintf("freelist: run [%d,+%d) overlaps free [%d,+%d)",
				addr, length, next.Addr, next.Len))
		}
		if next.Addr == addr+length {
			t.remove(next)
			length += next.Len
			t.coalesces++
		}
	}
	t.add(Run{addr, length})
}

// Alloc carves [addr, addr+len) out of free space. The range must be
// entirely free (it may be the interior of a run); used by policies that
// choose a specific placement, e.g. contiguous-next-block allocation.
func (t *T) Alloc(addr, length int64) {
	run, ok := t.containing(addr)
	if !ok || run.Addr+run.Len < addr+length {
		panic(fmt.Sprintf("freelist: Alloc [%d,+%d) not inside a free run", addr, length))
	}
	t.remove(run)
	if pre := addr - run.Addr; pre > 0 {
		t.add(Run{run.Addr, pre})
	}
	if post := run.Addr + run.Len - (addr + length); post > 0 {
		t.add(Run{addr + length, post})
	}
}

// Contains reports whether [addr, addr+len) is entirely free.
func (t *T) Contains(addr, length int64) bool {
	run, ok := t.containing(addr)
	return ok && run.Addr+run.Len >= addr+length
}

// ContainingRun returns the free run covering addr, if any.
func (t *T) ContainingRun(addr int64) (Run, bool) { return t.containing(addr) }

// FirstFit returns the lowest-addressed free run with length >= n.
func (t *T) FirstFit(n int64) (Run, bool) {
	cur := t.root
	for cur != nil {
		if cur.left != nil && cur.left.maxLen >= n {
			cur = cur.left
			continue
		}
		if cur.run.Len >= n {
			return cur.run, true
		}
		cur = cur.right
	}
	return Run{}, false
}

// BestFit returns the shortest free run with length >= n (lowest address
// on ties).
func (t *T) BestFit(n int64) (Run, bool) {
	k, _, ok := t.bySize.Ceiling(sizeKey{len: n, addr: -1 << 62})
	if !ok {
		return Run{}, false
	}
	return Run{Addr: k.addr, Len: k.len}, true
}

// NextFit returns the lowest-addressed free run with length >= n at
// address >= from, wrapping to the lowest overall if none follows from.
func (t *T) NextFit(n, from int64) (Run, bool) {
	if r, ok := t.firstFitFrom(t.root, n, from); ok {
		return r, true
	}
	return t.FirstFit(n)
}

func (t *T) firstFitFrom(cur *node, n, from int64) (Run, bool) {
	for cur != nil {
		if cur.run.Addr < from {
			cur = cur.right
			continue
		}
		if cur.left != nil && cur.left.maxLen >= n {
			if r, ok := t.firstFitFrom(cur.left, n, from); ok {
				return r, true
			}
		}
		if cur.run.Len >= n {
			return cur.run, true
		}
		cur = cur.right
	}
	return Run{}, false
}

// Ascend visits runs in address order until fn returns false.
func (t *T) Ascend(fn func(Run) bool) {
	var walk func(*node) bool
	walk = func(n *node) bool {
		if n == nil {
			return true
		}
		return walk(n.left) && fn(n.run) && walk(n.right)
	}
	walk(t.root)
}

// --- internal treap machinery ---

func (t *T) add(r Run) {
	n := t.spare
	if n == nil {
		n = new(node)
	} else {
		t.spare = n.left
	}
	*n = node{run: r, pri: t.nextPri(), maxLen: r.Len}
	t.root = t.insertNode(t.root, n)
	t.bySize.Set(sizeKey{r.Len, r.Addr}, struct{}{})
	t.free += r.Len
	t.count++
}

func (t *T) remove(r Run) {
	t.root = t.deleteNode(t.root, r.Addr)
	if !t.bySize.Delete(sizeKey{r.Len, r.Addr}) {
		panic(fmt.Sprintf("freelist: size index missing run [%d,+%d)", r.Addr, r.Len))
	}
	t.free -= r.Len
	t.count--
}

func (t *T) insertNode(cur, n *node) *node {
	if cur == nil {
		return n
	}
	if n.run.Addr == cur.run.Addr {
		panic(fmt.Sprintf("freelist: duplicate run address %d", n.run.Addr))
	}
	if n.run.Addr < cur.run.Addr {
		cur.left = t.insertNode(cur.left, n)
		if cur.left.pri > cur.pri {
			cur = rotateRight(cur)
		}
	} else {
		cur.right = t.insertNode(cur.right, n)
		if cur.right.pri > cur.pri {
			cur = rotateLeft(cur)
		}
	}
	cur.fix()
	return cur
}

func (t *T) deleteNode(cur *node, addr int64) *node {
	if cur == nil {
		panic(fmt.Sprintf("freelist: delete of absent address %d", addr))
	}
	switch {
	case addr < cur.run.Addr:
		cur.left = t.deleteNode(cur.left, addr)
	case addr > cur.run.Addr:
		cur.right = t.deleteNode(cur.right, addr)
	default:
		if cur.left == nil || cur.right == nil {
			child := cur.left
			if child == nil {
				child = cur.right
			}
			*cur = node{left: t.spare}
			t.spare = cur
			return child
		}
		if cur.left.pri > cur.right.pri {
			cur = rotateRight(cur)
			cur.right = t.deleteNode(cur.right, addr)
		} else {
			cur = rotateLeft(cur)
			cur.left = t.deleteNode(cur.left, addr)
		}
	}
	cur.fix()
	return cur
}

func rotateRight(h *node) *node {
	x := h.left
	h.left = x.right
	x.right = h
	h.fix()
	x.fix()
	return x
}

func rotateLeft(h *node) *node {
	x := h.right
	h.right = x.left
	x.left = h
	h.fix()
	x.fix()
	return x
}

func (t *T) floor(addr int64) (Run, bool) {
	var best *node
	cur := t.root
	for cur != nil {
		if cur.run.Addr <= addr {
			best = cur
			cur = cur.right
		} else {
			cur = cur.left
		}
	}
	if best == nil {
		return Run{}, false
	}
	return best.run, true
}

func (t *T) ceiling(addr int64) (Run, bool) {
	var best *node
	cur := t.root
	for cur != nil {
		if cur.run.Addr >= addr {
			best = cur
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	if best == nil {
		return Run{}, false
	}
	return best.run, true
}

// containing returns the run that covers addr, if any.
func (t *T) containing(addr int64) (Run, bool) {
	r, ok := t.floor(addr)
	if !ok || r.Addr+r.Len <= addr {
		return Run{}, false
	}
	return r, true
}
