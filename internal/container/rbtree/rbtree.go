// Package rbtree implements a generic left-leaning red-black tree
// (Sedgewick 2008): an ordered map with O(log n) insert, delete, lookup,
// and ordered navigation (floor, ceiling, min, max, range iteration).
//
// The extent policy's free-run map (internal/container/freelist) uses it
// as its (size, address) index for best-fit searches. The block
// allocators keep their free sets in internal/container/bitset.
package rbtree

// Tree is an ordered map from K to V. Create one with New; the zero value
// is not usable because it lacks a comparator.
type Tree[K, V any] struct {
	root *node[K, V]
	less func(a, b K) bool
	size int
	// spare lists deleted nodes, linked through left, for insert to reuse:
	// a tree whose keys churn allocates only when it outgrows its peak.
	spare *node[K, V]
}

type node[K, V any] struct {
	key         K
	val         V
	left, right *node[K, V]
	red         bool
}

// New returns an empty tree ordered by less.
func New[K, V any](less func(a, b K) bool) *Tree[K, V] {
	if less == nil {
		panic("rbtree: nil comparator")
	}
	return &Tree[K, V]{less: less}
}

// Len returns the number of keys in the tree.
func (t *Tree[K, V]) Len() int { return t.size }

func isRed[K, V any](n *node[K, V]) bool { return n != nil && n.red }

func rotateLeft[K, V any](h *node[K, V]) *node[K, V] {
	x := h.right
	h.right = x.left
	x.left = h
	x.red = h.red
	h.red = true
	return x
}

func rotateRight[K, V any](h *node[K, V]) *node[K, V] {
	x := h.left
	h.left = x.right
	x.right = h
	x.red = h.red
	h.red = true
	return x
}

func flipColors[K, V any](h *node[K, V]) {
	h.red = !h.red
	h.left.red = !h.left.red
	h.right.red = !h.right.red
}

func fixUp[K, V any](h *node[K, V]) *node[K, V] {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

// Set inserts key with value v, replacing any existing value for key.
func (t *Tree[K, V]) Set(key K, v V) {
	t.root = t.insert(t.root, key, v)
	t.root.red = false
}

func (t *Tree[K, V]) insert(h *node[K, V], key K, v V) *node[K, V] {
	if h == nil {
		t.size++
		n := t.spare
		if n == nil {
			return &node[K, V]{key: key, val: v, red: true}
		}
		t.spare = n.left
		*n = node[K, V]{key: key, val: v, red: true}
		return n
	}
	switch {
	case t.less(key, h.key):
		h.left = t.insert(h.left, key, v)
	case t.less(h.key, key):
		h.right = t.insert(h.right, key, v)
	default:
		h.val = v
	}
	return fixUp(h)
}

// Get returns the value stored for key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	n := t.root
	for n != nil {
		switch {
		case t.less(key, n.key):
			n = n.left
		case t.less(n.key, key):
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (t *Tree[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Min returns the smallest key and its value.
func (t *Tree[K, V]) Min() (K, V, bool) {
	if t.root == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	n := t.root
	for n.left != nil {
		n = n.left
	}
	return n.key, n.val, true
}

// Max returns the largest key and its value.
func (t *Tree[K, V]) Max() (K, V, bool) {
	if t.root == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n.key, n.val, true
}

// Ceiling returns the smallest key >= key and its value.
func (t *Tree[K, V]) Ceiling(key K) (K, V, bool) {
	var best *node[K, V]
	n := t.root
	for n != nil {
		if t.less(n.key, key) {
			n = n.right
		} else {
			best = n
			n = n.left
		}
	}
	if best == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	return best.key, best.val, true
}

// Floor returns the largest key <= key and its value.
func (t *Tree[K, V]) Floor(key K) (K, V, bool) {
	var best *node[K, V]
	n := t.root
	for n != nil {
		if t.less(key, n.key) {
			n = n.left
		} else {
			best = n
			n = n.right
		}
	}
	if best == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	return best.key, best.val, true
}

// Higher returns the smallest key strictly greater than key.
func (t *Tree[K, V]) Higher(key K) (K, V, bool) {
	var best *node[K, V]
	n := t.root
	for n != nil {
		if t.less(key, n.key) {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	return best.key, best.val, true
}

// Lower returns the largest key strictly less than key.
func (t *Tree[K, V]) Lower(key K) (K, V, bool) {
	var best *node[K, V]
	n := t.root
	for n != nil {
		if t.less(n.key, key) {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	if best == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	return best.key, best.val, true
}

// Delete removes key, reporting whether it was present.
func (t *Tree[K, V]) Delete(key K) bool {
	if !t.Contains(key) {
		return false
	}
	t.root = t.delete(t.root, key)
	if t.root != nil {
		t.root.red = false
	}
	t.size--
	return true
}

func moveRedLeft[K, V any](h *node[K, V]) *node[K, V] {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight[K, V any](h *node[K, V]) *node[K, V] {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

func minNode[K, V any](h *node[K, V]) *node[K, V] {
	for h.left != nil {
		h = h.left
	}
	return h
}

// recycle puts a deleted node on the spare list.
func (t *Tree[K, V]) recycle(n *node[K, V]) {
	*n = node[K, V]{left: t.spare}
	t.spare = n
}

func (t *Tree[K, V]) deleteMin(h *node[K, V]) *node[K, V] {
	if h.left == nil {
		t.recycle(h)
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = t.deleteMin(h.left)
	return fixUp(h)
}

func (t *Tree[K, V]) delete(h *node[K, V], key K) *node[K, V] {
	if t.less(key, h.key) {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = t.delete(h.left, key)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if !t.less(h.key, key) && h.right == nil {
			t.recycle(h)
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if !t.less(h.key, key) && !t.less(key, h.key) {
			m := minNode(h.right)
			h.key, h.val = m.key, m.val
			h.right = t.deleteMin(h.right)
		} else {
			h.right = t.delete(h.right, key)
		}
	}
	return fixUp(h)
}

// DeleteMin removes and returns the smallest key and its value.
func (t *Tree[K, V]) DeleteMin() (K, V, bool) {
	k, v, ok := t.Min()
	if !ok {
		return k, v, false
	}
	t.root = t.deleteMin(t.root)
	if t.root != nil {
		t.root.red = false
	}
	t.size--
	return k, v, true
}

// Ascend calls fn for each key/value in ascending order until fn returns
// false.
func (t *Tree[K, V]) Ascend(fn func(k K, v V) bool) {
	t.ascend(t.root, fn)
}

func (t *Tree[K, V]) ascend(n *node[K, V], fn func(k K, v V) bool) bool {
	if n == nil {
		return true
	}
	if !t.ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.val) {
		return false
	}
	return t.ascend(n.right, fn)
}

// AscendFrom calls fn for each key >= start in ascending order until fn
// returns false.
func (t *Tree[K, V]) AscendFrom(start K, fn func(k K, v V) bool) {
	t.ascendFrom(t.root, start, fn)
}

func (t *Tree[K, V]) ascendFrom(n *node[K, V], start K, fn func(k K, v V) bool) bool {
	if n == nil {
		return true
	}
	if t.less(n.key, start) {
		return t.ascendFrom(n.right, start, fn)
	}
	if !t.ascendFrom(n.left, start, fn) {
		return false
	}
	if !fn(n.key, n.val) {
		return false
	}
	return t.ascendFrom(n.right, start, fn)
}

// Keys returns all keys in ascending order (for tests and debugging).
func (t *Tree[K, V]) Keys() []K {
	out := make([]K, 0, t.size)
	t.Ascend(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
