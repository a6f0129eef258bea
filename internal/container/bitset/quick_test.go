package bitset

import (
	"sort"
	"testing"
	"testing/quick"
)

// model is the reference the Set is checked against: a map of members
// and a sorted scan for Next.
type model map[int64]bool

func (m model) next(from int64) (int64, bool) {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if k >= from {
			return k, true
		}
	}
	return 0, false
}

// sizes straddle the word (64) and summary-word (4096) boundaries, with
// lengths that are not multiples of 64.
var sizes = []int64{0, 1, 63, 64, 65, 127, 4095, 4096, 4097, 8191, 12345}

// replay applies a byte script to a Set of n indices and to the model,
// returning false at the first divergence. Each operation is three bytes:
// an opcode and a 16-bit operand. The opcode's top two bits pick where the
// index falls — anywhere, next to a word edge, next to a summary-word edge
// (all wrapped into range), or just past either end of the range — so the
// boundaries are hit often.
func replay(t *testing.T, n int64, script []byte) bool {
	t.Helper()
	s, ref := New(n), model{}
	for i := 0; i+2 < len(script); i += 3 {
		op, arg := script[i], int64(script[i+1])<<8|int64(script[i+2])
		idx := arg
		switch op >> 6 {
		case 1:
			idx = arg>>4<<6 + arg&3 - 2
		case 2:
			idx = arg>>4<<12 + arg&3 - 2
		case 3:
			if arg&1 == 0 {
				idx = n - 2 + arg>>1&3
			} else {
				idx = -1 - arg>>1&1
			}
		}
		if n > 0 && op>>6 != 3 {
			idx = (idx%n + n) % n
		}
		inRange := idx >= 0 && idx < n
		switch op & 3 {
		case 0:
			if !inRange {
				continue
			}
			s.Add(idx)
			ref[idx] = true
		case 1:
			if got := s.Remove(idx); got != ref[idx] {
				t.Logf("n=%d Remove(%d) = %v, want %v", n, idx, got, ref[idx])
				return false
			}
			delete(ref, idx)
		case 2:
			if got := s.Contains(idx); got != ref[idx] {
				t.Logf("n=%d Contains(%d) = %v, want %v", n, idx, got, ref[idx])
				return false
			}
		case 3:
			got, gok := s.Next(idx)
			want, wok := ref.next(idx)
			if got != want || gok != wok {
				t.Logf("n=%d Next(%d) = %d,%v, want %d,%v", n, idx, got, gok, want, wok)
				return false
			}
		}
		if s.Len() != len(ref) {
			t.Logf("n=%d Len = %d, want %d", n, s.Len(), len(ref))
			return false
		}
	}
	// Walking Next from 0 must enumerate exactly the model, in order.
	var prev int64 = -1
	count := 0
	for i, ok := s.Next(0); ok; i, ok = s.Next(i + 1) {
		if i <= prev || !ref[i] {
			t.Logf("n=%d walk yielded %d after %d", n, i, prev)
			return false
		}
		prev = i
		count++
	}
	return count == len(ref)
}

func TestQuickSetMatchesModel(t *testing.T) {
	for _, n := range sizes {
		prop := func(script []byte) bool { return replay(t, n, script) }
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}
