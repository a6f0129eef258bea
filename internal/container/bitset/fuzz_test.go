package bitset

import "testing"

// FuzzBitset drives Add/Remove/Contains/Next with arbitrary byte scripts
// against the reference model; the first byte picks the set's size.
func FuzzBitset(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x00, 0x05, 0x03, 0x00, 0x00})
	f.Add([]byte{9, 0x40, 0x00, 0x11, 0x83, 0x00, 0x10, 0x41, 0x00, 0x11})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		if !replay(t, sizes[int(script[0])%len(sizes)], script[1:]) {
			t.Fatal("set diverged from the reference model")
		}
	})
}
