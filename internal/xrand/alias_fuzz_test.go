package xrand

import "testing"

// FuzzDrawExcluding checks the batch draw against its definition: for
// any weights, exclude, seed and batch length, DrawExcluding returns
// what len(dst) sequential "Draw until not exclude" loops return and
// leaves the generator in the same state. Weights are the fuzz bytes
// (zero weights included); exclude ranges over [-1, N], so it may name
// no outcome at all. The seed corpus is testdata/fuzz/FuzzDrawExcluding.
func FuzzDrawExcluding(f *testing.F) {
	f.Fuzz(func(t *testing.T, weights []byte, exclude uint16, seed uint64, batch uint8) {
		if len(weights) == 0 || len(weights) > 256 {
			return
		}
		w := make([]float64, len(weights))
		var others float64
		ex := int32(int(exclude)%(len(w)+2)) - 1
		for i, b := range weights {
			w[i] = float64(b)
			if int32(i) != ex {
				others += w[i]
			}
		}
		a, err := NewAlias(w)
		if err != nil {
			return // all-zero weights
		}
		onlyExclude := a.N() == 1 && ex == 0
		if others == 0 && !onlyExclude {
			return // exclude carries all the weight: no draw can end
		}
		n := int(batch) % 40
		ref := New(seed)
		var want []int32
		for !onlyExclude && len(want) < n {
			if v := int32(a.Draw(ref)); v != ex {
				want = append(want, v)
			}
		}
		r := New(seed)
		got := a.DrawExcluding(r, ex, make([]int32, n))
		if len(got) != len(want) {
			t.Fatalf("N=%d exclude=%d: got %d draws, want %d", a.N(), ex, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("N=%d exclude=%d draw %d: got %d, want %d", a.N(), ex, i, got[i], want[i])
			}
		}
		if r.State() != ref.State() {
			t.Fatalf("N=%d exclude=%d: state %#x, want %#x", a.N(), ex, r.State(), ref.State())
		}
	})
}
