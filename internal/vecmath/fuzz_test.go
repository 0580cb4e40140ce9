package vecmath

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzUpdatePairDot checks the fused kernel against its definition and
// across kernel sets, bit for bit: the generic UpdatePairDot must equal
// updatePairGeneric followed by dotGeneric, and the SIMD kernel (when the
// build has one) must equal the generic one. Operands are arbitrary
// float bits cycled from data, of length 0–130, each at its own offset
// 0–3 into its backing array (unaligned loads). The one freedom is a NaN
// payload: when both operands of an add or multiply are NaN, x86 returns
// the first operand's payload, and the Go compiler is free to order the
// operands of its own commutative float ops, so two NaNs agree whatever
// their payloads (as they already do for Axpy). The seed corpus is
// testdata/fuzz/FuzzUpdatePairDot.
func FuzzUpdatePairDot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, gBits uint32, length, offsets uint8) {
		n := int(length) % 131
		g := math.Float32frombits(gBits)
		var word [4]byte
		operand := func(which int) []float32 {
			off := int(offsets>>(2*which)) & 3
			v := make([]float32, off+n)
			for i := range v {
				for j := range word {
					if len(data) > 0 {
						word[j] = data[((which*(off+n)+i)*4+j)%len(data)]
					}
				}
				v[i] = math.Float32frombits(binary.LittleEndian.Uint32(word[:]))
			}
			return v[off:]
		}
		emb, ctx, neu, next := operand(0), operand(1), operand(2), operand(3)
		clone := func(v []float32) []float32 { return append([]float32(nil), v...) }

		refCtx, refNeu := clone(ctx), clone(neu)
		updatePairGeneric(emb, refCtx, refNeu, g)
		refDot := dotGeneric(emb, next)

		genCtx, genNeu := clone(ctx), clone(neu)
		genDot := updatePairDotGeneric(emb, genCtx, genNeu, g, next)
		if !sameFloats(genCtx, refCtx) || !sameFloats(genNeu, refNeu) || !sameFloat(genDot, refDot) {
			t.Fatalf("n=%d g=%v: generic UpdatePairDot != UpdatePair;Dot (dot %v vs %v)", n, g, genDot, refDot)
		}
		if arch == nil {
			return
		}
		simdDot := arch.updatePairDot(emb, ctx, neu, g, next)
		if !sameFloats(ctx, refCtx) || !sameFloats(neu, refNeu) || !sameFloat(simdDot, refDot) {
			t.Fatalf("n=%d g=%v: %s UpdatePairDot != generic (dot %v vs %v)", n, g, arch.name, simdDot, refDot)
		}
	})
}

// sameFloat reports whether a and b have the same bits or are both NaN.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// sameFloats is sameFloat over equal-length slices.
func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}
