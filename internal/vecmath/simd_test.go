package vecmath

import (
	"math"
	"testing"

	"graphword2vec/internal/xrand"
)

// The SIMD kernels' whole value proposition is that they are bit-identical
// to the generic kernels (DESIGN.md §7): the model-hash invariants across
// sim/TCP/seed runs only survive if switching kernel sets never changes a
// single float. These tests compare the two implementations exhaustively
// over lengths 0–130 (covering every tail residue well past the unroll
// width), odd offsets into a shared backing array (unaligned loads), and
// pathological value ranges (denormals, huge magnitudes, zeros, ±Inf).

// specialVals are exact values that stress float32 edge behaviour.
var specialVals = []float32{
	0, float32(math.Copysign(0, -1)),
	1e-45, -1e-45, // smallest denormals
	1e-40, -3.5e-42, // denormal range
	math.SmallestNonzeroFloat32,
	1e38, -2.9e38, // near overflow
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	1, -1, 0.5, -2,
}

// fillSpecial fills v with a deterministic mix of random normals and
// special values.
func fillSpecial(r *xrand.Rand, v []float32) {
	for i := range v {
		if r.Intn(4) == 0 {
			v[i] = specialVals[r.Intn(len(specialVals))]
		} else {
			v[i] = float32(r.NormFloat64()) * float32(math.Exp(r.NormFloat64()*8))
		}
	}
}

// bitsEqual compares slices bit-for-bit (NaN-safe, -0 ≠ +0).
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSIMD skips the test on builds without a SIMD kernel set (other
// architectures, or -tags purego) — there the dispatched and generic
// kernels are the same function and there is nothing to compare.
func requireSIMD(t *testing.T) *simdKernels {
	t.Helper()
	if arch == nil {
		t.Skip("no SIMD kernel set on this build")
	}
	return arch
}

// kernelCase materialises operand slices at the given offsets into
// separate backing arrays so unaligned addresses are exercised.
func sliceAt(backing []float32, off, n int) []float32 { return backing[off : off+n : off+n] }

func TestSIMDDotBitIdentical(t *testing.T) {
	k := requireSIMD(t)
	r := xrand.New(101)
	for n := 0; n <= 130; n++ {
		for _, off := range []int{0, 1, 2, 3} {
			ab := make([]float32, off+n)
			bb := make([]float32, off+n)
			fillSpecial(r, ab)
			fillSpecial(r, bb)
			a, b := sliceAt(ab, off, n), sliceAt(bb, off, n)
			want := dotGeneric(a, b)
			got := k.dot(a, b)
			if math.Float32bits(want) != math.Float32bits(got) {
				t.Fatalf("n=%d off=%d: dot SIMD %x (%v) != generic %x (%v)",
					n, off, math.Float32bits(got), got, math.Float32bits(want), want)
			}
		}
	}
}

func TestSIMDAxpyBitIdentical(t *testing.T) {
	k := requireSIMD(t)
	r := xrand.New(102)
	for n := 0; n <= 130; n++ {
		for _, off := range []int{0, 1, 3} {
			alpha := float32(r.NormFloat64())
			if n%7 == 0 {
				alpha = specialVals[r.Intn(len(specialVals))]
			}
			xb := make([]float32, off+n)
			yb := make([]float32, off+n)
			fillSpecial(r, xb)
			fillSpecial(r, yb)
			y2 := append([]float32(nil), yb...)
			axpyGeneric(alpha, sliceAt(xb, off, n), sliceAt(yb, off, n))
			k.axpy(alpha, sliceAt(xb, off, n), sliceAt(y2, off, n))
			if !bitsEqual(yb, y2) {
				t.Fatalf("n=%d off=%d alpha=%v: axpy SIMD diverges from generic", n, off, alpha)
			}
		}
	}
}

func TestSIMDScaleZeroAddSubBitIdentical(t *testing.T) {
	k := requireSIMD(t)
	r := xrand.New(103)
	for n := 0; n <= 130; n++ {
		for _, off := range []int{0, 1, 3} {
			alpha := float32(r.NormFloat64()) * float32(math.Exp(r.NormFloat64()*4))
			mk := func() ([]float32, []float32) {
				b := make([]float32, off+n)
				fillSpecial(r, b)
				return b, append([]float32(nil), b...)
			}

			x1, x2 := mk()
			scaleGeneric(alpha, sliceAt(x1, off, n))
			k.scale(alpha, sliceAt(x2, off, n))
			if !bitsEqual(x1, x2) {
				t.Fatalf("n=%d off=%d: scale diverges", n, off)
			}

			z1, z2 := mk()
			zeroGeneric(sliceAt(z1, off, n))
			k.zero(sliceAt(z2, off, n))
			if !bitsEqual(z1, z2) {
				t.Fatalf("n=%d off=%d: zero diverges", n, off)
			}

			ab := make([]float32, off+n)
			bb := make([]float32, off+n)
			fillSpecial(r, ab)
			fillSpecial(r, bb)
			d1 := make([]float32, off+n)
			d2 := make([]float32, off+n)
			addGeneric(sliceAt(d1, off, n), sliceAt(ab, off, n), sliceAt(bb, off, n))
			k.add(sliceAt(d2, off, n), sliceAt(ab, off, n), sliceAt(bb, off, n))
			if !bitsEqual(d1, d2) {
				t.Fatalf("n=%d off=%d: add diverges", n, off)
			}
			subGeneric(sliceAt(d1, off, n), sliceAt(ab, off, n), sliceAt(bb, off, n))
			k.sub(sliceAt(d2, off, n), sliceAt(ab, off, n), sliceAt(bb, off, n))
			if !bitsEqual(d1, d2) {
				t.Fatalf("n=%d off=%d: sub diverges", n, off)
			}
		}
	}
}

func TestSIMDUpdatePairBitIdentical(t *testing.T) {
	k := requireSIMD(t)
	r := xrand.New(104)
	for n := 0; n <= 130; n++ {
		for _, off := range []int{0, 1, 3} {
			g := float32(r.NormFloat64()) * 0.1
			if n%5 == 0 {
				g = specialVals[r.Intn(len(specialVals))]
			}
			emb := make([]float32, off+n)
			ctx := make([]float32, off+n)
			neu := make([]float32, off+n)
			fillSpecial(r, emb)
			fillSpecial(r, ctx)
			fillSpecial(r, neu)
			ctx2 := append([]float32(nil), ctx...)
			neu2 := append([]float32(nil), neu...)
			updatePairGeneric(sliceAt(emb, off, n), sliceAt(ctx, off, n), sliceAt(neu, off, n), g)
			k.updatePair(sliceAt(emb, off, n), sliceAt(ctx2, off, n), sliceAt(neu2, off, n), g)
			if !bitsEqual(ctx, ctx2) || !bitsEqual(neu, neu2) {
				t.Fatalf("n=%d off=%d g=%v: UpdatePair diverges", n, off, g)
			}
		}
	}
}

func TestSIMDUpdatePairDotBitIdentical(t *testing.T) {
	k := requireSIMD(t)
	r := xrand.New(107)
	for n := 0; n <= 130; n++ {
		for _, off := range []int{0, 1, 3} {
			g := float32(r.NormFloat64()) * 0.1
			if n%5 == 0 {
				g = specialVals[r.Intn(len(specialVals))]
			}
			emb := make([]float32, off+n)
			ctx := make([]float32, off+n)
			neu := make([]float32, off+n)
			next := make([]float32, off+n)
			fillSpecial(r, emb)
			fillSpecial(r, ctx)
			fillSpecial(r, neu)
			fillSpecial(r, next)
			ctx2 := append([]float32(nil), ctx...)
			neu2 := append([]float32(nil), neu...)
			want := updatePairDotGeneric(sliceAt(emb, off, n), sliceAt(ctx, off, n), sliceAt(neu, off, n), g, sliceAt(next, off, n))
			got := k.updatePairDot(sliceAt(emb, off, n), sliceAt(ctx2, off, n), sliceAt(neu2, off, n), g, sliceAt(next, off, n))
			if !bitsEqual(ctx, ctx2) || !bitsEqual(neu, neu2) || math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n=%d off=%d g=%v: UpdatePairDot diverges (dot %v vs %v)", n, off, g, got, want)
			}
		}
	}
}

// UpdatePairDot's definition, on every kernel set: bit-identical to
// UpdatePair followed by Dot(emb, next), also when next is ctx itself
// (the same target twice in a row), where the score must read the
// updated row.
func TestUpdatePairDotMatchesUpdatePairThenDot(t *testing.T) {
	wasOn := SIMDEnabled()
	defer SetSIMD(wasOn)
	r := xrand.New(108)
	for _, simd := range []bool{false, true} {
		SetSIMD(simd)
		for _, n := range []int{0, 1, 3, 4, 5, 8, 48, 100, 128, 130} {
			for _, aliased := range []bool{false, true} {
				emb := make([]float32, n)
				ctx := make([]float32, n)
				neu := make([]float32, n)
				next := make([]float32, n)
				fillSpecial(r, emb)
				fillSpecial(r, ctx)
				fillSpecial(r, neu)
				fillSpecial(r, next)
				g := float32(r.NormFloat64()) * 0.05
				ctx2 := append([]float32(nil), ctx...)
				neu2 := append([]float32(nil), neu...)
				next2 := next
				if aliased {
					next, next2 = ctx, ctx2
				}

				got := UpdatePairDot(emb, ctx, neu, g, next)
				UpdatePair(emb, ctx2, neu2, g)
				want := Dot(emb, next2)
				if !bitsEqual(ctx, ctx2) || !bitsEqual(neu, neu2) || math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s n=%d aliased=%v: UpdatePairDot != UpdatePair;Dot (dot %v vs %v)", KernelName(), n, aliased, got, want)
				}
			}
		}
	}
}

// UpdatePair's definition: bit-identical to the two Axpys it fuses.
func TestUpdatePairMatchesTwoAxpys(t *testing.T) {
	r := xrand.New(105)
	for _, n := range []int{0, 1, 3, 4, 5, 8, 100, 128, 130} {
		emb := make([]float32, n)
		ctx := make([]float32, n)
		neu := make([]float32, n)
		fillSpecial(r, emb)
		fillSpecial(r, ctx)
		fillSpecial(r, neu)
		g := float32(r.NormFloat64()) * 0.05
		ctx2 := append([]float32(nil), ctx...)
		neu2 := append([]float32(nil), neu...)

		UpdatePair(emb, ctx, neu, g)
		Axpy(g, ctx2, neu2) // reads pre-update ctx
		Axpy(g, emb, ctx2)
		if !bitsEqual(ctx, ctx2) || !bitsEqual(neu, neu2) {
			t.Fatalf("n=%d: UpdatePair != Axpy;Axpy", n)
		}
	}
}

// The dispatched public kernels must follow SetSIMD, and a full
// generic-vs-SIMD toggle must not change results.
func TestSetSIMDToggleAndDispatch(t *testing.T) {
	avail := SIMDAvailable()
	wasOn := SIMDEnabled()
	defer SetSIMD(wasOn)

	if got := SetSIMD(false); got {
		t.Fatal("SetSIMD(false) reported SIMD in use")
	}
	if KernelName() != "generic" {
		t.Fatalf("KernelName after SetSIMD(false) = %q", KernelName())
	}
	r := xrand.New(106)
	a := make([]float32, 127)
	b := make([]float32, 127)
	fillSpecial(r, a)
	fillSpecial(r, b)
	genericDot := Dot(a, b)

	if got := SetSIMD(true); got != avail {
		t.Fatalf("SetSIMD(true) = %v, SIMDAvailable = %v", got, avail)
	}
	if avail && KernelName() == "generic" {
		t.Fatal("SIMD kernels available but KernelName is generic")
	}
	simdDot := Dot(a, b)
	if math.Float32bits(genericDot) != math.Float32bits(simdDot) {
		t.Fatalf("dispatched Dot changed across SetSIMD: %v vs %v", genericDot, simdDot)
	}
}
