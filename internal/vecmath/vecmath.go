// Package vecmath implements the dense float32 vector kernels that
// GraphWord2Vec's training and evaluation paths are built on: dot products,
// scaled accumulation (axpy), norms, cosine similarity, and the gradient
// projection primitive behind the paper's model combiner.
//
// Word2Vec-style training is dominated by short dense vector operations
// (the embedding dimensionality is typically 100–300). Every kernel has a
// portable 4-way-unrolled reference implementation (kernels_generic.go)
// and, on amd64, an SSE2 assembly implementation whose 4-lane layout maps
// exactly onto the unroll's 4 accumulators, making the two bit-identical
// (DESIGN.md §7). Dispatch is at runtime (dispatch.go): the `purego`
// build tag, the GW2V_NOSIMD environment variable, or SetSIMD(false)
// select the portable kernels.
package vecmath

import "math"

// Dot returns the inner product of a and b. The slices must have equal
// length; this is the caller's responsibility (checked only in debug
// builds via tests) because Dot sits on the innermost training loop.
func Dot(a, b []float32) float32 { return dotImpl(a, b) }

// Axpy computes y += alpha * x, the classic BLAS saxpy. x and y must not
// overlap unless they are identical slices.
func Axpy(alpha float32, x, y []float32) { axpyImpl(alpha, x, y) }

// Scale computes x *= alpha in place.
func Scale(alpha float32, x []float32) { scaleImpl(alpha, x) }

// Zero sets every element of x to 0.
func Zero(x []float32) { zeroImpl(x) }

// Add computes dst = a + b element-wise over len(dst). dst may alias a
// or b.
func Add(dst, a, b []float32) { addImpl(dst, a, b) }

// Sub computes dst = a - b element-wise over len(dst). dst may alias a
// or b.
func Sub(dst, a, b []float32) { subImpl(dst, a, b) }

// UpdatePair is the fused SGNS edge update: one pass over the row pair
// computing
//
//	neu1e += g·ctx   (using ctx's values from before the update)
//	ctx   += g·emb
//
// bit-identically to Axpy(g, ctx, neu1e); Axpy(g, emb, ctx) but with half
// the passes over ctx. All three slices must have equal length and neu1e
// must not alias emb or ctx.
func UpdatePair(emb, ctx, neu1e []float32, g float32) { updatePairImpl(emb, ctx, neu1e, g) }

// UpdatePairDot is UpdatePair(emb, ctx, neu1e, g) followed by
// Dot(emb, next), in one pass over the rows: the SGNS pair loop scores
// its next target while it updates the current one. Every lane keeps
// both kernels' operations in their order, so the result and the
// updated rows are bit-identical to the two calls. next must be ctx
// itself or not overlap it; when it is ctx (the same target twice in a
// row) the two calls run one after the other, so the score reads the
// updated row. All four slices must have equal length.
func UpdatePairDot(emb, ctx, neu1e []float32, g float32, next []float32) float32 {
	if len(next) > 0 && &next[0] == &ctx[0] {
		updatePairImpl(emb, ctx, neu1e, g)
		return dotImpl(emb, next)
	}
	return updatePairDotImpl(emb, ctx, neu1e, g, next)
}

// Gemm computes dst += A·B for row-major float32 matrices stored flat:
// A is m×k at a[:m*k], B is k×n at b[:k*n], dst is m×n at dst[:m*n].
// The accumulate form (+=) lets callers chain panels without an extra
// pass; zero dst first for a plain product.
//
// Each dst[i][j] is accumulated over l = 0..k-1 in that exact order with
// every product rounded to float32 — the same element-wise recurrence as
// k successive Axpy row updates — so the generic and SSE2 implementations
// are bit-identical (the j-lanes are independent; the l-order is shared).
// Slices must not overlap. Like the other kernels, length validation is
// the caller's job: dst, a, b must hold at least m*n, m*k, k*n elements.
func Gemm(dst, a, b []float32, m, k, n int) { gemmImpl(dst, a, b, m, k, n) }

// Norm2Sq returns the squared Euclidean norm ‖x‖².
func Norm2Sq(x []float32) float32 { return Dot(x, x) }

// Norm2 returns the Euclidean norm ‖x‖.
func Norm2(x []float32) float32 { return float32(math.Sqrt(float64(Norm2Sq(x)))) }

// Normalize scales x to unit Euclidean norm in place. A zero vector is
// left unchanged (there is no meaningful direction to preserve).
func Normalize(x []float32) {
	n := Norm2(x)
	if n == 0 {
		return
	}
	Scale(1/n, x)
}

// CosineSim returns the cosine similarity of a and b, or 0 if either
// vector is zero.
func CosineSim(a, b []float32) float32 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// ProjectOut removes from g its component along c, in place:
//
//	g ← g − (cᵀg / ‖c‖²) · c
//
// This is the paper's §3 projection: the residual is orthogonal to c and
// its norm never exceeds the original ‖g‖ (‖g'‖² = ‖g‖² − ‖g‖²cos²θ).
// If c is (numerically) zero the call is a no-op: there is no direction to
// project out, which is exactly the base case of the combiner induction.
func ProjectOut(g, c []float32) {
	den := Norm2Sq(c)
	if den == 0 || math.IsNaN(float64(den)) || math.IsInf(float64(den), 0) {
		return
	}
	coef := Dot(c, g) / den
	Axpy(-coef, c, g)
}

// The sigmoid lookup table mirrors word2vec.c: σ(x) is precomputed on
// [-MaxExp, MaxExp] with SigmoidTableSize buckets; training clamps scores
// outside the range to the saturated gradient (0 or 1).
const (
	// MaxExp bounds the argument of the tabulated sigmoid.
	MaxExp = 6.0
	// SigmoidTableSize is the number of buckets in the table.
	SigmoidTableSize = 1024
)

var sigmoidTable [SigmoidTableSize]float32

func init() {
	for i := range sigmoidTable {
		x := (float64(i)/SigmoidTableSize*2 - 1) * MaxExp
		e := math.Exp(x)
		sigmoidTable[i] = float32(e / (e + 1))
	}
}

// Sigmoid returns a table-interpolation-free approximation of the logistic
// function σ(x) = 1/(1+e^{-x}) as used by word2vec.c: arguments beyond
// ±MaxExp saturate to exactly 0 or 1 so the corresponding gradient
// contribution vanishes. A NaN score (a diverged model) yields NaN
// rather than an out-of-range table index.
func Sigmoid(x float32) float32 {
	if x >= MaxExp {
		return 1
	}
	if x <= -MaxExp {
		return 0
	}
	if x != x {
		return x
	}
	idx := int((x + MaxExp) * (SigmoidTableSize / (2 * MaxExp)))
	if idx >= SigmoidTableSize {
		idx = SigmoidTableSize - 1
	}
	return sigmoidTable[idx]
}

// SigmoidExact returns the exact logistic function, used by gradient
// checks and anywhere precision matters more than speed.
func SigmoidExact(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
