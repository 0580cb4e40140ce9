package vecmath

// Portable reference kernels. Every SIMD implementation must be
// bit-identical to these: the 4-lane vector layout maps exactly onto the
// 4-accumulator unroll below (lane k holds s_k) and the final reduction
// uses the same left-associated order, so scalar and vector runs produce
// the same float32 stream. See DESIGN.md §7 for the contract.
//
// The explicit float32 conversions around every multiply are load-bearing:
// per the Go spec an explicit conversion rounds to the target precision,
// which forbids the compiler from contracting a*b+c into a fused
// multiply-add on platforms that have one (arm64, ppc64). Without them a
// model trained on arm64 would diverge bitwise from the same seed on
// amd64, breaking the sim-vs-TCP-vs-seed hash invariants.

// dotGeneric is the portable Dot kernel: 4 independent accumulators,
// reduced left-associatively with the tail folded into s0.
func dotGeneric(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
	}
	for ; i < n; i++ {
		s0 += float32(a[i] * b[i])
	}
	return ((s0 + s1) + s2) + s3
}

// axpyGeneric is the portable Axpy kernel: y += alpha*x.
func axpyGeneric(alpha float32, x, y []float32) {
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += float32(alpha * x[i])
		y[i+1] += float32(alpha * x[i+1])
		y[i+2] += float32(alpha * x[i+2])
		y[i+3] += float32(alpha * x[i+3])
	}
	for ; i < n; i++ {
		y[i] += float32(alpha * x[i])
	}
}

// scaleGeneric is the portable Scale kernel: x *= alpha.
func scaleGeneric(alpha float32, x []float32) {
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		x[i] *= alpha
		x[i+1] *= alpha
		x[i+2] *= alpha
		x[i+3] *= alpha
	}
	for ; i < n; i++ {
		x[i] *= alpha
	}
}

// zeroGeneric is the portable Zero kernel.
func zeroGeneric(x []float32) {
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		x[i] = 0
		x[i+1] = 0
		x[i+2] = 0
		x[i+3] = 0
	}
	for ; i < n; i++ {
		x[i] = 0
	}
}

// addGeneric is the portable Add kernel: dst = a + b over len(dst).
func addGeneric(dst, a, b []float32) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = a[i] + b[i]
		dst[i+1] = a[i+1] + b[i+1]
		dst[i+2] = a[i+2] + b[i+2]
		dst[i+3] = a[i+3] + b[i+3]
	}
	for ; i < n; i++ {
		dst[i] = a[i] + b[i]
	}
}

// subGeneric is the portable Sub kernel: dst = a - b over len(dst).
func subGeneric(dst, a, b []float32) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = a[i] - b[i]
		dst[i+1] = a[i+1] - b[i+1]
		dst[i+2] = a[i+2] - b[i+2]
		dst[i+3] = a[i+3] - b[i+3]
	}
	for ; i < n; i++ {
		dst[i] = a[i] - b[i]
	}
}

// gemmGeneric is the portable Gemm kernel: dst += A·B as k-deep
// outer-product accumulation. For each (i, l) the update of dst's row i
// is exactly axpyGeneric(a[i][l], b[l], dst[i]) — a 4-way-unrolled row
// axpy — so any SIMD implementation that mirrors the axpy block shape and
// walks (i, l) in the same order is bit-identical for free: each
// dst[i][j] sees the same left-to-right sum over l with every product
// rounded to float32.
func gemmGeneric(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		d := dst[i*n : i*n+n]
		ar := a[i*k : i*k+k]
		for l := 0; l < k; l++ {
			axpyGeneric(ar[l], b[l*n:l*n+n], d)
		}
	}
}

// updatePairGeneric is the portable fused SGNS edge update: in one pass
// over the rows,
//
//	neu1e[i] += g * ctx[i]   (gradient accumulation, reads ctx pre-update)
//	ctx[i]   += g * emb[i]   (training-row update)
//
// Element-wise this is exactly Axpy(g, ctx, neu1e) followed by
// Axpy(g, emb, ctx) — each element is independent, and ctx[i] is read
// before it is written — so the fusion is bit-identical while halving the
// number of passes over ctx. neu1e must not alias emb or ctx.
func updatePairGeneric(emb, ctx, neu1e []float32, g float32) {
	n := len(emb)
	i := 0
	for ; i+4 <= n; i += 4 {
		c0, c1, c2, c3 := ctx[i], ctx[i+1], ctx[i+2], ctx[i+3]
		neu1e[i] += float32(g * c0)
		neu1e[i+1] += float32(g * c1)
		neu1e[i+2] += float32(g * c2)
		neu1e[i+3] += float32(g * c3)
		ctx[i] = c0 + float32(g*emb[i])
		ctx[i+1] = c1 + float32(g*emb[i+1])
		ctx[i+2] = c2 + float32(g*emb[i+2])
		ctx[i+3] = c3 + float32(g*emb[i+3])
	}
	for ; i < n; i++ {
		c := ctx[i]
		neu1e[i] += float32(g * c)
		ctx[i] = c + float32(g*emb[i])
	}
}

// updatePairDotGeneric is updatePairGeneric and dotGeneric(emb, next)
// in one loop. Each block first runs the update exactly as
// updatePairGeneric does, then adds emb·next into the same four
// accumulators dotGeneric uses, with the tail folded into s0 and the
// same left-associated reduction, so both outputs are bit-identical to
// the two kernels run one after the other. next must not overlap ctx
// (UpdatePairDot routes next == ctx to the two kernels).
func updatePairDotGeneric(emb, ctx, neu1e []float32, g float32, next []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(emb)
	i := 0
	for ; i+4 <= n; i += 4 {
		c0, c1, c2, c3 := ctx[i], ctx[i+1], ctx[i+2], ctx[i+3]
		e0, e1, e2, e3 := emb[i], emb[i+1], emb[i+2], emb[i+3]
		neu1e[i] += float32(g * c0)
		neu1e[i+1] += float32(g * c1)
		neu1e[i+2] += float32(g * c2)
		neu1e[i+3] += float32(g * c3)
		ctx[i] = c0 + float32(g*e0)
		ctx[i+1] = c1 + float32(g*e1)
		ctx[i+2] = c2 + float32(g*e2)
		ctx[i+3] = c3 + float32(g*e3)
		s0 += float32(e0 * next[i])
		s1 += float32(e1 * next[i+1])
		s2 += float32(e2 * next[i+2])
		s3 += float32(e3 * next[i+3])
	}
	for ; i < n; i++ {
		c, e := ctx[i], emb[i]
		neu1e[i] += float32(g * c)
		ctx[i] = c + float32(g*e)
		s0 += float32(e * next[i])
	}
	return ((s0 + s1) + s2) + s3
}
