//go:build amd64 && !purego

package vecmath

// SSE2 kernel set (simd_amd64.s). SSE2 is part of the amd64 baseline, so
// no CPUID probing is needed; dispatch is purely a build/env/runtime
// switch. The kernels process 4 lanes per step — the exact shape of the
// generic kernels' 4-way unroll — with no FMA contraction (SSE2 has
// none), which is what makes them bit-identical to the portable code.

//go:noescape
func dotSSE2(a, b []float32) float32

//go:noescape
func axpySSE2(alpha float32, x, y []float32)

//go:noescape
func scaleSSE2(alpha float32, x []float32)

//go:noescape
func zeroSSE2(x []float32)

//go:noescape
func addSSE2(dst, a, b []float32)

//go:noescape
func subSSE2(dst, a, b []float32)

//go:noescape
func updatePairSSE2(emb, ctx, neu1e []float32, grad float32)

//go:noescape
func updatePairDotSSE2(emb, ctx, neu1e []float32, grad float32, next []float32) float32

//go:noescape
func gemmSSE2(dst, a, b []float32, m, k, n int)

func init() {
	arch = &simdKernels{
		name:          "sse2",
		dot:           dotSSE2,
		axpy:          axpySSE2,
		scale:         scaleSSE2,
		zero:          zeroSSE2,
		add:           addSSE2,
		sub:           subSSE2,
		updatePair:    updatePairSSE2,
		updatePairDot: updatePairDotSSE2,
		gemm:          gemmSSE2,
	}
	initDispatch()
}
