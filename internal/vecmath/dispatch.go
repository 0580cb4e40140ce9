package vecmath

import "os"

// Runtime kernel dispatch. The package-level function variables below are
// the single indirection every public kernel goes through; they start on
// the portable generic kernels and are switched to the architecture's
// SIMD implementations by the per-arch init (simd_amd64.go) unless
// disabled. Disabling works at three levels:
//
//   - build time: the `purego` build tag compiles the SIMD files out
//     entirely (simd_stub.go),
//   - process start: GW2V_NOSIMD=1 in the environment keeps the generic
//     kernels installed,
//   - runtime: SetSIMD(false) swaps the generic kernels back in (used by
//     the SIMD on/off model-hash test and the equivalence tests).
//
// Every implementation is bit-identical to the generic kernels (the
// contract kernels_generic.go documents), so switching is a pure
// performance choice: trained models hash identically either way.
// SetSIMD swaps whole kernel sets and is not synchronised; call it only
// when no training goroutines are running.
var (
	dotImpl           = dotGeneric
	axpyImpl          = axpyGeneric
	scaleImpl         = scaleGeneric
	zeroImpl          = zeroGeneric
	addImpl           = addGeneric
	subImpl           = subGeneric
	updatePairImpl    = updatePairGeneric
	updatePairDotImpl = updatePairDotGeneric
	gemmImpl          = gemmGeneric
)

// simdKernels describes an architecture's kernel set, registered by the
// per-arch init before dispatch runs.
type simdKernels struct {
	name          string
	dot           func(a, b []float32) float32
	axpy          func(alpha float32, x, y []float32)
	scale         func(alpha float32, x []float32)
	zero          func(x []float32)
	add           func(dst, a, b []float32)
	sub           func(dst, a, b []float32)
	updatePair    func(emb, ctx, neu1e []float32, g float32)
	updatePairDot func(emb, ctx, neu1e []float32, g float32, next []float32) float32
	gemm          func(dst, a, b []float32, m, k, n int)
}

// arch is the registered SIMD kernel set, or nil when the build has none
// (non-amd64, or the purego tag).
var arch *simdKernels

// simdOn tracks which kernel set is currently installed.
var simdOn bool

// NoSIMDEnv is the environment variable that, when set to a non-empty
// value other than "0", keeps the portable kernels installed at startup.
const NoSIMDEnv = "GW2V_NOSIMD"

// initDispatch installs the architecture kernels unless disabled by the
// environment. Called from the per-arch init after registering arch.
func initDispatch() {
	if v := os.Getenv(NoSIMDEnv); v != "" && v != "0" {
		return
	}
	SetSIMD(true)
}

// SIMDAvailable reports whether this build carries SIMD kernels for the
// running architecture.
func SIMDAvailable() bool { return arch != nil }

// SIMDEnabled reports whether the SIMD kernels are currently installed.
func SIMDEnabled() bool { return simdOn }

// KernelName identifies the installed kernel set ("generic", "sse2").
func KernelName() string {
	if simdOn {
		return arch.name
	}
	return "generic"
}

// SetSIMD installs (enabled=true) or removes (enabled=false) the SIMD
// kernel set and reports whether SIMD kernels are now in use. Asking for
// SIMD on a build without kernels leaves the generic set installed and
// returns false. Not safe to call concurrently with running kernels.
func SetSIMD(enabled bool) bool {
	if enabled && arch != nil {
		dotImpl = arch.dot
		axpyImpl = arch.axpy
		scaleImpl = arch.scale
		zeroImpl = arch.zero
		addImpl = arch.add
		subImpl = arch.sub
		updatePairImpl = arch.updatePair
		updatePairDotImpl = arch.updatePairDot
		gemmImpl = arch.gemm
		simdOn = true
	} else {
		dotImpl = dotGeneric
		axpyImpl = axpyGeneric
		scaleImpl = scaleGeneric
		zeroImpl = zeroGeneric
		addImpl = addGeneric
		subImpl = subGeneric
		updatePairImpl = updatePairGeneric
		updatePairDotImpl = updatePairDotGeneric
		gemmImpl = gemmGeneric
		simdOn = false
	}
	return simdOn
}
