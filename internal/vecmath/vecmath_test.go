package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"graphword2vec/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randVec(r *xrand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func TestDotBasic(t *testing.T) {
	cases := []struct {
		a, b []float32
		want float32
	}{
		{nil, nil, 0},
		{[]float32{1}, []float32{2}, 2},
		{[]float32{1, 2, 3}, []float32{4, 5, 6}, 32},
		{[]float32{1, 2, 3, 4, 5}, []float32{1, 1, 1, 1, 1}, 15},
		{[]float32{-1, 2, -3, 4, -5, 6, -7, 8, -9}, []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}, -5},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); got != c.want {
			t.Errorf("Dot(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotMatchesNaive(t *testing.T) {
	r := xrand.New(1)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 200} {
		a, b := randVec(r, n), randVec(r, n)
		var want float64
		for i := range a {
			want += float64(a[i]) * float64(b[i])
		}
		got := float64(Dot(a, b))
		if !almostEq(got, want, 1e-3*(1+math.Abs(want))) {
			t.Errorf("n=%d: Dot = %v, naive = %v", n, got, want)
		}
	}
}

func TestAxpy(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5}
	y := []float32{10, 10, 10, 10, 10}
	Axpy(2, x, y)
	want := []float32{12, 14, 16, 18, 20}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy: y=%v, want %v", y, want)
		}
	}
}

func TestScaleZeroAddSub(t *testing.T) {
	x := []float32{2, -4, 6}
	Scale(0.5, x)
	if x[0] != 1 || x[1] != -2 || x[2] != 3 {
		t.Fatalf("Scale: %v", x)
	}
	Zero(x)
	for _, v := range x {
		if v != 0 {
			t.Fatalf("Zero: %v", x)
		}
	}
	a, b := []float32{1, 2}, []float32{3, 5}
	dst := make([]float32, 2)
	Add(dst, a, b)
	if dst[0] != 4 || dst[1] != 7 {
		t.Fatalf("Add: %v", dst)
	}
	Sub(dst, a, b)
	if dst[0] != -2 || dst[1] != -3 {
		t.Fatalf("Sub: %v", dst)
	}
}

func TestNorms(t *testing.T) {
	v := []float32{3, 4}
	if Norm2Sq(v) != 25 {
		t.Errorf("Norm2Sq = %v", Norm2Sq(v))
	}
	if Norm2(v) != 5 {
		t.Errorf("Norm2 = %v", Norm2(v))
	}
	Normalize(v)
	if !almostEq(float64(Norm2(v)), 1, 1e-6) {
		t.Errorf("Normalize: norm = %v", Norm2(v))
	}
	z := []float32{0, 0}
	Normalize(z) // must not NaN
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("Normalize(zero) changed vector: %v", z)
	}
}

func TestCosineSim(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := CosineSim(a, b); got != 0 {
		t.Errorf("orthogonal cosine = %v", got)
	}
	if got := CosineSim(a, a); !almostEq(float64(got), 1, 1e-6) {
		t.Errorf("self cosine = %v", got)
	}
	c := []float32{-2, 0}
	if got := CosineSim(a, c); !almostEq(float64(got), -1, 1e-6) {
		t.Errorf("opposite cosine = %v", got)
	}
	if got := CosineSim(a, []float32{0, 0}); got != 0 {
		t.Errorf("zero-vector cosine = %v", got)
	}
}

// Property (paper §3, Eq. 4): after ProjectOut(g, c), g ⟂ c and the norm
// never grows.
func TestProjectOutProperties(t *testing.T) {
	r := xrand.New(42)
	f := func(seed uint64) bool {
		rr := xrand.New(seed ^ r.Uint64())
		n := 1 + rr.Intn(64)
		g := randVec(rr, n)
		c := randVec(rr, n)
		before := float64(Norm2(g))
		ProjectOut(g, c)
		after := float64(Norm2(g))
		dot := float64(Dot(g, c))
		normC := float64(Norm2(c))
		// Orthogonality up to float32 rounding.
		if math.Abs(dot) > 1e-3*(1+normC*after) {
			return false
		}
		// Norm contraction.
		return after <= before*(1+1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProjectOutParallelVectors(t *testing.T) {
	g := []float32{2, 4, 6}
	c := []float32{1, 2, 3}
	ProjectOut(g, c)
	if n := Norm2(g); n > 1e-5 {
		t.Errorf("projecting parallel vector should annihilate it; norm = %v", n)
	}
}

func TestProjectOutOrthogonalVectorsUnchanged(t *testing.T) {
	g := []float32{1, 0, 0}
	c := []float32{0, 1, 0}
	ProjectOut(g, c)
	if g[0] != 1 || g[1] != 0 || g[2] != 0 {
		t.Errorf("orthogonal projection changed g: %v", g)
	}
}

func TestProjectOutZeroBase(t *testing.T) {
	g := []float32{1, 2, 3}
	ProjectOut(g, []float32{0, 0, 0})
	if g[0] != 1 || g[1] != 2 || g[2] != 3 {
		t.Errorf("zero base should be a no-op: %v", g)
	}
}

func TestSigmoidAgainstExact(t *testing.T) {
	for x := -8.0; x <= 8.0; x += 0.01 {
		got := float64(Sigmoid(float32(x)))
		want := SigmoidExact(x)
		tol := 0.02
		if x >= MaxExp {
			if got != 1 {
				t.Fatalf("Sigmoid(%v) = %v, want saturated 1", x, got)
			}
			continue
		}
		if x <= -MaxExp {
			if got != 0 {
				t.Fatalf("Sigmoid(%v) = %v, want saturated 0", x, got)
			}
			continue
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("Sigmoid(%v) = %v, exact %v", x, got, want)
		}
	}
}

// A NaN score (a diverged model) must come back as NaN, not index the
// table at int(NaN) and panic.
func TestSigmoidNaN(t *testing.T) {
	for _, bits := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0x7fbfffff, 0xffffffff} {
		x := math.Float32frombits(bits)
		if got := Sigmoid(x); got == got {
			t.Errorf("Sigmoid(NaN %#x) = %v, want NaN", bits, got)
		}
	}
	if Sigmoid(float32(math.Inf(1))) != 1 || Sigmoid(float32(math.Inf(-1))) != 0 {
		t.Error("Sigmoid(±Inf) must saturate to 1 and 0")
	}
}

func TestSigmoidMonotone(t *testing.T) {
	prev := float32(-1)
	for x := float32(-7); x <= 7; x += 0.05 {
		v := Sigmoid(x)
		if v < prev {
			t.Fatalf("Sigmoid not monotone at %v: %v < %v", x, v, prev)
		}
		prev = v
	}
}

func TestSigmoidSymmetry(t *testing.T) {
	if err := quick.Check(func(x float64) bool {
		x = math.Mod(x, MaxExp)
		s := SigmoidExact(x) + SigmoidExact(-x)
		return almostEq(s, 1, 1e-12)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMatrixRowViews(t *testing.T) {
	m := NewMatrix(3, 4)
	r1 := m.Row(1)
	r1[0] = 42
	if m.Data[4] != 42 {
		t.Error("Row is not a view into Data")
	}
	if len(r1) != 4 || cap(r1) != 4 {
		t.Errorf("Row len/cap = %d/%d, want 4/4", len(r1), cap(r1))
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(0)[0] = 1
	c := m.Clone()
	c.Row(0)[0] = 99
	if m.Row(0)[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestMatrixCopyFromAndSubInto(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	for i := range a.Data {
		a.Data[i] = float32(i)
		b.Data[i] = 1
	}
	d := NewMatrix(2, 3)
	a.SubInto(d, b)
	for i := range d.Data {
		if d.Data[i] != float32(i)-1 {
			t.Fatalf("SubInto wrong at %d: %v", i, d.Data[i])
		}
	}
	b.CopyFrom(a)
	for i := range b.Data {
		if b.Data[i] != a.Data[i] {
			t.Fatal("CopyFrom mismatch")
		}
	}
}

func TestMatrixShapePanics(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(3, 2)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic on shape mismatch", name)
			}
		}()
		f()
	}
	mustPanic("CopyFrom", func() { a.CopyFrom(b) })
	mustPanic("SubInto", func() { a.SubInto(NewMatrix(2, 2), b) })
	mustPanic("NewMatrix", func() { NewMatrix(-1, 2) })
}

func TestMatrixMemoryBytes(t *testing.T) {
	m := NewMatrix(10, 20)
	if got := m.MemoryBytes(); got != 800 {
		t.Errorf("MemoryBytes = %d, want 800", got)
	}
}

// benchKernelSets runs fn once per available kernel set ("simd",
// "generic") so every kernel benchmark reports both paths side by side.
func benchKernelSets(b *testing.B, fn func(b *testing.B)) {
	b.Helper()
	wasOn := SIMDEnabled()
	defer SetSIMD(wasOn)
	if SIMDAvailable() {
		SetSIMD(true)
		b.Run(KernelName(), fn)
	}
	SetSIMD(false)
	b.Run("generic", fn)
}

func BenchmarkDot200(b *testing.B) {
	r := xrand.New(1)
	x, y := randVec(r, 200), randVec(r, 200)
	benchKernelSets(b, func(b *testing.B) {
		b.ReportAllocs()
		var sink float32
		for i := 0; i < b.N; i++ {
			sink += Dot(x, y)
		}
		_ = sink
	})
}

func BenchmarkAxpy200(b *testing.B) {
	r := xrand.New(1)
	x, y := randVec(r, 200), randVec(r, 200)
	benchKernelSets(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Axpy(0.001, x, y)
		}
	})
}

func BenchmarkScale200(b *testing.B) {
	r := xrand.New(1)
	x := randVec(r, 200)
	benchKernelSets(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Scale(1.0000001, x)
		}
	})
}

func BenchmarkZero200(b *testing.B) {
	r := xrand.New(1)
	x := randVec(r, 200)
	benchKernelSets(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Zero(x)
		}
	})
}

func BenchmarkAdd200(b *testing.B) {
	r := xrand.New(1)
	x, y := randVec(r, 200), randVec(r, 200)
	dst := make([]float32, 200)
	benchKernelSets(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Add(dst, x, y)
		}
	})
}

func BenchmarkSub200(b *testing.B) {
	r := xrand.New(1)
	x, y := randVec(r, 200), randVec(r, 200)
	dst := make([]float32, 200)
	benchKernelSets(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Sub(dst, x, y)
		}
	})
}

// BenchmarkUpdatePair200 measures the fused SGNS edge update against the
// two-Axpy sequence it replaces.
func BenchmarkUpdatePair200(b *testing.B) {
	r := xrand.New(1)
	emb, ctx, neu := randVec(r, 200), randVec(r, 200), randVec(r, 200)
	benchKernelSets(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			UpdatePair(emb, ctx, neu, 1e-7)
		}
	})
}

// BenchmarkTwoAxpys200 is the unfused baseline UpdatePair replaces.
func BenchmarkTwoAxpys200(b *testing.B) {
	r := xrand.New(1)
	emb, ctx, neu := randVec(r, 200), randVec(r, 200), randVec(r, 200)
	benchKernelSets(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Axpy(1e-7, ctx, neu)
			Axpy(1e-7, emb, ctx)
		}
	})
}

func BenchmarkSigmoid(b *testing.B) {
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += Sigmoid(float32(i%12) - 6)
	}
	_ = sink
}
