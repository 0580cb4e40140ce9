package combine

import (
	"math"
	"testing"
	"testing/quick"

	"graphword2vec/internal/vecmath"
	"graphword2vec/internal/xrand"
)

func randDeltas(r *xrand.Rand, k, dim int) [][]float32 {
	ds := make([][]float32, k)
	for i := range ds {
		ds[i] = make([]float32, dim)
		for j := range ds[i] {
			ds[i][j] = float32(r.NormFloat64())
		}
	}
	return ds
}

func TestSumAndAvg(t *testing.T) {
	deltas := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	out := make([]float32, 2)
	Sum{}.Combine(out, deltas)
	if out[0] != 9 || out[1] != 12 {
		t.Errorf("Sum = %v", out)
	}
	Avg{}.Combine(out, deltas)
	if out[0] != 3 || out[1] != 4 {
		t.Errorf("Avg = %v", out)
	}
}

func TestAvgEmptyDeltas(t *testing.T) {
	out := []float32{9, 9}
	Avg{}.Combine(out, nil)
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("Avg(nil) = %v, want zeros", out)
	}
}

func TestModelCombinerSingleDelta(t *testing.T) {
	mc := NewModelCombiner(3)
	out := make([]float32, 3)
	d := []float32{1, -2, 3}
	mc.Combine(out, [][]float32{d})
	for i := range d {
		if out[i] != d[i] {
			t.Fatalf("single delta not passed through: %v", out)
		}
	}
}

// Paper §3 scenario (a): parallel gradients must NOT sum — the combined
// step must stay the size of one gradient, unlike Sum which doubles it.
func TestModelCombinerParallelGradients(t *testing.T) {
	g := []float32{1, 2, 3, 4}
	g2 := append([]float32(nil), g...)
	mc := NewModelCombiner(4)
	out := make([]float32, 4)
	mc.Combine(out, [][]float32{g, g2})
	if n, want := vecmath.Norm2(out), vecmath.Norm2(g); math.Abs(float64(n-want)) > 1e-5 {
		t.Errorf("parallel combine norm = %v, want %v (one gradient)", n, want)
	}
}

// Paper §3 scenario (b): orthogonal gradients must add fully.
func TestModelCombinerOrthogonalGradients(t *testing.T) {
	g1 := []float32{1, 0, 0}
	g2 := []float32{0, 2, 0}
	mc := NewModelCombiner(3)
	out := make([]float32, 3)
	mc.Combine(out, [][]float32{g1, g2})
	if out[0] != 1 || out[1] != 2 || out[2] != 0 {
		t.Errorf("orthogonal combine = %v, want [1 2 0]", out)
	}
}

// Paper §3 scenario (c): in-between gradients — the second contribution
// is its projection onto the orthogonal complement of the first.
func TestModelCombinerProjection(t *testing.T) {
	g1 := []float32{1, 0}
	g2 := []float32{1, 1}
	mc := NewModelCombiner(2)
	out := make([]float32, 2)
	mc.Combine(out, [][]float32{g1, g2})
	// g2' = g2 - (g1·g2/‖g1‖²)g1 = (0,1); combined = (1,1).
	if math.Abs(float64(out[0]-1)) > 1e-6 || math.Abs(float64(out[1]-1)) > 1e-6 {
		t.Errorf("combine = %v, want [1 1]", out)
	}
}

// Validity property (paper Eq. 3/4): each accepted component h_i satisfies
// ‖h_i‖ ≤ ‖d_i‖ and h_i·d_i ≥ 0. We verify the directly observable
// consequence: the combined step never exceeds the sum of individual
// norms, and for two deltas the second's contribution is valid.
func TestModelCombinerValidityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		dim := 2 + r.Intn(32)
		k := 2 + r.Intn(6)
		deltas := randDeltas(r, k, dim)
		mc := NewModelCombiner(dim)
		out := make([]float32, dim)
		mc.Combine(out, deltas)

		// Norm bound: ‖c‖² = Σ‖h_i‖² (orthogonal accumulation is not
		// exact here because we project against the running sum, but the
		// triangle-style bound still holds).
		var sumNorm float64
		for _, d := range deltas {
			sumNorm += float64(vecmath.Norm2(d))
		}
		if float64(vecmath.Norm2(out)) > sumNorm*1.001 {
			return false
		}

		// Two-delta validity: contribution of delta 2 is valid w.r.t. it.
		two := deltas[:2]
		mc2 := NewModelCombiner(dim)
		out2 := make([]float32, dim)
		mc2.Combine(out2, two)
		contrib := make([]float32, dim)
		vecmath.Sub(contrib, out2, two[0])
		return ValidDirection(contrib, two[1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The combined step must never be longer than the same deltas under Sum:
// MC is Sum with redundancy removed.
func TestModelCombinerNeverExceedsSum(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		dim := 2 + r.Intn(16)
		k := 2 + r.Intn(8)
		deltas := randDeltas(r, k, dim)
		mcOut := make([]float32, dim)
		NewModelCombiner(dim).Combine(mcOut, deltas)
		// Σ‖dᵢ‖ bounds both, but MC specifically bounds each folded
		// component by the remaining delta norm, so ‖mc‖ ≤ Σᵢ‖dᵢ‖ always
		// and ‖mc‖² ≤ Σ‖dᵢ‖² when deltas are mutually orthogonalised.
		var sumSq float64
		for _, d := range deltas {
			sumSq += float64(vecmath.Norm2Sq(d))
		}
		return float64(vecmath.Norm2Sq(mcOut)) <= sumSq*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGramSchmidtMatchesMCForTwo(t *testing.T) {
	// With exactly two deltas, both combiners perform the identical single
	// projection, so they must agree.
	r := xrand.New(77)
	for trial := 0; trial < 50; trial++ {
		dim := 2 + r.Intn(16)
		deltas := randDeltas(r, 2, dim)
		a := make([]float32, dim)
		b := make([]float32, dim)
		NewModelCombiner(dim).Combine(a, deltas)
		NewGramSchmidtCombiner(dim, 2).Combine(b, deltas)
		for i := range a {
			if math.Abs(float64(a[i]-b[i])) > 1e-4 {
				t.Fatalf("trial %d: MC %v != GS %v", trial, a, b)
			}
		}
	}
}

func TestGramSchmidtOrthogonalComponents(t *testing.T) {
	r := xrand.New(5)
	dim := 8
	deltas := randDeltas(r, 4, dim)
	g := NewGramSchmidtCombiner(dim, 4)
	out := make([]float32, dim)
	g.Combine(out, deltas)
	// All retained components must be pairwise orthogonal.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			ci, cj := g.comps[i][:dim], g.comps[j][:dim]
			d := float64(vecmath.Dot(ci, cj))
			if math.Abs(d) > 1e-3*float64(vecmath.Norm2(ci))*float64(vecmath.Norm2(cj))+1e-6 {
				t.Errorf("components %d,%d not orthogonal: dot=%v", i, j, d)
			}
		}
	}
}

func TestGramSchmidtGrowsBeyondMax(t *testing.T) {
	g := NewGramSchmidtCombiner(3, 1)
	out := make([]float32, 3)
	deltas := randDeltas(xrand.New(2), 5, 3)
	g.Combine(out, deltas) // must not panic
}

func TestValidDirection(t *testing.T) {
	g := []float32{2, 0}
	if !ValidDirection([]float32{1, 0}, g) {
		t.Error("shorter aligned direction rejected")
	}
	if ValidDirection([]float32{3, 0}, g) {
		t.Error("longer direction accepted")
	}
	if ValidDirection([]float32{-1, 0}, g) {
		t.Error("ascent direction accepted")
	}
	if !ValidDirection([]float32{0, 1}, g) {
		t.Error("orthogonal direction rejected")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"SUM", "AVG", "MC", "MC-GS"} {
		c := ByName(name, 8)
		if c == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if c.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, c.Name())
		}
	}
	if ByName("nope", 8) != nil {
		t.Error("unknown name accepted")
	}
}

func TestCombinersDeterministic(t *testing.T) {
	r := xrand.New(31)
	deltas := randDeltas(r, 5, 12)
	for _, name := range []string{"SUM", "AVG", "MC", "MC-GS"} {
		a := make([]float32, 12)
		b := make([]float32, 12)
		ByName(name, 12).Combine(a, deltas)
		ByName(name, 12).Combine(b, deltas)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s not deterministic", name)
			}
		}
	}
}

func BenchmarkModelCombiner32Hosts(b *testing.B) {
	r := xrand.New(1)
	deltas := randDeltas(r, 32, 400)
	mc := NewModelCombiner(400)
	out := make([]float32, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Combine(out, deltas)
	}
}

func BenchmarkAvg32Hosts(b *testing.B) {
	r := xrand.New(1)
	deltas := randDeltas(r, 32, 400)
	out := make([]float32, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Avg{}.Combine(out, deltas)
	}
}

// ValidDirection reports whether h is a valid update direction with
// respect to the true delta g in the paper's §3 sense:
// (1) hᵀg ≥ 0 (moving along h does not increase the loss whose gradient
// is g, to first order) and (2) ‖h‖ ≤ ‖g‖ (the step is no longer than the
// sequential step). Used by the property-based tests.
func ValidDirection(h, g []float32) bool {
	const slack = 1.001 // float32 rounding headroom
	if vecmath.Dot(h, g) < -1e-4*vecmath.Norm2(h)*vecmath.Norm2(g) {
		return false
	}
	return vecmath.Norm2(h) <= vecmath.Norm2(g)*slack
}
