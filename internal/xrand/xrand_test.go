package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the public-domain splitmix64.c with seed 0:
	// first outputs are 0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4.
	s := NewSplitMix64(0)
	got1 := s.Next()
	got2 := s.Next()
	if got1 != 0xe220a8397b1dcdaf {
		t.Errorf("first output = %#x, want 0xe220a8397b1dcdaf", got1)
	}
	if got2 != 0x6e789e6aa1b965f4 {
		t.Errorf("second output = %#x, want 0x6e789e6aa1b965f4", got2)
	}
}

func TestRandDeterministicAndSplitIndependent(t *testing.T) {
	a := New(7)
	b := New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	// Split streams must not mirror the parent.
	parent := New(7)
	child := parent.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("parent and split child matched %d/64 draws; streams not independent", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %v", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(123)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid entry %d", n, v)
			}
			seen[v] = true
		}
	}
}

// fnvFold folds v into an FNV-1a-style 64-bit stream hash.
func fnvFold(h, v uint64) uint64 { return (h ^ v) * 0x100000001b3 }

// TestIntnAndDrawGoldenStreams pins Intn's and Alias.Draw's output
// streams to values recorded before Intn's 128-bit product moved to
// math/bits.Mul64: the first draws, a hash of 10 000 draws and the final
// generator state. The bounds carry the product edge cases (n = 1, 2,
// 2^32, 2^32+1 and the largest int, whose products with a random word
// fill both 64-bit halves) and the alias tables include zero weights,
// a single outcome and an eighteen-decade spread.
func TestIntnAndDrawGoldenStreams(t *testing.T) {
	stream := func(draw func() int) (first [4]int, h uint64) {
		h = 0xcbf29ce484222325
		for k := 0; k < 10000; k++ {
			v := draw()
			if k < len(first) {
				first[k] = v
			}
			h = fnvFold(h, uint64(v))
		}
		return first, h
	}
	intn := []struct {
		n     int
		seed  uint64
		first [4]int
		hash  uint64
		state [4]uint64
	}{
		{1, 1000, [4]int{0, 0, 0, 0}, 0xa6e4f0723147f065, [4]uint64{0xe95f577ce2abed66, 0x3a456895675fc57e, 0x979119ea7210566, 0xe686a5aa2110a0e2}},
		{2, 1001, [4]int{0, 0, 1, 1}, 0x7b6a9414c3778a02, [4]uint64{0xa507e02f226f36b8, 0xbe9cbf0659ff37af, 0x13ecddd5aee335e2, 0x71cceaeee440900d}},
		{3, 1002, [4]int{2, 2, 0, 0}, 0xeaa70463e1efec91, [4]uint64{0x3de4508a22a97fd, 0xa49c798c29d248de, 0x9c287fd702a64e9e, 0x8513d02aaf873c46}},
		{10, 1003, [4]int{8, 7, 2, 2}, 0xb188b5ad32598551, [4]uint64{0xc36472a2b7319dfa, 0x33d2d418cf5e9308, 0xdd922195c357722, 0x41aabc573363fa07}},
		{1000, 1004, [4]int{278, 727, 867, 118}, 0x6d26624bab9a6eef, [4]uint64{0x5779c9ced39c93da, 0x7cd7dcceda51998f, 0x8b9843c14deb9476, 0xb270b57b75c8a65f}},
		{1 << 32, 1005, [4]int{2953812410, 4208929132, 2247812028, 1847327007}, 0xcc8184966ad20fce, [4]uint64{0x5174e71e4a0c31b7, 0xa39c1b84130969e7, 0xed876814c260b4be, 0xcf3f7ffbcdc410d}},
		{1<<32 + 1, 1006, [4]int{3088298120, 3965489640, 3771455796, 1238034115}, 0x8e0437b578374b11, [4]uint64{0xf9014e1583d3b016, 0xe792ae73e9d3f88d, 0x1141a023e1f0782a, 0x97aa958182265cc7}},
		{1<<62 + 12345, 1007, [4]int{3843947250659266983, 824335148234456817, 19050466913643199, 3802674486087761462}, 0xc0e8b689078f4df1, [4]uint64{0xa60696d8c1309025, 0xa346a658e3782cb0, 0xd11d19bc0c8cfb2c, 0x45fdf5d7280fb55c}},
		{math.MaxInt64, 1008, [4]int{1994937316159081228, 8743105391915089340, 2656026448352817760, 9027099860674047271}, 0x9e34d46d7edc66ab, [4]uint64{0xa2dd1a2ef3e4f2c, 0xcecdddd000331b3d, 0xbc1ff53f2cd36cd2, 0x13c20e054f45e8b}},
	}
	for _, c := range intn {
		r := New(c.seed)
		first, h := stream(func() int { return r.Intn(c.n) })
		if first != c.first || h != c.hash || r.State() != c.state {
			t.Errorf("Intn(%d) seed %d: first %v hash %#x state %#x, want %v %#x %#x", c.n, c.seed, first, h, r.State(), c.first, c.hash, c.state)
		}
	}
	draw := []struct {
		weights []float64
		seed    uint64
		first   [4]int
		hash    uint64
		state   [4]uint64
	}{
		{[]float64{1}, 2000, [4]int{0, 0, 0, 0}, 0xa6e4f0723147f065, [4]uint64{0x8159c3401f02d38e, 0x747a5b8614f39a0f, 0x8847e342deb22298, 0xf8d3fce029db8e8e}},
		{[]float64{1, 2, 3, 4, 0, 10}, 2001, [4]int{3, 5, 5, 5}, 0x47f8a21fca879928, [4]uint64{0x6c96675d5e088c5f, 0x3284dad251c4e305, 0x5462d225f38c1a09, 0xeb9744a0cea5e61b}},
		{[]float64{0.5, 0, 0, 7}, 2002, [4]int{3, 3, 0, 3}, 0x49abf887329fb526, [4]uint64{0x4e7db2a2830458e2, 0x463d4440e44018ee, 0x44c5a1589472ba4e, 0x3fa03a537efcdfe2}},
		{[]float64{1e-9, 1, 1e9}, 2003, [4]int{2, 2, 2, 2}, 0x38279acb39480725, [4]uint64{0x8c2cb41f95f3fe0, 0xda2335d1bf2813c9, 0x23e42e1fdfb9fd54, 0xf0bc81787560b1c9}},
	}
	for _, c := range draw {
		a, err := NewAlias(c.weights)
		if err != nil {
			t.Fatal(err)
		}
		r := New(c.seed)
		first, h := stream(func() int { return a.Draw(r) })
		if first != c.first || h != c.hash || r.State() != c.state {
			t.Errorf("Alias%v.Draw seed %d: first %v hash %#x state %#x, want %v %#x %#x", c.weights, c.seed, first, h, r.State(), c.first, c.hash, c.state)
		}
	}
}

func TestAliasRejectsBadWeights(t *testing.T) {
	bad := [][]float64{
		nil,
		{},
		{-1, 2},
		{0, 0},
		{math.NaN()},
		{math.Inf(1)},
	}
	for _, w := range bad {
		if _, err := NewAlias(w); err == nil {
			t.Errorf("NewAlias(%v) accepted invalid weights", w)
		}
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 0, 10}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := New(17)
	const draws = 400000
	counts := make([]float64, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Draw(r)]++
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		want := w / sum
		got := counts[i] / draws
		if math.Abs(got-want) > 0.005 {
			t.Errorf("outcome %d: frequency %v, want %v", i, got, want)
		}
	}
	if counts[4] != 0 {
		t.Errorf("zero-weight outcome drawn %v times", counts[4])
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a, err := NewAlias([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	r := New(2)
	for i := 0; i < 100; i++ {
		if a.Draw(r) != 0 {
			t.Fatal("single-outcome alias returned nonzero")
		}
	}
}

func TestAliasProbabilitiesProperty(t *testing.T) {
	// Property: for random weight vectors, empirical frequencies track the
	// normalised weights.
	f := func(seed uint64) bool {
		r := New(seed)
		n := 2 + r.Intn(20)
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64() + 0.01
		}
		a, err := NewAlias(w)
		if err != nil {
			return false
		}
		const draws = 50000
		counts := make([]float64, n)
		for i := 0; i < draws; i++ {
			counts[a.Draw(r)]++
		}
		var sum float64
		for _, x := range w {
			sum += x
		}
		for i := range w {
			if math.Abs(counts[i]/draws-w[i]/sum) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(1000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := New(8)
	const draws = 200000
	counts := make([]int, 1000)
	for i := 0; i < draws; i++ {
		counts[z.Draw(r)]++
	}
	// Rank 0 must be drawn roughly twice as often as rank 1 (1/1 vs 1/2).
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("rank0/rank1 ratio = %v, want ~2", ratio)
	}
	if counts[0] < counts[500] {
		t.Error("Zipf distribution not decreasing in rank")
	}
}

func TestZipfRejectsBadParams(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0,1) accepted")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("NewZipf(10,0) accepted")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Error("NewZipf(10,NaN) accepted")
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkAliasDraw(b *testing.B) {
	w := make([]float64, 100000)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -0.75)
	}
	a, err := NewAlias(w)
	if err != nil {
		b.Fatal(err)
	}
	r := New(1)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += a.Draw(r)
	}
	_ = sink
}

func TestStateRoundTrip(t *testing.T) {
	r := New(42)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	saved := r.State()
	want := make([]uint64, 20)
	for i := range want {
		want[i] = r.Uint64()
	}
	// Restoring the captured state must replay the identical stream,
	// both on the original generator and on a fresh one.
	r.SetState(saved)
	fresh := New(0)
	fresh.SetState(saved)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("restored stream diverges at %d: got %#x want %#x", i, got, w)
		}
		if got := fresh.Uint64(); got != w {
			t.Fatalf("fresh-restored stream diverges at %d: got %#x want %#x", i, got, w)
		}
	}
}

func TestSetStateRejectsAllZero(t *testing.T) {
	r := New(0)
	r.SetState([4]uint64{})
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("all-zero state wedged the generator")
	}
}
