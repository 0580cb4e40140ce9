package vocab

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"graphword2vec/internal/xrand"
)

func buildFrom(t *testing.T, text string, opts Options) *Vocabulary {
	t.Helper()
	b, err := CountFromTokens(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestBuildBasic(t *testing.T) {
	v := buildFrom(t, "the quick brown fox jumps over the lazy dog", Options{MinCount: 1})
	if v.Size() != 8 {
		t.Fatalf("Size = %d, want 8 unique words", v.Size())
	}
	if v.TotalWords() != 9 {
		t.Fatalf("TotalWords = %d, want 9", v.TotalWords())
	}
	// "the" occurs twice so must get id 0 (frequency order).
	if v.ID("the") != 0 {
		t.Errorf(`ID("the") = %d, want 0`, v.ID("the"))
	}
	if v.Count(0) != 2 {
		t.Errorf("Count(0) = %d, want 2", v.Count(0))
	}
	if v.ID("unicorn") != -1 {
		t.Error("OOV word should map to -1")
	}
	if v.Text(v.ID("fox")) != "fox" {
		t.Error("Text(ID(w)) != w")
	}
}

func TestBuildDeterministicIDs(t *testing.T) {
	// Equal counts must tie-break lexicographically so all hosts agree.
	v := buildFrom(t, "b a c b a c", Options{MinCount: 1})
	if v.Text(0) != "a" || v.Text(1) != "b" || v.Text(2) != "c" {
		t.Errorf("tie-break order: %q %q %q", v.Text(0), v.Text(1), v.Text(2))
	}
}

func TestMinCountFilters(t *testing.T) {
	v := buildFrom(t, "a a a b b c", Options{MinCount: 2})
	if v.Size() != 2 {
		t.Fatalf("Size = %d, want 2", v.Size())
	}
	if v.ID("c") != -1 {
		t.Error("word below MinCount retained")
	}
	if v.TotalWords() != 5 {
		t.Errorf("TotalWords = %d, want 5 (filtered words excluded)", v.TotalWords())
	}
}

func TestBuildRejectsBadOptions(t *testing.T) {
	b := NewBuilder()
	b.Add("x")
	if _, err := b.Build(Options{MinCount: -1}); err == nil {
		t.Error("negative MinCount accepted")
	}
	if _, err := b.Build(Options{Sample: -0.5}); err == nil {
		t.Error("negative Sample accepted")
	}
	if _, err := b.Build(Options{Sample: math.NaN()}); err == nil {
		t.Error("NaN Sample accepted")
	}
}

func TestBuilderMerge(t *testing.T) {
	a := NewBuilder()
	a.Add("x")
	a.AddN("y", 3)
	b := NewBuilder()
	b.AddN("y", 2)
	b.Add("z")
	a.Merge(b)
	v, err := a.Build(Options{MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Count(v.ID("y")) != 5 {
		t.Errorf("merged count for y = %d, want 5", v.Count(v.ID("y")))
	}
	if a.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", a.Distinct())
	}
}

func TestSubsamplingDisabled(t *testing.T) {
	v := buildFrom(t, "a a a a b", Options{MinCount: 1, Sample: 0})
	r := xrand.New(1)
	for i := 0; i < 100; i++ {
		if !v.Keep(0, r) {
			t.Fatal("with Sample=0 every occurrence must be kept")
		}
	}
	if v.KeepProb(0) != 1 {
		t.Errorf("KeepProb = %v, want 1", v.KeepProb(0))
	}
}

func TestSubsamplingDownweightsFrequent(t *testing.T) {
	// One very frequent word and several rare ones.
	var sb strings.Builder
	for i := 0; i < 10000; i++ {
		sb.WriteString("the ")
	}
	for i := 0; i < 10; i++ {
		sb.WriteString("rare ")
	}
	v := buildFrom(t, sb.String(), Options{MinCount: 1, Sample: 1e-3})
	pFreq := v.KeepProb(v.ID("the"))
	pRare := v.KeepProb(v.ID("rare"))
	if pFreq >= pRare {
		t.Errorf("frequent word keep prob %v >= rare word %v", pFreq, pRare)
	}
	if pRare != 1 {
		t.Errorf("rare word keep prob = %v, want 1 (f < t)", pRare)
	}
	// Formula check: keep = (sqrt(f/t)+1)*t/f.
	f := 10000.0 / 10010.0
	want := (math.Sqrt(f/1e-3) + 1) * 1e-3 / f
	if math.Abs(float64(pFreq)-want) > 1e-6 {
		t.Errorf("keep prob = %v, want %v", pFreq, want)
	}
}

func TestKeepEmpirical(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		sb.WriteString("w ")
	}
	sb.WriteString("x")
	v := buildFrom(t, sb.String(), Options{MinCount: 1, Sample: 1e-3})
	id := v.ID("w")
	want := float64(v.KeepProb(id))
	r := xrand.New(9)
	kept := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if v.Keep(id, r) {
			kept++
		}
	}
	got := float64(kept) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical keep rate %v, want %v", got, want)
	}
}

func TestVocabularyRoundTripProperty(t *testing.T) {
	// Property: for any multiset of words, Build assigns a bijection
	// between retained words and [0, Size), with ID/Text inverse.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(50)
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddN(string(rune('a'+r.Intn(26)))+string(rune('a'+r.Intn(26))), int64(1+r.Intn(10)))
		}
		v, err := b.Build(Options{MinCount: 1})
		if err != nil {
			return false
		}
		for id := int32(0); id < int32(v.Size()); id++ {
			if v.ID(v.Text(id)) != id {
				return false
			}
		}
		// Counts must be non-increasing in id.
		for id := int32(1); id < int32(v.Size()); id++ {
			if v.Count(id) > v.Count(id-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnigramTableDistribution(t *testing.T) {
	v := buildFrom(t, strings.Repeat("a ", 160)+strings.Repeat("b ", 10)+"c", Options{MinCount: 1})
	ut, err := NewUnigramTable(v)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(4)
	counts := map[int32]int{}
	const draws = 300000
	for i := 0; i < draws; i++ {
		counts[ut.Sample(r)]++
	}
	// Expected ratio a:b = (160/10)^0.75 = 16^0.75 = 8.
	ratio := float64(counts[v.ID("a")]) / float64(counts[v.ID("b")])
	if ratio < 7 || ratio > 9 {
		t.Errorf("a:b sampling ratio = %v, want ~8 (unigram^0.75)", ratio)
	}
}

func TestUnigramSampleExcluding(t *testing.T) {
	v := buildFrom(t, "a a b", Options{MinCount: 1})
	ut, err := NewUnigramTable(v)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(11)
	ex := v.ID("a")
	dst := make([]int32, 15)
	for i := 0; i < 100; i++ {
		got := ut.SampleExcludingN(r, ex, dst)
		if len(got) != len(dst) {
			t.Fatalf("SampleExcludingN filled %d of %d", len(got), len(dst))
		}
		for _, s := range got {
			if s == ex {
				t.Fatal("SampleExcludingN returned the excluded id")
			}
		}
	}
}

func TestUnigramSingleWordVocab(t *testing.T) {
	v := buildFrom(t, "only only", Options{MinCount: 1})
	ut, err := NewUnigramTable(v)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	before := r.State()
	if got := ut.SampleExcludingN(r, 0, make([]int32, 5)); len(got) != 0 {
		t.Errorf("single-word SampleExcludingN = %v, want no negatives", got)
	}
	if r.State() != before {
		t.Error("single-word SampleExcludingN consumed variates")
	}
}

func TestUnigramEmptyVocabError(t *testing.T) {
	b := NewBuilder()
	v, err := b.Build(Options{MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUnigramTable(v); err == nil {
		t.Error("empty vocabulary accepted by NewUnigramTable")
	}
}

func BenchmarkVocabBuild(b *testing.B) {
	builder := NewBuilder()
	r := xrand.New(1)
	for i := 0; i < 50000; i++ {
		builder.AddN(string(rune('a'+r.Intn(26)))+string(rune('a'+r.Intn(26)))+string(rune('a'+r.Intn(26))), int64(1+r.Intn(100)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(Options{MinCount: 1, Sample: 1e-4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnigramSample(b *testing.B) {
	builder := NewBuilder()
	r := xrand.New(1)
	for i := 0; i < 10000; i++ {
		builder.AddN(string(rune('a'+i%26))+string(rune('0'+(i/26)%10))+string(rune('0'+i/260)), int64(1+r.Intn(1000)))
	}
	v, err := builder.Build(Options{MinCount: 1})
	if err != nil {
		b.Fatal(err)
	}
	ut, err := NewUnigramTable(v)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += ut.Sample(r)
	}
	_ = sink
}
