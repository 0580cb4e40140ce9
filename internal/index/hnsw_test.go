package index

import (
	"fmt"
	"runtime"
	"testing"

	"graphword2vec/internal/model"
	"graphword2vec/internal/xrand"
)

// buildWorkers is the worker count the tests build with: more than one,
// so every test also runs the concurrent build.
const buildWorkers = 2

func buildTest(t *testing.T, vocab, dim int, seed uint64) (*Normalized, *HNSW) {
	t.Helper()
	return buildModel(t, testModel(t, vocab, dim, seed))
}

func buildModel(t *testing.T, m *model.Model) (*Normalized, *HNSW) {
	t.Helper()
	n := NewNormalized(m)
	h := BuildHNSW(n, DefaultHNSWConfig(), buildWorkers)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	return n, h
}

// clusteredModel places vocab rows around clusters random centres, each
// row its centre plus Gaussian noise of the given spread: the shape of
// trained embeddings, whose words crowd into topical neighbourhoods.
// Rows are grouped by cluster in id order, so one insertion batch can
// hold most of a cluster whose members have no frozen node near them —
// the adversarial order for a batch build, whose batch nodes cannot
// link to each other.
func clusteredModel(vocab, dim, clusters int, spread float64, seed uint64) *model.Model {
	r := xrand.New(seed)
	centres := make([][]float32, clusters)
	for c := range centres {
		centres[c] = make([]float32, dim)
		for j := range centres[c] {
			centres[c][j] = float32(r.NormFloat64())
		}
	}
	m := model.New(vocab, dim)
	for i := 0; i < vocab; i++ {
		row, centre := m.EmbRow(int32(i)), centres[i*clusters/vocab]
		for j := range row {
			row[j] = centre[j] + float32(spread*r.NormFloat64())
		}
	}
	return m
}

func TestHNSWDeterministicBuild(t *testing.T) {
	m := testModel(t, 300, 16, 5)
	n := NewNormalized(m)
	a := BuildHNSW(n, DefaultHNSWConfig(), 1)
	b := BuildHNSW(n, DefaultHNSWConfig(), 1)
	if !a.Equal(b) {
		t.Fatalf("builds differ: layers %d/%d entry %d/%d", a.Layers(), b.Layers(), a.entry, b.entry)
	}
	q := n.Row(17)
	ra, rb := a.Search(q, 10), b.Search(q, 10)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("search differs at %d: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestHNSWTinyAndEmpty(t *testing.T) {
	// Empty index: no panic, no results.
	empty := &HNSW{norm: NewNormalized(model.New(1, 4)), entry: -1}
	if got := empty.Search(make([]float32, 4), 3); len(got) != 0 {
		t.Fatalf("empty index returned %v", got)
	}
	// One- and two-row indexes.
	for _, vocab := range []int{1, 2, 3} {
		n, h := buildTest(t, vocab, 8, 2)
		got := h.Search(n.Row(0), vocab)
		if len(got) != vocab {
			t.Fatalf("vocab=%d: got %d results, want %d", vocab, len(got), vocab)
		}
		if got[0].ID != 0 {
			t.Fatalf("vocab=%d: self not first: %+v", vocab, got)
		}
	}
}

func TestHNSWSelfIsTopHit(t *testing.T) {
	n, h := buildTest(t, 500, 24, 4)
	for _, id := range []int32{0, 7, 123, 499} {
		got := h.Search(n.Row(int(id)), 1)
		if len(got) != 1 || got[0].ID != id {
			t.Fatalf("query for own row %d returned %+v", id, got)
		}
	}
}

func TestHNSWExcludeSkipsIDs(t *testing.T) {
	n, h := buildTest(t, 200, 16, 6)
	s := NewSearcher(h)
	got := h.SearchWith(s, nil, n.Row(9), 5, 0, []int32{9})
	for _, c := range got {
		if c.ID == 9 {
			t.Fatalf("excluded id 9 present in %+v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("got %d results, want 5", len(got))
	}
}

// recallAt10 measures overlap between the HNSW and exact top-10 over
// every nq-th row used as a query (self excluded from both).
func recallAt10(n *Normalized, h *HNSW, ef int) float64 {
	const k = 10
	s := NewSearcher(h)
	var hits, total int
	for id := int32(0); id < int32(n.Rows()); id += 7 {
		q := n.Row(int(id))
		exact := n.TopK(nil, q, k, id)
		approx := h.SearchWith(s, nil, q, k, ef, []int32{id})
		want := make(map[int32]bool, k)
		for _, c := range exact {
			want[c.ID] = true
		}
		for _, c := range approx {
			if want[c.ID] {
				hits++
			}
		}
		total += len(exact)
	}
	return float64(hits) / float64(total)
}

func TestHNSWRecall(t *testing.T) {
	// Random embeddings are the hard case for a proximity graph (no
	// cluster structure to exploit); the serving defaults must still
	// reach the recall@10 >= 0.99 DefaultHNSWConfig documents at a
	// synth-preset-sized vocabulary.
	n, h := buildTest(t, 2000, 32, 1)
	if r := recallAt10(n, h, 0); r < 0.99 {
		t.Fatalf("recall@10 = %.3f at default ef, want >= 0.99", r)
	}
	// A wider beam must not hurt recall materially.
	if r0, r1 := recallAt10(n, h, 64), recallAt10(n, h, 256); r1+1e-9 < r0-0.02 {
		t.Fatalf("recall fell with wider beam: ef=64 %.3f vs ef=256 %.3f", r0, r1)
	}
}

// TestHNSWRecallClustered: trained embeddings are clustered, and a
// batch's nodes cannot link to each other, so a batch landing inside
// one new cluster is where the batch build loses links the serial build
// kept (30-row clusters, batches of up to 30 rows). Recall must hold
// there too (measured 0.994, EXPERIMENTS.md).
func TestHNSWRecallClustered(t *testing.T) {
	n, h := buildModel(t, clusteredModel(3000, 32, 100, 0.3, 2))
	if r := recallAt10(n, h, 0); r < 0.99 {
		t.Fatalf("clustered recall@10 = %.3f at default ef, want >= 0.99", r)
	}
}

// TestHNSWBuildWorkersIdentical: the worker count changes only the
// build's speed, never the graph.
func TestHNSWBuildWorkersIdentical(t *testing.T) {
	for _, m := range []*model.Model{testModel(t, 800, 16, 3), clusteredModel(800, 16, 8, 0.3, 4)} {
		n := NewNormalized(m)
		want := BuildHNSW(n, DefaultHNSWConfig(), 1)
		for _, workers := range []int{2, 3, 8} {
			if got := BuildHNSW(n, DefaultHNSWConfig(), workers); !got.Equal(want) {
				t.Fatalf("%d workers built a different graph than 1 worker", workers)
			}
		}
	}
	// Equal must see a difference where there is one.
	n := NewNormalized(testModel(t, 800, 16, 3))
	cfg := DefaultHNSWConfig()
	cfg.Seed = 2
	if BuildHNSW(n, cfg, 1).Equal(BuildHNSW(n, DefaultHNSWConfig(), 1)) {
		t.Fatal("Equal reports graphs of different level seeds as equal")
	}
}

// TestHNSWBuildAllocs: a build allocates its graph, its score slots and
// per-worker scratch up front, then nothing per row — so the count does
// not grow with the index.
func TestHNSWBuildAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 4000 rows several times")
	}
	allocs := func(rows int) (float64, int) {
		n := NewNormalized(testModel(t, rows, 16, 1))
		var layers int
		a := testing.AllocsPerRun(2, func() { layers = BuildHNSW(n, DefaultHNSWConfig(), 1).Layers() })
		return a, layers
	}
	small, smallLayers := allocs(500)
	large, largeLayers := allocs(4000)
	// Each layer is three allocations of graph.NewAdjacency plus its
	// score slots.
	if limit := small + float64(4*(largeLayers-smallLayers)); large > limit {
		t.Fatalf("4000 rows: %.0f allocations, 500 rows: %.0f (%d vs %d layers); want at most %.0f", large, small, largeLayers, smallLayers, limit)
	}
	if small > 50 {
		t.Fatalf("500-row build made %.0f allocations, want a few dozen at most", small)
	}
}

func TestSearcherFits(t *testing.T) {
	_, h1 := buildTest(t, 100, 8, 1)
	_, h2 := buildTest(t, 200, 8, 1)
	s := NewSearcher(h1)
	if !s.Fits(h1) || s.Fits(h2) {
		t.Fatal("Searcher.Fits does not track index size")
	}
}

func BenchmarkExactTopK(b *testing.B) {
	m := model.New(8000, 48)
	m.InitRandom(1)
	n := NewNormalized(m)
	dst := make([]Candidate, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = n.TopK(dst, n.Row(i%n.Rows()), 10)
	}
}

// BenchmarkBuildHNSW times the index build at serve-reload's size on
// one worker and on every processor.
func BenchmarkBuildHNSW(b *testing.B) {
	m := model.New(8000, 48)
	m.InitRandom(1)
	n := NewNormalized(m)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildHNSW(n, DefaultHNSWConfig(), workers)
			}
		})
	}
}

func BenchmarkHNSWSearch(b *testing.B) {
	m := model.New(8000, 48)
	m.InitRandom(1)
	n := NewNormalized(m)
	h := BuildHNSW(n, DefaultHNSWConfig(), runtime.GOMAXPROCS(0))
	s := NewSearcher(h)
	dst := make([]Candidate, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = h.SearchWith(s, dst, n.Row(i%n.Rows()), 10, 0, nil)
	}
}
