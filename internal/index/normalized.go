// Package index holds the read-only query-side view of a trained model:
// a row-normalized copy of the embedding layer computed once
// (Normalized), exact top-k scoring over it, and a graph-based
// approximate nearest-neighbour index (HNSW: search in hnsw.go, the
// batch-parallel build in build.go) layered on internal/graph's
// adjacency storage.
//
// The package exists so that every query path — the eval package's
// analogy/neighbour scoring and the serving daemon's /v1 endpoints
// (API.md) — shares one precomputed index instead of renormalizing the
// whole matrix per call. All structures are immutable after construction
// and safe for concurrent readers; scoring goes through the vecmath
// SIMD Dot kernels.
package index

import (
	"slices"
	"sort"

	"graphword2vec/internal/model"
	"graphword2vec/internal/vecmath"
)

// Candidate is one scored row: the vocabulary/node id and its similarity
// (dot product over unit vectors, i.e. cosine).
type Candidate struct {
	ID    int32
	Score float32
}

// Normalized is a unit-norm copy of a model's embedding layer. Rows are
// normalized exactly once at construction; Dot order over the rows then
// equals cosine order, so nearest-neighbour scoring is a plain scan of
// SIMD dot products.
type Normalized struct {
	mat *vecmath.Matrix
}

// NewNormalized builds the normalized view of m's embedding layer.
func NewNormalized(m *model.Model) *Normalized {
	normed := m.Emb.Clone()
	for i := 0; i < normed.Rows; i++ {
		vecmath.Normalize(normed.Row(i))
	}
	return &Normalized{mat: normed}
}

// Rows returns the number of indexed rows (the vocabulary size).
func (n *Normalized) Rows() int { return n.mat.Rows }

// Dim returns the embedding dimensionality.
func (n *Normalized) Dim() int { return n.mat.Cols }

// Row returns row id as a unit vector (a view; callers must not write).
func (n *Normalized) Row(id int) []float32 { return n.mat.Row(id) }

// MemoryBytes returns the index's in-memory footprint.
func (n *Normalized) MemoryBytes() int64 { return n.mat.MemoryBytes() }

// better reports whether a ranks strictly before b under the canonical
// result order: score descending, id ascending. Every query path —
// exact scan, HNSW re-rank, eval's full sort — uses this one ordering,
// which is what keeps results deterministic and the eval refactor
// byte-identical.
func better(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// SortCandidates sorts cands into the canonical (score desc, id asc)
// order in place, without allocating.
func SortCandidates(cands []Candidate) {
	slices.SortFunc(cands, func(a, b Candidate) int {
		switch {
		case better(a, b):
			return -1
		case better(b, a):
			return 1
		}
		return 0
	})
}

// TopK scans every row and returns the k best candidates for target in
// canonical order, skipping the excluded ids. target need not be unit
// norm (scores scale uniformly, so the ranking is unchanged); dst is
// reused when it has capacity. The result is exactly the first k entries
// of the full (score desc, id asc) sort — the selection buffer only
// avoids materialising the rest.
func (n *Normalized) TopK(dst []Candidate, target []float32, k int, exclude ...int32) []Candidate {
	top := dst[:0]
	if k <= 0 {
		return top
	}
	rows := int32(n.mat.Rows)
scan:
	for id := int32(0); id < rows; id++ {
		for _, ex := range exclude {
			if id == ex {
				continue scan
			}
		}
		c := Candidate{ID: id, Score: vecmath.Dot(n.mat.Row(int(id)), target)}
		if len(top) == k && !better(c, top[k-1]) {
			continue
		}
		// Insertion position: ids arrive in ascending order, so c sorts
		// after every equal-scored entry already present.
		i := sort.Search(len(top), func(i int) bool { return better(c, top[i]) })
		if len(top) < k {
			top = append(top, Candidate{})
		}
		copy(top[i+1:], top[i:])
		top[i] = c
	}
	return top
}

// Best returns the single best candidate for target (TopK with k=1
// without the buffer plumbing). ok is false when every row is excluded.
func (n *Normalized) Best(target []float32, exclude ...int32) (Candidate, bool) {
	best := Candidate{ID: -1, Score: float32(-1e30)}
	rows := int32(n.mat.Rows)
scan:
	for id := int32(0); id < rows; id++ {
		for _, ex := range exclude {
			if id == ex {
				continue scan
			}
		}
		s := vecmath.Dot(n.mat.Row(int(id)), target)
		if s > best.Score || best.ID < 0 {
			best = Candidate{ID: id, Score: s}
		}
	}
	return best, best.ID >= 0
}

// QueryInto writes row id's unit vector into dst (len Dim) — the
// starting point for neighbour queries, which score a word's own
// normalized embedding against the rest of the index.
func (n *Normalized) QueryInto(dst []float32, id int32) {
	copy(dst, n.mat.Row(int(id)))
}

// AnalogyInto writes the 3CosAdd analogy target vec(b) − vec(a) + vec(c)
// over unit vectors into dst (len Dim).
func (n *Normalized) AnalogyInto(dst []float32, a, b, c int32) {
	ra, rb, rc := n.mat.Row(int(a)), n.mat.Row(int(b)), n.mat.Row(int(c))
	for i := range dst {
		dst[i] = rb[i] - ra[i] + rc[i]
	}
}
