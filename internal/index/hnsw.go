package index

import (
	"fmt"
	"slices"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/graph"
	"graphword2vec/internal/vecmath"
)

// HNSW is a Hierarchical Navigable Small World graph over a Normalized
// index (Malkov & Yashunin 2016), the serving side's approximate
// nearest-neighbour structure. Each layer is a bounded-degree proximity
// graph stored in a graph.Adjacency; layer 0 holds every row, upper
// layers exponentially fewer. A query greedily descends the upper
// layers to a good entry point, then runs a beam search of width ef
// over layer 0; the beam's candidates are scored with exact vecmath
// SIMD dot products throughout, so the final top-k is an exact re-rank
// of the visited set — approximation enters only through which rows the
// beam visits.
//
// Construction (BuildHNSW, build.go) inserts rows in id-ordered,
// doubling batches, each searched against the graph frozen at the batch
// start, so the graph is a function of (model, config) alone: level
// draws come from a seeded xrand stream, all candidate selection
// tie-breaks on (score desc, id asc), and the worker count changes only
// how fast the same graph is built. The structure is immutable after
// BuildHNSW and safe for concurrent searches; per-search scratch lives
// in a Searcher so steady-state queries do not allocate.
type HNSW struct {
	norm   *Normalized
	cfg    HNSWConfig
	layers []*graph.Adjacency // layers[l] links nodes with level >= l
	levels []int8             // top layer of each node
	entry  int32
	top    int // current top layer
	mult   float64
}

// HNSWConfig are the index build/search parameters.
type HNSWConfig struct {
	// M is the maximum neighbour count on layers above 0; layer 0
	// allows 2M (the standard HNSW setting).
	M int
	// EfConstruction is the candidate beam width during Build.
	EfConstruction int
	// EfSearch is the default query beam width (per-query override via
	// Searcher calls; values below k are raised to k).
	EfSearch int
	// Seed drives the level-assignment stream.
	Seed uint64
}

// DefaultHNSWConfig returns the serving defaults: M=16, efC=200,
// efSearch=32 — measured recall@10 >= 0.99 on random-embedding indexes
// of synth-preset size (the hard, structureless case; see
// TestHNSWRecall) at roughly 7x fewer dot products than the exact scan.
func DefaultHNSWConfig() HNSWConfig {
	return HNSWConfig{M: 16, EfConstruction: 200, EfSearch: 32, Seed: 1}
}

// withDefaults fills unset fields.
func (c HNSWConfig) withDefaults() HNSWConfig {
	d := DefaultHNSWConfig()
	if c.M <= 0 {
		c.M = d.M
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = d.EfConstruction
	}
	if c.EfSearch <= 0 {
		c.EfSearch = d.EfSearch
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// maxLayers bounds the hierarchy; level draws are clamped here. With
// mult = 1/ln(M) this is never reached below ~M^32 rows.
const maxLayers = 32

// Config returns the build parameters.
func (h *HNSW) Config() HNSWConfig { return h.cfg }

// Layers returns the layer count.
func (h *HNSW) Layers() int { return h.top + 1 }

// MemoryBytes returns the adjacency storage footprint.
func (h *HNSW) MemoryBytes() int64 {
	var b int64
	for _, l := range h.layers {
		b += l.MemoryBytes()
	}
	return b + int64(len(h.levels))
}

// greedy walks layer l from ep to the locally best node.
func (h *HNSW) greedy(q []float32, ep Candidate, l int) Candidate {
	for {
		improved := false
		for _, nb := range h.layers[l].Neighbors(ep.ID) {
			c := Candidate{ID: nb, Score: vecmath.Dot(h.norm.Row(int(nb)), q)}
			if better(c, ep) {
				ep = c
				improved = true
			}
		}
		if !improved {
			return ep
		}
	}
}

// searchLayer is the beam search: expand the closest unexpanded
// candidate, keep the best ef seen. Returns the beam sorted in
// canonical order; the slice aliases s.beam.
func (h *HNSW) searchLayer(s *Searcher, q []float32, ep Candidate, ef int, l int) []Candidate {
	s.visited.Reset()
	s.visited.Set(int(ep.ID))
	s.frontier = s.frontier[:0]
	s.beam = s.beam[:0]
	s.pushFrontier(ep)
	s.pushBeam(ep, ef)

	for len(s.frontier) > 0 {
		cur := s.popFrontier()
		// The frontier is a max-heap on score: once the closest
		// unexpanded candidate is worse than the beam's worst kept
		// entry, no expansion can improve the beam.
		if len(s.beam) == ef && !better(cur, s.beam[len(s.beam)-1]) {
			break
		}
		for _, nb := range h.layers[l].Neighbors(cur.ID) {
			if s.visited.Get(int(nb)) {
				continue
			}
			s.visited.Set(int(nb))
			c := Candidate{ID: nb, Score: vecmath.Dot(h.norm.Row(int(nb)), q)}
			if len(s.beam) < ef || better(c, s.beam[len(s.beam)-1]) {
				s.pushFrontier(c)
				s.pushBeam(c, ef)
			}
		}
	}
	return s.beam
}

// Search returns the approximate top-k for query in canonical order
// using the default EfSearch beam. It allocates a Searcher per call;
// hot paths hold a Searcher and use SearchWith.
func (h *HNSW) Search(query []float32, k int) []Candidate {
	s := NewSearcher(h)
	return h.SearchWith(s, nil, query, k, 0, nil)
}

// SearchWith runs a query with caller-owned scratch. ef <= 0 selects
// the config default; ef is raised to k when smaller. exclude skips ids
// in the final selection (they still steer the beam). dst is reused
// when it has capacity. The returned slice is valid until the next call
// with the same Searcher or dst.
func (h *HNSW) SearchWith(s *Searcher, dst []Candidate, query []float32, k, ef int, exclude []int32) []Candidate {
	out := dst[:0]
	if k <= 0 || h.entry < 0 {
		return out
	}
	if ef <= 0 {
		ef = h.cfg.EfSearch
	}
	if ef < k+len(exclude) {
		ef = k + len(exclude)
	}
	ep := Candidate{ID: h.entry, Score: vecmath.Dot(h.norm.Row(int(h.entry)), query)}
	for l := h.top; l >= 1; l-- {
		ep = h.greedy(query, ep, l)
	}
	beam := h.searchLayer(s, query, ep, ef, 0)
	// Exact re-rank of the visited beam: scores are full-precision dots
	// already, so selection is just the canonical order minus excluded
	// ids.
sel:
	for _, c := range beam {
		if len(out) == k {
			break
		}
		for _, ex := range exclude {
			if c.ID == ex {
				continue sel
			}
		}
		out = append(out, c)
	}
	return out
}

// Searcher is per-goroutine search scratch: the visited bitset, the
// frontier heap and the result beam. A Searcher must not be shared
// between concurrent searches; a serving scorer pool owns one per
// worker.
type Searcher struct {
	visited  *bitset.Bitset
	frontier []Candidate // max-heap on canonical order
	beam     []Candidate // sorted ascending-rank (canonical order)
}

// NewSearcher allocates scratch sized for h.
func NewSearcher(h *HNSW) *Searcher {
	ef := h.cfg.EfConstruction
	if h.cfg.EfSearch > ef {
		ef = h.cfg.EfSearch
	}
	return &Searcher{
		visited:  bitset.New(h.norm.Rows()),
		frontier: make([]Candidate, 0, 4*ef),
		beam:     make([]Candidate, 0, ef+1),
	}
}

// Fits reports whether the searcher's scratch matches index h — false
// after a snapshot hot-swap changed the vocabulary size, at which point
// the owner allocates a fresh Searcher.
func (s *Searcher) Fits(h *HNSW) bool { return s.visited.Len() == h.norm.Rows() }

// pushFrontier adds c to the expansion max-heap.
func (s *Searcher) pushFrontier(c Candidate) {
	s.frontier = append(s.frontier, c)
	i := len(s.frontier) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !better(s.frontier[i], s.frontier[p]) {
			break
		}
		s.frontier[i], s.frontier[p] = s.frontier[p], s.frontier[i]
		i = p
	}
}

// popFrontier removes the best unexpanded candidate.
func (s *Searcher) popFrontier() Candidate {
	top := s.frontier[0]
	last := len(s.frontier) - 1
	s.frontier[0] = s.frontier[last]
	s.frontier = s.frontier[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(s.frontier) && better(s.frontier[l], s.frontier[best]) {
			best = l
		}
		if r < len(s.frontier) && better(s.frontier[r], s.frontier[best]) {
			best = r
		}
		if best == i {
			return top
		}
		s.frontier[i], s.frontier[best] = s.frontier[best], s.frontier[i]
		i = best
	}
}

// pushBeam inserts c into the sorted beam, keeping at most ef entries.
func (s *Searcher) pushBeam(c Candidate, ef int) {
	if len(s.beam) == ef && !better(c, s.beam[len(s.beam)-1]) {
		return
	}
	i := len(s.beam)
	for i > 0 && better(c, s.beam[i-1]) {
		i--
	}
	if len(s.beam) < ef {
		s.beam = append(s.beam, Candidate{})
	}
	copy(s.beam[i+1:], s.beam[i:])
	s.beam[i] = c
}

// Equal reports whether h and o are the same graph over equal-sized
// indexes: config, levels, entry point, top layer and every layer's
// neighbour lists.
func (h *HNSW) Equal(o *HNSW) bool {
	if h.cfg != o.cfg || h.entry != o.entry || h.top != o.top ||
		h.norm.Rows() != o.norm.Rows() || len(h.layers) != len(o.layers) ||
		!slices.Equal(h.levels, o.levels) {
		return false
	}
	for l, adj := range h.layers {
		for n := int32(0); n < int32(adj.NumNodes()); n++ {
			if !slices.Equal(adj.Neighbors(n), o.layers[l].Neighbors(n)) {
				return false
			}
		}
	}
	return true
}

// Validate checks structural invariants — every linked id is in range
// and no node links to itself — used by tests.
func (h *HNSW) Validate() error {
	for l, adj := range h.layers {
		for n := int32(0); n < int32(adj.NumNodes()); n++ {
			for _, nb := range adj.Neighbors(n) {
				if nb < 0 || int(nb) >= h.norm.Rows() {
					return fmt.Errorf("index: layer %d node %d links out-of-range %d", l, n, nb)
				}
				if nb == n {
					return fmt.Errorf("index: layer %d node %d links to itself", l, n)
				}
			}
		}
	}
	return nil
}
