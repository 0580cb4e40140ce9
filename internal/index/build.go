package index

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"graphword2vec/internal/graph"
	"graphword2vec/internal/vecmath"
	"graphword2vec/internal/xrand"
)

// maxBatch is the largest insertion batch of an n-row build: batches
// double 1, 2, 4, … up to it. It depends only on n, never on the
// worker count, so the schedule — and with it the graph — is the same
// at any parallelism. A batch's nodes cannot link to each other, so the
// cap trades build parallelism against link quality; n/100 kept
// recall@10 at its serial value on trained models (EXPERIMENTS.md).
func maxBatch(n int) int { return max(1, n/100) }

// BuildHNSW indexes every row of norm on workers goroutines (values
// below 1 mean 1). The graph is byte-identical for every worker count.
//
// Rows are inserted in id-ordered batches whose sizes double up to
// maxBatch, each batch a bulk-synchronous round of two phases:
//
//  1. Link. Every batch node greedy-descends and beam-searches the
//     graph frozen at the batch start, then picks its own links with
//     the diversity heuristic. Nodes are spread over the workers and
//     each writes only its own rows; no frozen node links to a batch
//     node yet, so no search can see one.
//  2. Reverse. The batch's links are grouped by (layer, target, source
//     id). Each target either appends its whole group or, when that
//     would overflow its capacity, re-selects once over its current
//     links ∪ the group. Targets are spread over the workers, each
//     target owned by one.
//
// Entry point and top layer are then updated in id order. Level draws
// come from the config's seeded stream, so equal (model, config) give
// equal graphs.
func BuildHNSW(norm *Normalized, cfg HNSWConfig, workers int) *HNSW {
	cfg = cfg.withDefaults()
	n := norm.Rows()
	h := &HNSW{
		norm:   norm,
		cfg:    cfg,
		levels: make([]int8, n),
		entry:  -1,
		top:    -1,
		mult:   1 / math.Log(float64(cfg.M)),
	}
	if n == 0 {
		return h
	}

	// Draw all levels up front so layer allocation is exact.
	r := xrand.New(cfg.Seed)
	layers := 0
	for i := range h.levels {
		l := h.drawLevel(r)
		h.levels[i] = int8(l)
		layers = max(layers, l+1)
	}
	h.layers = make([]*graph.Adjacency, layers)
	b := &builder{h: h, scores: make([][]float32, layers)}
	for l := range h.layers {
		capPerNode := cfg.M
		if l == 0 {
			capPerNode = 2 * cfg.M
		}
		h.layers[l] = graph.NewAdjacency(n, capPerNode)
		b.scores[l] = make([]float32, n*capPerNode)
	}

	// Size the batch buffers for the largest batch's out-links.
	batch := maxBatch(n)
	maxEdges := 0
	for lo, size := 0, 1; lo < n; lo, size = lo+size, min(2*size, batch) {
		e := 0
		for id := lo; id < min(n, lo+size); id++ {
			e += cfg.M * (int(h.levels[id]) + 1)
		}
		maxEdges = max(maxEdges, e)
	}
	b.edges = make([]edge, 0, maxEdges)
	b.groups = make([]int32, 0, maxEdges+1)

	workers = max(1, workers)
	b.ws = make([]buildWorker, workers)
	for i := range b.ws {
		b.ws[i] = buildWorker{
			s:     NewSearcher(h),
			sel:   make([]Candidate, 0, 2*cfg.M),
			cands: make([]Candidate, 0, 2*cfg.M+batch),
			ids:   make([]int32, 0, 2*cfg.M),
		}
	}
	b.start = make([]chan int, workers-1)
	for i := range b.start {
		c := make(chan int)
		b.start[i] = c
		go func(w *buildWorker) {
			for phase := range c {
				b.work(w, phase)
				b.done.Done()
			}
			b.done.Done() // exited
		}(&b.ws[i+1])
	}

	for lo, size := 0, 1; lo < n; lo, size = lo+size, min(2*size, batch) {
		b.lo, b.hi = int32(lo), int32(min(n, lo+size))
		b.run(phaseLink)
		b.group()
		b.run(phaseReverse)
		for id := b.lo; id < b.hi; id++ {
			if l := int(h.levels[id]); l > h.top {
				h.top, h.entry = l, id
			}
		}
	}
	b.done.Add(len(b.start))
	for _, c := range b.start {
		close(c)
	}
	b.done.Wait()
	return h
}

// drawLevel samples a node's top layer from the exponential layer
// distribution floor(−ln(U)·mult).
func (h *HNSW) drawLevel(r *xrand.Rand) int {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	l := int(-math.Log(u) * h.mult)
	if l >= maxLayers {
		l = maxLayers - 1
	}
	return l
}

// The two phases of one batch round.
const (
	phaseLink = iota
	phaseReverse
)

// builder is one BuildHNSW call's construction state. Everything but
// the HNSW itself is dropped when the build returns.
type builder struct {
	h *HNSW
	// scores[l][n*cap+i] is the dot product of node n and its i-th
	// layer-l link, kept beside the adjacency slot so a re-selection
	// never re-scores a node's current links.
	scores [][]float32
	ws     []buildWorker
	start  []chan int     // one per helper goroutine, serving ws[1:]
	done   sync.WaitGroup // counts helpers still in a phase, or still running at the end
	next   atomic.Int64   // next unclaimed item of the running phase

	lo, hi int32   // the batch: ids [lo, hi)
	edges  []edge  // the batch's links, sorted by (layer, target, source)
	groups []int32 // edges[groups[g]:groups[g+1]] share one (layer, target)
}

// edge is one link a batch node picked, from source to target on layer.
type edge struct {
	layer, target, source int32
	score                 float32
}

// buildWorker is one worker's scratch; none of it outlives a call.
type buildWorker struct {
	s     *Searcher
	sel   []Candidate // selectNeighbors output
	cands []Candidate // a target's links ∪ its incoming group
	ids   []int32     // the ids of a row being written
}

// run executes phase on every worker and returns when all are done.
// Work items are claimed from a shared counter, so which worker handles
// an item varies from run to run; the result does not, because every
// item writes only rows no other item of the phase reads or writes.
func (b *builder) run(phase int) {
	b.next.Store(0)
	b.done.Add(len(b.start))
	for _, c := range b.start {
		c <- phase
	}
	b.work(&b.ws[0], phase)
	b.done.Wait()
}

// work claims and runs items of phase until none are left.
func (b *builder) work(w *buildWorker, phase int) {
	for {
		i := b.next.Add(1) - 1
		switch phase {
		case phaseLink:
			if i >= int64(b.hi-b.lo) {
				return
			}
			b.link(w, b.lo+int32(i))
		case phaseReverse:
			if i >= int64(len(b.groups)-1) {
				return
			}
			b.reverse(w, b.edges[b.groups[i]:b.groups[i+1]])
		}
	}
}

// link searches the frozen graph for node id's neighbours on every
// layer it joins and writes its own rows.
func (b *builder) link(w *buildWorker, id int32) {
	h := b.h
	if h.entry < 0 {
		return // the first node: nothing to link to
	}
	level := int(h.levels[id])
	q := h.norm.Row(int(id))
	ep := Candidate{ID: h.entry, Score: vecmath.Dot(h.norm.Row(int(h.entry)), q)}
	// Greedy descent through layers above the node's level.
	for l := h.top; l > level; l-- {
		ep = h.greedy(q, ep, l)
	}
	for l := min(level, h.top); l >= 0; l-- {
		cands := h.searchLayer(w.s, q, ep, h.cfg.EfConstruction, l)
		ep = cands[0]
		b.setRow(w, l, id, w.selectNeighbors(h.norm, q, cands, h.cfg.M))
	}
}

// group collects the batch's links in (layer, target, source) order
// and marks where each (layer, target) group starts.
func (b *builder) group() {
	h := b.h
	b.edges = b.edges[:0]
	for id := b.lo; id < b.hi; id++ {
		for l := 0; l <= int(h.levels[id]); l++ {
			off := int(id) * h.layers[l].Cap()
			for i, t := range h.layers[l].Neighbors(id) {
				b.edges = append(b.edges, edge{layer: int32(l), target: t, source: id, score: b.scores[l][off+i]})
			}
		}
	}
	slices.SortFunc(b.edges, func(x, y edge) int {
		if c := cmp.Compare(x.layer, y.layer); c != 0 {
			return c
		}
		if c := cmp.Compare(x.target, y.target); c != 0 {
			return c
		}
		return cmp.Compare(x.source, y.source)
	})
	b.groups = b.groups[:0]
	for i, e := range b.edges {
		if i == 0 || e.layer != b.edges[i-1].layer || e.target != b.edges[i-1].target {
			b.groups = append(b.groups, int32(i))
		}
	}
	b.groups = append(b.groups, int32(len(b.edges)))
}

// reverse adds one target's incoming group of links (all one layer and
// target, ascending source). A group that fits is appended; otherwise
// the target re-selects at most cap links over its current links ∪ the
// group. A link's score is symmetric (dot(s, t) = dot(t, s)), so the
// score its source recorded serves the target as well.
func (b *builder) reverse(w *buildWorker, in []edge) {
	l, t := int(in[0].layer), in[0].target
	adj, sc := b.h.layers[l], b.scores[l]
	off := int(t) * adj.Cap()
	if adj.Degree(t)+len(in) <= adj.Cap() {
		for _, e := range in {
			sc[off+adj.Degree(t)] = e.score
			adj.Append(t, e.source)
		}
		return
	}
	cands := w.cands[:0]
	for i, o := range adj.Neighbors(t) {
		cands = append(cands, Candidate{ID: o, Score: sc[off+i]})
	}
	for _, e := range in {
		cands = append(cands, Candidate{ID: e.source, Score: e.score})
	}
	SortCandidates(cands)
	w.cands = cands
	b.setRow(w, l, t, w.selectNeighbors(b.h.norm, b.h.norm.Row(int(t)), cands, adj.Cap()))
}

// setRow replaces node n's layer-l links and their scores.
func (b *builder) setRow(w *buildWorker, l int, n int32, row []Candidate) {
	adj := b.h.layers[l]
	ids := w.ids[:0]
	off := int(n) * adj.Cap()
	for i, c := range row {
		ids = append(ids, c.ID)
		b.scores[l][off+i] = c.Score
	}
	adj.Set(n, ids)
	w.ids = ids
}

// selectNeighbors is the HNSW diversity heuristic: walk cands in
// canonical order and keep c only if it is closer to the query than to
// every already-kept neighbour, up to m. This spreads links across
// directions instead of clustering them, which is what keeps the graph
// navigable. cands must be sorted; the result aliases w.sel.
func (w *buildWorker) selectNeighbors(norm *Normalized, q []float32, cands []Candidate, m int) []Candidate {
	sel := w.sel[:0]
	for _, c := range cands {
		if len(sel) >= m {
			break
		}
		row := norm.Row(int(c.ID))
		keep := true
		for _, kept := range sel {
			// Score is similarity: "closer to a kept neighbour than to
			// the query" means dot(c, kept) > dot(c, q).
			if vecmath.Dot(row, norm.Row(int(kept.ID))) > c.Score {
				keep = false
				break
			}
		}
		if keep {
			sel = append(sel, c)
		}
	}
	// Degenerate geometries (many coincident vectors) can reject almost
	// everything; backfill with the nearest rejected candidates so every
	// node keeps enough links to stay reachable.
	if len(sel) < m {
		for _, c := range cands {
			if len(sel) >= m {
				break
			}
			dup := false
			for _, kept := range sel {
				if kept.ID == c.ID {
					dup = true
					break
				}
			}
			if !dup {
				sel = append(sel, c)
			}
		}
	}
	w.sel = sel
	return sel
}
