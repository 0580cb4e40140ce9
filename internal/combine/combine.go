// Package combine implements the gradient-combination strategies compared
// by the paper (§3): plain summation (diverges when gradients align),
// averaging (the ALLREDUCE/mini-batch baseline — converges slowly as host
// count grows), and the paper's *model combiner*, which combines per-host
// model deltas by iterated orthogonal projection so that the result is a
// "valid" update direction: it decreases every host's loss while never
// taking a longer step than a single gradient would.
//
// In the distributed trainer the unit of combination is one graph node's
// label delta — the concatenated (embedding ‖ training) vector change a
// host made to one word since the last synchronisation. That granularity
// matches Gluon's per-label reduction operator (paper §4.3: "The reduction
// operator determines how to synchronize these values ... we use our model
// combiner function instead").
package combine

import (
	"graphword2vec/internal/vecmath"
)

// Combiner reduces the per-host deltas for one node into a single delta.
//
// Combine writes the combined delta into out (len(out) == len(deltas[i])
// for all i) and must tolerate any number of deltas ≥ 1. Implementations
// must not retain the delta slices. Combine must be deterministic given
// the delta order; callers present deltas in ascending host order.
type Combiner interface {
	// Name identifies the combiner in experiment output ("SUM", "AVG", "MC").
	Name() string
	// Combine reduces deltas into out. out and deltas may not alias.
	Combine(out []float32, deltas [][]float32)
}

// Sum adds all deltas. With k aligned gradients this multiplies the
// effective learning rate by k — the divergent regime of Figure 6.
type Sum struct{}

// Name implements Combiner.
func (Sum) Name() string { return "SUM" }

// Combine implements Combiner.
func (Sum) Combine(out []float32, deltas [][]float32) {
	vecmath.Zero(out)
	for _, d := range deltas {
		vecmath.Axpy(1, d, out)
	}
}

// Avg averages all deltas — the bulk-synchronous ALLREDUCE baseline
// ("AVG" in the paper's figures). Safe but increasingly conservative as
// host count grows: with k hosts each update shrinks by 1/k, approaching
// batch gradient descent (paper §2.3).
type Avg struct{}

// Name implements Combiner.
func (Avg) Name() string { return "AVG" }

// Combine implements Combiner.
func (Avg) Combine(out []float32, deltas [][]float32) {
	vecmath.Zero(out)
	if len(deltas) == 0 {
		return
	}
	for _, d := range deltas {
		vecmath.Axpy(1, d, out)
	}
	vecmath.Scale(1/float32(len(deltas)), out)
}

// ModelCombiner is the paper's contribution (§3): deltas are folded in one
// at a time; each new delta is first projected onto the orthogonal
// complement of the accumulated combination, then added:
//
//	c ← d₀
//	for each subsequent dᵢ:  c ← c + (dᵢ − (cᵀdᵢ/‖c‖²)·c)
//
// Parallel deltas therefore contribute once (no step-size blow-up) while
// orthogonal deltas add fully (no mini-batch slowdown). The projected
// component satisfies the paper's validity conditions: it cannot increase
// the contributing host's loss (Eq. 3) and its norm never exceeds the
// original delta's (Eq. 4).
type ModelCombiner struct {
	scratch []float32
}

// NewModelCombiner returns a ModelCombiner with scratch space for vectors
// of length dim. A ModelCombiner is not safe for concurrent use; the
// distributed trainer allocates one per owner goroutine.
func NewModelCombiner(dim int) *ModelCombiner {
	return &ModelCombiner{scratch: make([]float32, dim)}
}

// Name implements Combiner.
func (*ModelCombiner) Name() string { return "MC" }

// Combine implements Combiner.
func (mc *ModelCombiner) Combine(out []float32, deltas [][]float32) {
	if len(mc.scratch) < len(out) {
		mc.scratch = make([]float32, len(out))
	}
	vecmath.Zero(out)
	if len(deltas) == 0 {
		return
	}
	copy(out, deltas[0])
	tmp := mc.scratch[:len(out)]
	for _, d := range deltas[1:] {
		copy(tmp, d)
		vecmath.ProjectOut(tmp, out) // tmp ← d ⊥ c
		vecmath.Axpy(1, tmp, out)    // c ← c + d⊥
	}
}

// GramSchmidtCombiner is the ablation variant referenced in DESIGN.md §5:
// instead of projecting each delta against the accumulated *sum*, it
// projects against every previously accepted component (full
// Gram-Schmidt), which is the strictest reading of the paper's induction.
// It costs O(k²·dim) instead of O(k·dim) and, as the ablation bench shows,
// behaves nearly identically for the small k (hosts) regimes of interest.
type GramSchmidtCombiner struct {
	comps [][]float32
}

// NewGramSchmidtCombiner returns a GramSchmidtCombiner for vectors of
// length dim combining at most maxHosts deltas.
func NewGramSchmidtCombiner(dim, maxHosts int) *GramSchmidtCombiner {
	g := &GramSchmidtCombiner{comps: make([][]float32, maxHosts)}
	for i := range g.comps {
		g.comps[i] = make([]float32, dim)
	}
	return g
}

// Name implements Combiner.
func (*GramSchmidtCombiner) Name() string { return "MC-GS" }

// Combine implements Combiner.
func (g *GramSchmidtCombiner) Combine(out []float32, deltas [][]float32) {
	vecmath.Zero(out)
	n := 0
	for _, d := range deltas {
		if n >= len(g.comps) || len(g.comps[n]) < len(out) {
			// Grow lazily if callers exceed the declared maximum.
			g.comps = append(g.comps, make([]float32, len(out)))
		}
		c := g.comps[n][:len(out)]
		copy(c, d)
		for j := 0; j < n; j++ {
			vecmath.ProjectOut(c, g.comps[j][:len(out)])
		}
		vecmath.Axpy(1, c, out)
		n++
	}
}

// ByName returns the combiner registered under name ("SUM", "AVG", "MC",
// "MC-GS"), or nil if unknown. dim sizes internal scratch.
func ByName(name string, dim int) Combiner {
	switch name {
	case "SUM":
		return Sum{}
	case "AVG":
		return Avg{}
	case "MC":
		return NewModelCombiner(dim)
	case "MC-GS":
		return NewGramSchmidtCombiner(dim, 64)
	default:
		return nil
	}
}
