package sgns

import (
	"graphword2vec/internal/bitset"
	"graphword2vec/internal/xrand"
)

// NodeGate delays access to a model row until the in-flight
// synchronisation round can no longer read or write it — the compute
// half of the compute/sync overlap (DESIGN.md §12). Blocking is the only
// degree of freedom: the token order, subsampling, dynamic windows and
// every negative draw stay the ungated RNG stream, so an overlapped
// round trains the exact same float sequence as a serialized one, just
// possibly later. WaitNode must return immediately once its round is
// over.
type NodeGate interface {
	// WaitNode blocks until node n's model rows are final for this
	// round's compute.
	WaitNode(n int32)
}

// TrainTokensGated is TrainTokens with every row access first passing
// gate (nil: ungated): identical RNG draws, update order and floats.
func (t *Trainer) TrainTokensGated(tokens []int32, alpha float32, r *xrand.Rand, touched *bitset.Bitset, st *Stats, sc *Scratch, gate NodeGate) {
	t.trainTokens(tokens, alpha, r, touched, st, sc, gate)
}
