package sgns

import (
	"graphword2vec/internal/bitset"
	"graphword2vec/internal/xrand"
)

// InspectTokens is the PullModel inspection phase (paper §4.4): it replays
// exactly the random choices TrainTokens would make on the same worklist
// chunk with the same generator seed — subsampling coin flips, dynamic
// window draws, negative samples — and records every node the compute
// phase will access, without touching the model.
//
// The invariant that makes PullModel sound is
//
//	InspectTokens(tokens, seed)  ⊇  touched(TrainTokens(tokens, seed))
//
// and because every SGNS read is also a write, the sets are in fact
// equal. The replay runs the training loop itself with the model
// updates switched off, so the two cannot drift apart;
// TestInspectMatchesTrain pins the equality.
//
// sc supplies the reusable sentence and target buffers exactly as in
// TrainTokens; nil allocates a fresh set. The replay shares them and
// allocates nothing.
func (t *Trainer) InspectTokens(tokens []int32, r *xrand.Rand, access *bitset.Bitset, sc *Scratch) {
	if sc == nil {
		sc = t.NewScratch()
	}
	replay := Scratch{sen: sc.sen, targets: sc.targets} // no gradient buffer: replay only
	var st Stats
	t.trainTokens(tokens, 0, r, access, &st, &replay, nil)
	sc.sen = replay.sen
}
