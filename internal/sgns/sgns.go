// Package sgns implements the Skip-Gram-with-Negative-Sampling operator —
// the "graph operator" of GraphWord2Vec (paper §2.1, §4.1). Given a
// worklist of corpus tokens it generates, on the fly, the positive edges
// (center word ↔ window context) and negative edges (center ↔ unigram^0.75
// samples) of the abstract word graph and applies the SGD update for each,
// mirroring word2vec.c:
//
//	for each context word c of center w:
//	    e ← 0
//	    for (target, label) in {(w, 1)} ∪ {(negᵢ, 0)}:
//	        f ← emb[c]·ctx[target]
//	        g ← (label − σ(f)) · α
//	        e ← e + g·ctx[target]
//	        ctx[target] += g·emb[c]
//	    emb[c] += e
//
// The package also provides the two shared-memory baselines of the paper's
// evaluation: a Hogwild multi-threaded trainer (the Word2Vec C reference,
// "W2V") and a job-batched variant modelling Gensim's scheduling ("GEM").
package sgns

import (
	"errors"
	"math"
	"runtime"
	"sync"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/model"
	"graphword2vec/internal/vecmath"
	"graphword2vec/internal/vocab"
	"graphword2vec/internal/xrand"
)

// Params are the Skip-Gram model hyper-parameters (paper §5.1 defaults:
// window 5, 15 negatives, sentence length 10k, subsample 1e-4, dim 200,
// 16 epochs, α = 0.025).
type Params struct {
	// Window is the maximum one-sided context window; the effective
	// window per center word is drawn uniformly from [1, Window]
	// (word2vec.c's dynamic window).
	Window int
	// Negatives is the number of negative samples per positive pair.
	Negatives int
	// MaxSentenceLength caps pseudo-sentence length.
	MaxSentenceLength int
	// TrackLoss enables running SGNS loss accumulation (costs a log()
	// per edge; off for timing runs, on for convergence plots).
	TrackLoss bool
}

// DefaultParams returns the paper's hyper-parameters.
func DefaultParams() Params {
	return Params{Window: 5, Negatives: 15, MaxSentenceLength: 10000}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Window <= 0 {
		return errors.New("sgns: Window must be positive")
	}
	if p.Negatives < 0 {
		return errors.New("sgns: Negatives must be non-negative")
	}
	return nil
}

// Stats accumulates per-run training counters.
type Stats struct {
	// TokensSeen counts worklist tokens examined.
	TokensSeen int64
	// TokensKept counts tokens surviving subsampling.
	TokensKept int64
	// Pairs counts (positive) training pairs processed.
	Pairs int64
	// LossSum / LossEdges give the mean SGNS loss per edge when
	// Params.TrackLoss is set.
	LossSum   float64
	LossEdges int64
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.TokensSeen += other.TokensSeen
	s.TokensKept += other.TokensKept
	s.Pairs += other.Pairs
	s.LossSum += other.LossSum
	s.LossEdges += other.LossEdges
}

// MeanLoss returns the average per-edge loss, or 0 if not tracked.
func (s *Stats) MeanLoss() float64 {
	if s.LossEdges == 0 {
		return 0
	}
	return s.LossSum / float64(s.LossEdges)
}

// Trainer bundles the immutable training context shared by every worker:
// model, vocabulary, negative-sampling table and hyper-parameters.
type Trainer struct {
	Model  *model.Model
	Vocab  *vocab.Vocabulary
	Neg    *vocab.UnigramTable
	Params Params
}

// NewTrainer validates the configuration and returns a Trainer.
func NewTrainer(m *model.Model, v *vocab.Vocabulary, neg *vocab.UnigramTable, p Params) (*Trainer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if m.VocabSize() != v.Size() {
		return nil, errors.New("sgns: model/vocabulary size mismatch")
	}
	if p.MaxSentenceLength <= 0 {
		p.MaxSentenceLength = 10000
	}
	return &Trainer{Model: m, Vocab: v, Neg: neg, Params: p}, nil
}

// Scratch holds the per-worker reusable buffers of the SGNS hot path:
// the gradient-accumulation vector, the subsampled-sentence buffer and
// the per-pair target list. Threading one Scratch per worker through
// TrainTokens makes the steady-state training loop allocation-free
// (TestTrainTokensZeroAllocs pins 0 allocs/op). A Scratch is not safe
// for concurrent use; create one per goroutine with Trainer.NewScratch.
type Scratch struct {
	neu1e []float32
	sen   []int32
	// targets holds one pair's center followed by its negatives.
	targets []int32
}

// NewScratch returns scratch buffers sized for this trainer's
// dimensionality, maximum sentence length and negative count.
func (t *Trainer) NewScratch() *Scratch {
	maxSent := t.Params.MaxSentenceLength
	if maxSent <= 0 {
		maxSent = 10000
	}
	return &Scratch{
		neu1e:   make([]float32, t.Model.Dim),
		sen:     make([]int32, 0, maxSent),
		targets: make([]int32, 1+t.Params.Negatives),
	}
}

// TrainTokens applies the SGNS operator to one worklist chunk at a fixed
// learning rate alpha, updating the model in place. If touched is non-nil,
// every node whose labels were written is recorded in it (this feeds the
// RepModel-Opt sparse synchronisation). r must be owned by the caller.
// sc supplies the reusable hot-path buffers; nil allocates a fresh set
// (convenient for one-shot callers, allocation-free when reused).
func (t *Trainer) TrainTokens(tokens []int32, alpha float32, r *xrand.Rand, touched *bitset.Bitset, st *Stats, sc *Scratch) {
	t.trainTokens(tokens, alpha, r, touched, st, sc, nil)
}

// trainTokens is TrainTokens under an optional NodeGate (nil: ungated).
// Every RNG draw — subsampling, dynamic window, negative sample —
// precedes the gate wait for the row it selects, so a gate can delay
// row accesses but never shift the stream.
func (t *Trainer) trainTokens(tokens []int32, alpha float32, r *xrand.Rand, touched *bitset.Bitset, st *Stats, sc *Scratch, gate NodeGate) {
	if sc == nil {
		sc = t.NewScratch()
	}
	for start := 0; start < len(tokens); start += t.Params.MaxSentenceLength {
		end := start + t.Params.MaxSentenceLength
		if end > len(tokens) {
			end = len(tokens)
		}
		// Subsample the sentence up front, as word2vec.c does while
		// reading: discarded tokens vanish, shrinking effective
		// distances and widening effective context.
		sen := sc.sen[:0]
		for _, w := range tokens[start:end] {
			st.TokensSeen++
			if t.Vocab.Keep(w, r) {
				sen = append(sen, w)
				st.TokensKept++
			}
		}
		t.trainSentence(sen, alpha, r, touched, st, sc, gate)
		sc.sen = sen // retain any growth for the next sentence
	}
}

// trainSentence runs the operator over one subsampled sentence.
func (t *Trainer) trainSentence(sen []int32, alpha float32, r *xrand.Rand, touched *bitset.Bitset, st *Stats, sc *Scratch, gate NodeGate) {
	window := t.Params.Window
	for pos, center := range sen {
		// Dynamic window: uniform in [1, window].
		b := r.Intn(window)
		lo := pos - (window - b)
		if lo < 0 {
			lo = 0
		}
		hi := pos + (window - b) + 1
		if hi > len(sen) {
			hi = len(sen)
		}
		for cpos := lo; cpos < hi; cpos++ {
			if cpos == pos {
				continue
			}
			t.trainPair(sen[cpos], center, alpha, r, touched, st, sc, gate)
		}
	}
}

// trainPair applies one positive edge (context, center) plus Negatives
// negative edges. context's embedding row and each target's training row
// are updated; this is the per-edge "operator" in graph terms. It runs
// in three fixed phases:
//
//  1. Draw every negative in one batch (UnigramTable.SampleExcludingN).
//  2. Wait on a non-nil gate for the context's embedding row, then for
//     each target's training row in target order, and mark every row in
//     touched. Finality is monotone within a round, so a row waited for
//     stays safe for the rest of the pair.
//  3. Update the rows. Each target's update runs fused with the next
//     target's score (vecmath.UpdatePairDot); neu1e then goes into emb.
//
// Every draw precedes every row access, so a gate can delay the rows
// but never shift the stream, and the float sequence is the one the
// per-target Dot → UpdatePair loop produces. A nil sc.neu1e only
// replays the pair (InspectTokens): every draw happens and touched
// records every row, but the model is neither read nor written.
func (t *Trainer) trainPair(context, center int32, alpha float32, r *xrand.Rand, touched *bitset.Bitset, st *Stats, sc *Scratch, gate NodeGate) {
	st.Pairs++
	targets := sc.targets
	targets[0] = center
	targets = targets[:1+len(t.Neg.SampleExcludingN(r, center, targets[1:]))]

	if gate != nil {
		gate.WaitNode(context)
		for _, target := range targets {
			gate.WaitNode(target)
		}
	}
	if touched != nil {
		touched.Set(int(context))
		for _, target := range targets {
			touched.Set(int(target))
		}
	}
	neu1e := sc.neu1e
	if neu1e == nil {
		return
	}

	emb := t.Model.EmbRow(context)
	vecmath.Zero(neu1e)
	ctx := t.Model.CtxRow(center)
	f := vecmath.Dot(emb, ctx)
	label := float32(1)
	for d := range targets {
		g := (label - vecmath.Sigmoid(f)) * alpha
		if t.Params.TrackLoss {
			st.LossSum += pairLoss(float64(f), label)
			st.LossEdges++
		}
		if d+1 == len(targets) {
			vecmath.UpdatePair(emb, ctx, neu1e, g)
			break
		}
		next := t.Model.CtxRow(targets[d+1])
		f = vecmath.UpdatePairDot(emb, ctx, neu1e, g, next)
		ctx, label = next, 0
	}
	vecmath.Axpy(1, neu1e, emb)
}

// pairLoss returns the SGNS logistic loss for score f and label.
func pairLoss(f float64, label float32) float64 {
	s := vecmath.SigmoidExact(f)
	const eps = 1e-12
	if label == 1 {
		return -math.Log(s + eps)
	}
	return -math.Log(1 - s + eps)
}

// HogwildConfig configures the shared-memory multi-threaded trainer.
type HogwildConfig struct {
	// Threads is the number of racy workers (word2vec.c's num_threads).
	// Zero means GOMAXPROCS.
	Threads int
	// Epochs is the number of passes over the corpus.
	Epochs int
	// Alpha is the initial learning rate; it decays linearly with word
	// progress to Alpha·1e-4, exactly as in word2vec.c.
	Alpha float32
	// Seed drives all sampling.
	Seed uint64
	// OnEpoch, if non-nil, is called after each epoch with the epoch
	// index (0-based) and accumulated stats — the evaluation hook for
	// the Figure 6 convergence curves.
	OnEpoch func(epoch int, st Stats)
}

// TrainHogwild runs the Word2Vec C-style shared-memory baseline: Threads
// goroutines process disjoint chunks of the corpus concurrently and update
// the model racily (Hogwild, paper §2.3). The data race on model weights is
// deliberate and benign for SGD (sparse updates); do not run this under the
// race detector expecting silence.
func (t *Trainer) TrainHogwild(tokens []int32, cfg HogwildConfig) Stats {
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	root := xrand.New(cfg.Seed)
	var total Stats
	totalWords := int64(len(tokens)) * int64(cfg.Epochs)
	var wordsDone int64

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var wg sync.WaitGroup
		statsCh := make(chan Stats, threads)
		for th := 0; th < threads; th++ {
			lo := len(tokens) * th / threads
			hi := len(tokens) * (th + 1) / threads
			r := root.Split()
			progress := wordsDone // snapshot; per-thread refinement below
			wg.Add(1)
			go func(chunk []int32, r *xrand.Rand, progressBase int64) {
				defer wg.Done()
				var st Stats
				sc := t.NewScratch() // reused across every piece
				// Decay alpha in sub-chunks so long epochs see the
				// word2vec.c linear schedule rather than a constant.
				const piece = 10000
				done := int64(0)
				for off := 0; off < len(chunk); off += piece {
					end := off + piece
					if end > len(chunk) {
						end = len(chunk)
					}
					frac := float64(progressBase+done*int64(threads)) / float64(totalWords+1)
					alpha := cfg.Alpha * float32(1-frac)
					if alpha < cfg.Alpha*1e-4 {
						alpha = cfg.Alpha * 1e-4
					}
					t.TrainTokens(chunk[off:end], alpha, r, nil, &st, sc)
					done += int64(end - off)
				}
				statsCh <- st
			}(tokens[lo:hi], r, progress)
		}
		wg.Wait()
		close(statsCh)
		var epochStats Stats
		for st := range statsCh {
			epochStats.Add(st)
		}
		total.Add(epochStats)
		wordsDone += int64(len(tokens))
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, total)
		}
	}
	return total
}

// BatchedConfig configures the Gensim-style baseline.
type BatchedConfig struct {
	// JobWords is the number of tokens per scheduling job (Gensim's
	// default batch_words is 10000).
	JobWords int
	// Threads, Epochs, Alpha, Seed, OnEpoch as in HogwildConfig.
	Threads int
	Epochs  int
	Alpha   float32
	Seed    uint64
	OnEpoch func(epoch int, st Stats)
	// SharedNegWindow > 0 selects the batched-GEMM tier (`-sgns
	// batched`): groups of that many pairs share one negative-sample
	// set and score through vecmath.Gemm. Lossy relative to the
	// pairwise schedule but deterministic — same seed, same model,
	// independent of Threads (see batched_gemm.go).
	SharedNegWindow int
}

// TrainBatched is the Gensim stand-in (see DESIGN.md substitutions): the
// same SGNS math, but tokens are dispatched to workers in fixed-size jobs
// from a shared queue, each job trained at a constant per-job alpha that
// decays between jobs. This reproduces Gensim's scheduling behaviour —
// slightly different convergence path, comparable final accuracy.
func (t *Trainer) TrainBatched(tokens []int32, cfg BatchedConfig) Stats {
	if cfg.SharedNegWindow > 0 {
		return t.trainBatchedGemm(tokens, cfg)
	}
	if cfg.JobWords <= 0 {
		cfg.JobWords = 10000
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	root := xrand.New(cfg.Seed)
	var total Stats
	totalWords := int64(len(tokens)) * int64(cfg.Epochs)

	type job struct {
		lo, hi int
		alpha  float32
	}
	var wordsDone int64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		jobs := make(chan job, threads*2)
		statsCh := make(chan Stats, threads)
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			r := root.Split()
			wg.Add(1)
			go func(r *xrand.Rand) {
				defer wg.Done()
				var st Stats
				sc := t.NewScratch() // reused across every job
				for j := range jobs {
					t.TrainTokens(tokens[j.lo:j.hi], j.alpha, r, nil, &st, sc)
				}
				statsCh <- st
			}(r)
		}
		for lo := 0; lo < len(tokens); lo += cfg.JobWords {
			hi := lo + cfg.JobWords
			if hi > len(tokens) {
				hi = len(tokens)
			}
			frac := float64(wordsDone+int64(lo)) / float64(totalWords+1)
			alpha := cfg.Alpha * float32(1-frac)
			if alpha < cfg.Alpha*1e-4 {
				alpha = cfg.Alpha * 1e-4
			}
			jobs <- job{lo: lo, hi: hi, alpha: alpha}
		}
		close(jobs)
		wg.Wait()
		close(statsCh)
		var epochStats Stats
		for st := range statsCh {
			epochStats.Add(st)
		}
		total.Add(epochStats)
		wordsDone += int64(len(tokens))
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, total)
		}
	}
	return total
}
