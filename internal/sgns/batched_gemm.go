package sgns

import (
	"graphword2vec/internal/vecmath"
	"graphword2vec/internal/xrand"
)

// Batched-GEMM SGNS tier (`-sgns batched`, DESIGN.md §12). A window of
// P consecutive training pairs shares ONE set of K negative samples, and
// the P×K negative scores become a single small GEMM over packed row
// panels instead of P·K row dots. This is explicitly
// lossy-but-deterministic: it is a different (coarser-grained) SGD
// schedule than the pairwise path — scores read the panel values packed
// at group start, negatives are shared, duplicate rows inside a group
// see group-start values — but every run with the same seed produces the
// same model, regardless of the Threads setting, because scheduling is
// fixed by construction:
//
//   - jobs are processed in index order by a single model-writer
//     goroutine (the GEMM kernels, not thread scaling, are the speedup —
//     the right trade on the single-CPU bench host, see ROADMAP);
//   - each job's RNG is derived from (Seed, epoch, job index), never
//     from worker identity;
//   - group updates are applied in a fixed order (embeddings in pair
//     order, then positives in pair order, then shared negatives in
//     draw order).
//
// Per group the panels combine as:
//
//	S  (P×K)  = E (P×d) · Nᵀ (d×K)   negative scores (d-length row dots)
//	U  (P×d) += G (P×K) · N  (K×d)   per-pair gradient accumulators
//	D  (K×d) += Gᵀ (K×P) · E (P×d)   shared-negative row updates
//
// where E packs the pair contexts' embedding rows, N the shared
// negatives' training rows and G the per-cell gradients (zeroed where a
// negative collides with that pair's center, word2vec.c's skip rule).
// U and D run through vecmath.Gemm (their inner dimension is d, the
// shape the kernel's 4-wide unroll wants); S's inner dimension would be
// K — too short to vectorize as row updates — so it is computed in the
// transposed dot form over the same panels instead.

// BatchScratch holds the reusable panels of the batched-GEMM tier; one
// per trainer invocation (the tier is single-writer). Sized for group
// width P and the trainer's Negatives/Dim, it makes the steady-state
// group flush allocation-free.
type BatchScratch struct {
	sen   []int32
	ctxs  []int32 // pair context words (embedding side), ≤ P
	cents []int32 // pair centers (positive targets), ≤ P
	negs  []int32 // shared negative draws, K

	e  []float32 // E: P×d packed context embedding rows
	u  []float32 // U: P×d per-pair gradient accumulators
	n  []float32 // N: K×d packed negative training rows
	s  []float32 // S/G: P×K scores, transformed into gradients in place
	gt []float32 // Gᵀ: K×P transpose of G

	fpos []float32 // positive scores, ≤ P
	gpos []float32 // positive gradients, ≤ P
}

// NewBatchScratch returns panels for group width p (SharedNegWindow).
func (t *Trainer) NewBatchScratch(p int) *BatchScratch {
	maxSent := t.Params.MaxSentenceLength
	if maxSent <= 0 {
		maxSent = 10000
	}
	d := t.Model.Dim
	k := t.Params.Negatives
	return &BatchScratch{
		sen:   make([]int32, 0, maxSent),
		ctxs:  make([]int32, 0, p),
		cents: make([]int32, 0, p),
		negs:  make([]int32, k),
		e:     make([]float32, p*d),
		u:     make([]float32, p*d),
		n:     make([]float32, k*d),
		s:     make([]float32, p*k),
		gt:    make([]float32, k*p),
		fpos:  make([]float32, p),
		gpos:  make([]float32, p),
	}
}

// jobSeed derives the per-(epoch, job) RNG seed — a splitmix64-style
// finalizer over the root seed, so neither worker identity nor thread
// count can reach the stream.
func jobSeed(seed uint64, epoch, job int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(epoch+1) + 0xbf58476d1ce4e5b9*uint64(job+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// trainBatchedGemm is the SharedNegWindow > 0 arm of TrainBatched.
func (t *Trainer) trainBatchedGemm(tokens []int32, cfg BatchedConfig) Stats {
	if cfg.JobWords <= 0 {
		cfg.JobWords = 10000
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	var total Stats
	totalWords := int64(len(tokens)) * int64(cfg.Epochs)
	sc := t.NewBatchScratch(cfg.SharedNegWindow)
	var wordsDone int64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for jobIdx, lo := 0, 0; lo < len(tokens); jobIdx, lo = jobIdx+1, lo+cfg.JobWords {
			hi := lo + cfg.JobWords
			if hi > len(tokens) {
				hi = len(tokens)
			}
			frac := float64(wordsDone+int64(lo)) / float64(totalWords+1)
			alpha := cfg.Alpha * float32(1-frac)
			if alpha < cfg.Alpha*1e-4 {
				alpha = cfg.Alpha * 1e-4
			}
			r := xrand.New(jobSeed(cfg.Seed, epoch, jobIdx))
			t.trainJobGemm(tokens[lo:hi], alpha, cfg.SharedNegWindow, r, &total, sc)
		}
		wordsDone += int64(len(tokens))
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, total)
		}
	}
	return total
}

// trainJobGemm trains one job: subsample per sentence as TrainTokens
// does, walk centers with the dynamic window, and flush every P
// collected pairs as one shared-negative GEMM group. Groups never span
// sentences.
func (t *Trainer) trainJobGemm(tokens []int32, alpha float32, p int, r *xrand.Rand, st *Stats, sc *BatchScratch) {
	maxSent := t.Params.MaxSentenceLength
	window := t.Params.Window
	for start := 0; start < len(tokens); start += maxSent {
		end := start + maxSent
		if end > len(tokens) {
			end = len(tokens)
		}
		sen := sc.sen[:0]
		for _, w := range tokens[start:end] {
			st.TokensSeen++
			if t.Vocab.Keep(w, r) {
				sen = append(sen, w)
				st.TokensKept++
			}
		}
		sc.sen = sen
		sc.ctxs, sc.cents = sc.ctxs[:0], sc.cents[:0]
		for pos, center := range sen {
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
				sc.ctxs = append(sc.ctxs, sen[cpos])
				sc.cents = append(sc.cents, center)
				if len(sc.ctxs) == p {
					t.flushGroup(alpha, r, st, sc)
					sc.ctxs, sc.cents = sc.ctxs[:0], sc.cents[:0]
				}
			}
		}
		if len(sc.ctxs) > 0 {
			t.flushGroup(alpha, r, st, sc)
			sc.ctxs, sc.cents = sc.ctxs[:0], sc.cents[:0]
		}
	}
}

// flushGroup trains the collected pairs against one shared negative set.
func (t *Trainer) flushGroup(alpha float32, r *xrand.Rand, st *Stats, sc *BatchScratch) {
	m := t.Model
	d := m.Dim
	k := t.Params.Negatives
	p := len(sc.ctxs)
	st.Pairs += int64(p)

	// One shared negative draw per slot — K draws for the whole group
	// instead of P·K. Collisions with a pair's center are masked per
	// cell below (the word2vec.c skip rule), not redrawn, so the draw
	// count is shape-independent.
	for j := 0; j < k; j++ {
		sc.negs[j] = t.Neg.Sample(r)
	}

	// Pack the panels. E and N freeze the group's input values: every
	// score in this group reads group-start rows (the documented lossy
	// difference from the pairwise path, which would see mid-group
	// updates). Center rows need no panel — nothing writes the model
	// until the apply phase, and the apply order below is arranged so
	// every center-row read happens before any center-row write.
	e := sc.e[:p*d]
	for i := 0; i < p; i++ {
		copy(e[i*d:(i+1)*d], m.EmbRow(sc.ctxs[i]))
	}
	n := sc.n[:k*d]
	for j := 0; j < k; j++ {
		copy(n[j*d:(j+1)*d], m.CtxRow(sc.negs[j]))
	}

	// Scores: S = E·Nᵀ in dot form (inner dimension d), positives as
	// row dots against the still-pristine center rows.
	s := sc.s[:p*k]
	for i := 0; i < p; i++ {
		ei := e[i*d : (i+1)*d]
		sc.fpos[i] = vecmath.Dot(ei, m.CtxRow(sc.cents[i]))
		for j := 0; j < k; j++ {
			s[i*k+j] = vecmath.Dot(ei, n[j*d:(j+1)*d])
		}
	}

	// Gradients, in place over the score panels.
	for i := 0; i < p; i++ {
		f := sc.fpos[i]
		sc.gpos[i] = (1 - vecmath.Sigmoid(f)) * alpha
		if t.Params.TrackLoss {
			st.LossSum += pairLoss(float64(f), 1)
			st.LossEdges++
		}
		for j := 0; j < k; j++ {
			if sc.negs[j] == sc.cents[i] {
				s[i*k+j] = 0 // skip rule: no self-negative update
				continue
			}
			f := s[i*k+j]
			s[i*k+j] = (0 - vecmath.Sigmoid(f)) * alpha
			if t.Params.TrackLoss {
				st.LossSum += pairLoss(float64(f), 0)
				st.LossEdges++
			}
		}
	}
	gt := sc.gt[:k*p]
	for i := 0; i < p; i++ {
		for j := 0; j < k; j++ {
			gt[j*p+i] = s[i*k+j]
		}
	}

	// U = G·N: each pair's accumulated negative-gradient row. N's last
	// read is here, which frees its backing for D below.
	u := sc.u[:p*d]
	vecmath.Zero(u)
	vecmath.Gemm(u, s, n, p, k, d)

	// Apply, fixed order: embeddings first in pair order (center rows
	// are still pristine, so the positive term reads them live), then
	// positive targets in pair order (their gradient uses the frozen E
	// panel), then shared negatives in draw order (D = Gᵀ·E computed
	// into n's now-free backing). Duplicates within a phase fold
	// sequentially — the defined, deterministic semantics.
	for i := 0; i < p; i++ {
		emb := m.EmbRow(sc.ctxs[i])
		vecmath.Axpy(1, u[i*d:(i+1)*d], emb)
		vecmath.Axpy(sc.gpos[i], m.CtxRow(sc.cents[i]), emb)
	}
	for i := 0; i < p; i++ {
		vecmath.Axpy(sc.gpos[i], e[i*d:(i+1)*d], m.CtxRow(sc.cents[i]))
	}
	vecmath.Zero(n)
	vecmath.Gemm(n, gt, e, k, p, d)
	for j := 0; j < k; j++ {
		vecmath.Axpy(1, n[j*d:(j+1)*d], m.CtxRow(sc.negs[j]))
	}
}
