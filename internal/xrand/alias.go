package xrand

import (
	"errors"
	"math"
)

// Alias samples from an arbitrary discrete distribution in O(1) per draw
// using Vose's alias method. GraphWord2Vec uses it for the unigram^0.75
// negative-sampling table (replacing word2vec.c's 100M-entry array with an
// exact, memory-proportional structure) and inside the synthetic corpus
// generator.
type Alias struct {
	prob  []float64
	alias []int32
}

// ErrBadWeights is returned by NewAlias when the weight vector is empty,
// contains a negative or non-finite entry, or sums to zero.
var ErrBadWeights = errors.New("xrand: weights must be non-empty, non-negative, finite, with positive sum")

// NewAlias builds an alias table for the given unnormalised weights.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, ErrBadWeights
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, ErrBadWeights
		}
		sum += w
	}
	if sum <= 0 {
		return nil, ErrBadWeights
	}
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	// Scaled probabilities; partition into under/over-full work stacks.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Remaining entries are exactly 1 up to FP rounding.
	for _, l := range large {
		a.prob[l] = 1
	}
	for _, s := range small {
		a.prob[s] = 1
	}
	return a, nil
}

// N returns the number of outcomes.
func (a *Alias) N() int { return len(a.prob) }

// Draw returns one sample in [0, N()) distributed per the weights.
func (a *Alias) Draw(r *Rand) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// DrawExcluding fills dst with draws, redrawing every one equal to
// exclude, and returns dst. It consumes exactly the variates that
// len(dst) loops of "Draw until the result is not exclude" would, and
// returns the same values, but keeps the generator state in locals for
// the whole batch instead of a memory round trip per variate. When
// exclude is the only outcome (N() == 1, exclude == 0) nothing can be
// drawn: it returns dst[:0] and consumes nothing. Otherwise the outcomes
// other than exclude must carry some weight, or the call never returns.
func (a *Alias) DrawExcluding(r *Rand, exclude int32, dst []int32) []int32 {
	n := uint64(len(a.prob))
	if n == 1 && exclude == 0 {
		return dst[:0]
	}
	prob, alias := a.prob, a.alias
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for k := 0; k < len(dst); {
		var x uint64
		x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		i, ok := lemire(x, n)
		if !ok {
			continue
		}
		x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		v := int32(i)
		if !(unitFloat64(x) < prob[i]) {
			v = alias[i]
		}
		if v != exclude {
			dst[k] = v
			k++
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return dst
}

// Zipf generates values in [0, n) with P(k) proportional to 1/(k+1)^s.
// Synthetic corpora use it to give filler words a realistic frequency skew
// so that subsampling and the unigram table are exercised as in real text.
type Zipf struct {
	alias *Alias
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 || s <= 0 || math.IsNaN(s) {
		return nil, errors.New("xrand: Zipf requires n > 0 and s > 0")
	}
	w := make([]float64, n)
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
	}
	a, err := NewAlias(w)
	if err != nil {
		return nil, err
	}
	return &Zipf{alias: a}, nil
}

// Draw returns one Zipf-distributed rank in [0, n).
func (z *Zipf) Draw(r *Rand) int { return z.alias.Draw(r) }
