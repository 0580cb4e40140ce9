// Package vocab builds and serves the Word2Vec vocabulary: the mapping
// between surface words and dense integer node ids, word frequencies, the
// frequent-word subsampling probabilities, and the unigram^0.75
// negative-sampling distribution.
//
// In GraphWord2Vec the vocabulary *is* the node set of the training graph
// (paper §2.1/§4.2): each unique word becomes one node, identified by its
// id, and every host builds an identical vocabulary by streaming the corpus
// once. Ids are assigned in decreasing frequency order (the word2vec.c
// convention), which keeps hot rows of the model clustered. The graph
// workload reuses the same machinery with vertices as "words" counted by
// degree (walk.BuildVocabGraph).
package vocab

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"graphword2vec/internal/xrand"
)

// Word is one vocabulary entry.
type Word struct {
	// Text is the surface form.
	Text string
	// Count is the number of occurrences in the training corpus.
	Count int64
}

// Vocabulary maps words to node ids and holds per-word statistics.
// A Vocabulary is immutable after Build and safe for concurrent readers.
type Vocabulary struct {
	words   []Word
	ids     map[string]int32
	total   int64 // total occurrences of retained words
	discard []float32
	sample  float64
}

// Options configures vocabulary construction.
type Options struct {
	// MinCount drops words occurring fewer than MinCount times. The
	// word2vec.c default is 5; tests and synthetic corpora often use 1.
	MinCount int64
	// Sample is the subsampling threshold t (paper §4.2 / Mikolov 2013
	// §2.3): each occurrence of word w is kept with probability
	// (sqrt(f/t)+1)·t/f where f is w's relative corpus frequency.
	// The paper uses 1e-4. Zero disables subsampling.
	Sample float64
}

// DefaultOptions mirrors the paper's settings (§5.1).
func DefaultOptions() Options { return Options{MinCount: 5, Sample: 1e-4} }

// Builder accumulates word counts from one or more token streams.
// It is not safe for concurrent use; shard counts are merged with Merge.
type Builder struct {
	counts map[string]int64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{counts: make(map[string]int64)}
}

// Add records one occurrence of word.
func (b *Builder) Add(word string) { b.counts[word]++ }

// AddN records n occurrences of word.
func (b *Builder) AddN(word string, n int64) { b.counts[word] += n }

// Merge folds other's counts into b (used when shards count in parallel).
func (b *Builder) Merge(other *Builder) {
	for w, c := range other.counts {
		b.counts[w] += c
	}
}

// Distinct returns the number of distinct words seen so far.
func (b *Builder) Distinct() int { return len(b.counts) }

// Build freezes the builder into a Vocabulary. Words below MinCount are
// dropped; the rest are sorted by decreasing count (ties broken by text so
// every host derives the identical id assignment).
func (b *Builder) Build(opts Options) (*Vocabulary, error) {
	if opts.MinCount < 0 {
		return nil, errors.New("vocab: MinCount must be >= 0")
	}
	if opts.Sample < 0 || math.IsNaN(opts.Sample) {
		return nil, errors.New("vocab: Sample must be >= 0")
	}
	words := make([]Word, 0, len(b.counts))
	for w, c := range b.counts {
		if c >= opts.MinCount {
			words = append(words, Word{Text: w, Count: c})
		}
	}
	sort.Slice(words, func(i, j int) bool {
		if words[i].Count != words[j].Count {
			return words[i].Count > words[j].Count
		}
		return words[i].Text < words[j].Text
	})
	if len(words) > math.MaxInt32 {
		return nil, errors.New("vocab: more than 2^31 words")
	}
	v := &Vocabulary{
		words:  words,
		ids:    make(map[string]int32, len(words)),
		sample: opts.Sample,
	}
	for i, w := range words {
		v.ids[w.Text] = int32(i)
		v.total += w.Count
	}
	v.buildDiscardTable()
	return v, nil
}

// buildDiscardTable precomputes, per word, the probability of *keeping* an
// occurrence under frequent-word subsampling.
func (v *Vocabulary) buildDiscardTable() {
	v.discard = make([]float32, len(v.words))
	if v.sample <= 0 || v.total == 0 {
		for i := range v.discard {
			v.discard[i] = 1
		}
		return
	}
	t := v.sample
	for i, w := range v.words {
		f := float64(w.Count) / float64(v.total)
		keep := (math.Sqrt(f/t) + 1) * t / f
		if keep > 1 {
			keep = 1
		}
		v.discard[i] = float32(keep)
	}
}

// Size returns the number of retained words (graph nodes).
func (v *Vocabulary) Size() int { return len(v.words) }

// TotalWords returns the total retained-token count of the corpus.
func (v *Vocabulary) TotalWords() int64 { return v.total }

// ID returns the node id for word, or -1 if word is out of vocabulary.
func (v *Vocabulary) ID(word string) int32 {
	if id, ok := v.ids[word]; ok {
		return id
	}
	return -1
}

// WordAt returns the vocabulary entry for node id.
func (v *Vocabulary) WordAt(id int32) Word { return v.words[id] }

// Text returns the surface form for node id.
func (v *Vocabulary) Text(id int32) string { return v.words[id].Text }

// Count returns the corpus count for node id.
func (v *Vocabulary) Count(id int32) int64 { return v.words[id].Count }

// KeepProb returns the subsampling keep-probability for node id.
func (v *Vocabulary) KeepProb(id int32) float32 { return v.discard[id] }

// Keep reports whether this particular occurrence of id survives
// frequent-word subsampling, consuming one variate from r.
func (v *Vocabulary) Keep(id int32, r *xrand.Rand) bool {
	p := v.discard[id]
	return p >= 1 || r.Float32() < p
}

// UnigramTable is the negative-sampling distribution: P(w) ∝ count(w)^power
// with power = 0.75 per the paper (§2.1) and Mikolov et al. It is backed by
// an alias table, giving O(1) exact draws instead of word2vec.c's
// 100M-entry discretised array.
type UnigramTable struct {
	alias *xrand.Alias
}

// NegativeSamplingPower is the exponent applied to unigram counts.
const NegativeSamplingPower = 0.75

// NewUnigramTable builds the negative-sampling table for v.
func NewUnigramTable(v *Vocabulary) (*UnigramTable, error) {
	if v.Size() == 0 {
		return nil, errors.New("vocab: cannot build unigram table for empty vocabulary")
	}
	w := make([]float64, v.Size())
	for i := range w {
		w[i] = math.Pow(float64(v.words[i].Count), NegativeSamplingPower)
	}
	a, err := xrand.NewAlias(w)
	if err != nil {
		return nil, fmt.Errorf("vocab: unigram table: %w", err)
	}
	return &UnigramTable{alias: a}, nil
}

// Sample draws one negative word id.
func (t *UnigramTable) Sample(r *xrand.Rand) int32 { return int32(t.alias.Draw(r)) }

// SampleExcludingN fills dst with negative ids different from exclude
// and returns the filled slice; it draws exactly what len(dst) one-at-a-
// time draws with rejection would. Skipping negatives that collide with
// the target word mirrors word2vec.c. A single-word vocabulary has no
// negative to offer: the result is empty and no variate is consumed.
func (t *UnigramTable) SampleExcludingN(r *xrand.Rand, exclude int32, dst []int32) []int32 {
	return t.alias.DrawExcluding(r, exclude, dst)
}

// CountFromTokens is a convenience that streams whitespace-separated tokens
// from rd into a fresh Builder. It exists so callers without a corpus.Reader
// (tests, tools) can build vocabularies directly from text.
func CountFromTokens(rd io.Reader) (*Builder, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		b.Add(sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("vocab: scanning tokens: %w", err)
	}
	return b, nil
}
