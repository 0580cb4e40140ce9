// Package workload resolves the training workload of the training
// commands (cmd/gw2v-train, cmd/gw2v-worker) from one shared flag
// surface: Word2Vec on a text corpus or DeepWalk on a graph's random
// walks, the two instances of the Any2Vec pattern (DESIGN.md §6), with
// the training hyper-parameters both commands take. Both register these
// flags and load through Load, so equal flags derive the identical
// vocabulary, sequence source and configuration — which is what keeps a
// simulated run and a multi-process run bit-comparable.
package workload

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/core"
	"graphword2vec/internal/corpus"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/harness"
	"graphword2vec/internal/sgns"
	"graphword2vec/internal/synth"
	"graphword2vec/internal/vocab"
	"graphword2vec/internal/walk"
)

// Flags holds the workload and training flags after parsing. Epochs,
// Dim and Negatives hold 0, 0 and -1 while left at their workload
// defaults.
type Flags struct {
	Name                        string // "text" or "graph"
	Corpus, Graph, Preset       string
	Directed                    bool
	WalkLength, WalksPerVertex  int
	MinCount                    int
	Sample                      float64
	Epochs, Dim, Negatives      int
	Alpha                       float64
	Window, Threads, SyncRounds int
	Seed                        uint64
	Comm                        *cliutil.CommFlags
	Perf                        *cliutil.PerfFlags
	mode                        gluon.Mode // resolved by Validate
}

// Register installs the workload and training flags on fs. rankNote is
// appended to the help of the flags every rank of a cluster must agree
// on: ", identical on every rank" for gw2v-worker, "" otherwise.
func Register(fs *flag.FlagSet, rankNote string) *Flags {
	f := &Flags{Comm: cliutil.RegisterComm(fs), Perf: cliutil.RegisterPerf(fs)}
	fs.StringVar(&f.Name, "workload", "text", "training workload: text or graph")
	fs.StringVar(&f.Corpus, "corpus", "", "text workload: training corpus path"+rankNote)
	fs.StringVar(&f.Graph, "graph", "", "graph workload: edge-list path ('u v [weight]' per line, '#' comments)"+rankNote)
	fs.StringVar(&f.Preset, "preset", "", "graph workload: synthetic community graph scale (tiny, small, full)")
	fs.BoolVar(&f.Directed, "directed", false, "graph workload: treat the edge list as directed")
	fs.IntVar(&f.WalkLength, "walk-length", 0, "graph workload: vertices per walk (0 = default)")
	fs.IntVar(&f.WalksPerVertex, "walks-per-vertex", 0, "graph workload: walks per start vertex per epoch (0 = default)")
	fs.IntVar(&f.MinCount, "min-count", 5, "text workload: drop words with fewer occurrences")
	fs.Float64Var(&f.Sample, "sample", 1e-4, "text workload: frequent-word subsampling threshold (0 = off)")
	fs.IntVar(&f.Epochs, "epochs", 0, "training epochs (0 = workload default: 16 for text, 8 for graphs)")
	fs.IntVar(&f.Dim, "dim", 0, "embedding dimensionality (0 = workload default: 48 for text, the preset's scale default or 48 for graphs)")
	fs.IntVar(&f.Negatives, "negatives", -1, "negative samples per pair (-1 = workload default: 15 for text, 5 for graphs)")
	fs.Float64Var(&f.Alpha, "alpha", 0.025, "initial learning rate")
	fs.IntVar(&f.Window, "window", 5, "context window")
	fs.IntVar(&f.Threads, "threads", 1, "Hogwild threads per host (>1 sacrifices bit-determinism)")
	fs.IntVar(&f.SyncRounds, "sync-rounds", 0, "sync rounds per epoch (0 = rule of thumb)")
	fs.Uint64Var(&f.Seed, "seed", 1, "random seed"+rankNote)
	return f
}

// Validate checks the flags without reading any input.
func (f *Flags) Validate() (err error) {
	if f.mode, err = f.Comm.Resolve(); err != nil {
		return err
	}
	switch f.Name {
	case "text":
		if f.Corpus == "" {
			return errors.New("-corpus is required for the text workload")
		}
		return nil
	case "graph":
		if (f.Graph == "") == (f.Preset == "") {
			return errors.New("exactly one of -graph or -preset is required for the graph workload")
		}
		if f.Preset != "" {
			if _, err := synth.ParseScale(f.Preset); err != nil {
				return fmt.Errorf("-preset: %w", err)
			}
		}
		return f.walkConfig().Validate()
	}
	return fmt.Errorf("unknown -workload %q (want text or graph)", f.Name)
}

func (f *Flags) walkConfig() walk.Config {
	c := walk.DefaultConfig()
	if f.WalkLength > 0 {
		c.WalkLength = f.WalkLength
	}
	if f.WalksPerVertex > 0 {
		c.WalksPerVertex = f.WalksPerVertex
	}
	return c
}

// Workload is a training workload resolved from Flags.
type Workload struct {
	Vocab *vocab.Vocabulary
	Neg   *vocab.UnigramTable
	// Source is a *corpus.Corpus for text, a *walk.Walker for graphs.
	Source corpus.SequenceSource
	// Config trains the workload on the cluster size Load was given,
	// with the workload defaults filled in: 16 epochs, 15 negatives and
	// 10000-token sentences for text, 8 epochs, 5 negatives and one walk
	// per sentence for graphs.
	Config core.Config
	// Dim is the embedding dimensionality: the flag if set, else 48 or
	// a preset's scale default.
	Dim int
	// Extra fingerprints, for core.Config.Checksum, what the vocabulary
	// size and corpus length miss, so ranks that derived different
	// workloads fail the mesh handshake: -sample changes every
	// subsampling decision, and edge lists with equal counts may still
	// differ in an edge or a weight.
	Extra []uint64
	// Dataset carries a preset's planted ground truth; nil otherwise.
	Dataset *harness.GraphDataset
	// Summary describes the loaded inputs in one line.
	Summary string
}

// Load validates the flags and derives the workload for a cluster of
// hosts. It is deterministic: every rank that loads equal flags gets the
// same node ids and shard boundaries without any wire traffic; -seed
// also drives a preset's edge holdout.
func (f *Flags) Load(hosts int) (*Workload, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	w := &Workload{Config: core.DefaultConfig(hosts), Dim: f.Dim}
	c := &w.Config
	c.Epochs, c.Alpha, c.Seed, c.ThreadsPerHost = f.Epochs, float32(f.Alpha), f.Seed, f.Threads
	c.CombinerName, c.Mode = f.Comm.Combiner, f.mode
	c.SyncOverlap = f.Perf.SyncOverlap
	c.Params = sgns.Params{Window: f.Window, Negatives: f.Negatives}
	if f.SyncRounds > 0 {
		c.SyncRounds = f.SyncRounds
	}
	var epochs, dim, negatives, sentence int // the workload's defaults
	if f.Name == "text" {
		builder, err := corpus.CountFile(f.Corpus)
		if err != nil {
			return nil, err
		}
		if w.Vocab, err = builder.Build(vocab.Options{MinCount: int64(f.MinCount), Sample: f.Sample}); err != nil {
			return nil, err
		}
		file, err := os.Open(f.Corpus)
		if err != nil {
			return nil, err
		}
		w.Source, err = corpus.Load(file, w.Vocab)
		file.Close()
		if err != nil {
			return nil, err
		}
		epochs, dim, negatives, sentence = 16, 48, 15, 10000
		w.Extra = []uint64{0, math.Float64bits(f.Sample), uint64(f.MinCount)}
		w.Summary = fmt.Sprintf("corpus %s: vocabulary %d words, %d training tokens", f.Corpus, w.Vocab.Size(), w.Source.Len())
	} else {
		wcfg := f.walkConfig()
		gi, err := harness.LoadGraphInput(f.Preset, f.Graph, f.Directed, wcfg, f.Seed)
		if err != nil {
			return nil, err
		}
		w.Vocab, w.Source, w.Dataset = gi.Vocab, gi.Walker, gi.Dataset
		epochs, dim, negatives, sentence = 8, gi.DefaultDim, 5, wcfg.WalkLength
		g := gi.Walker.Graph()
		w.Extra = []uint64{1, uint64(wcfg.WalkLength), uint64(wcfg.WalksPerVertex), g.Fingerprint()}
		name := f.Graph
		if gi.Dataset != nil {
			name = "preset " + gi.Dataset.Name
		}
		w.Summary = fmt.Sprintf("graph %s: %d vertices, %d edges, %d walk tokens per epoch", name, g.NumVertices(), g.NumEdges(), w.Source.Len())
	}
	if c.Epochs == 0 {
		c.Epochs = epochs
	}
	if w.Dim == 0 {
		w.Dim = dim
	}
	if c.Params.Negatives == -1 {
		c.Params.Negatives = negatives
	}
	c.Params.MaxSentenceLength = sentence
	var err error
	if w.Neg, err = vocab.NewUnigramTable(w.Vocab); err != nil {
		return nil, err
	}
	return w, nil
}
