package main

import (
	"fmt"
	"time"

	"graphword2vec/internal/core"
	"graphword2vec/internal/corpus"
	"graphword2vec/internal/eval"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
	"graphword2vec/internal/synth"
	"graphword2vec/internal/vocab"
	"graphword2vec/internal/walk"
)

// hosts is the cluster size of every training pass: one rank per CPU of
// the two-CPU machine the benchmark was sized on, one thread per rank so
// every model is bit-deterministic.
const hosts = 2

// workload is one named benchmark input. Why each exists is recorded
// beside its name in BENCHMARK.json.
type workload struct {
	name string
	// text selects the Word2Vec corpus; otherwise DeepWalk over graph.
	text  bool
	graph func(seed uint64) synth.GraphConfig
	walks walk.Config

	dim        int
	epochs     int
	negatives  int
	mode       gluon.Mode
	syncRounds int // 0 = core.DefaultConfig's rule for the cluster size
	heal       bool
	overlap    bool
	ckptEvery  int // rounds between checkpoints; 0 = none

	// trainShare is the part of the run spent repeating training
	// rounds; the rest serves the trained model.
	trainShare float64
	// minTrains is the fewest training passes a run makes.
	minTrains int
	// qualityFloor is the lowest acceptable quality: analogy total
	// accuracy for text, community purity for graphs, both in [0, 1].
	qualityFloor float64
	// reload serves latency windows of reloadWindow, each beside a
	// reload of the other trained model, until serveUntil of the run.
	reload       bool
	reloadWindow time.Duration
	serveUntil   float64
}

var workloads = []workload{
	{
		name: "text-w2v", text: true,
		dim: 48, epochs: 1, negatives: 15, mode: gluon.RepModelOpt,
		trainShare: 0.9, minTrains: 4, qualityFloor: 0.05,
	},
	{
		name: "graph-durable",
		graph: func(seed uint64) synth.GraphConfig {
			g := synth.GraphPreset(synth.ScaleFull)
			g.Seed += seed
			return g
		},
		walks: walk.DefaultConfig(),
		dim:   48, epochs: 2, negatives: 5, mode: gluon.PullModel,
		// The paper's 32-host sync frequency (§5.4 rule).
		syncRounds: core.SyncFrequencyRule(32),
		heal:       true, overlap: true, ckptEvery: 8,
		trainShare: 0.9, minTrains: 4, qualityFloor: 0.5,
	},
	{
		name: "serve-reload",
		graph: func(seed uint64) synth.GraphConfig {
			return synth.GraphConfig{
				Name: "serve-8000", Communities: 32, VerticesPerCommunity: 250,
				IntraDegree: 12, InterDegree: 2, Seed: 3_000_001 + seed,
			}
		},
		walks: walk.Config{WalkLength: 40, WalksPerVertex: 3},
		dim:   48, epochs: 1, negatives: 5, mode: gluon.RepModelOpt,
		trainShare: 0.7, minTrains: 3, qualityFloor: 0.3,
		reload: true, reloadWindow: 2 * time.Second, serveUntil: 0.9,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the training configuration of one pass. trainSeed varies
// between passes that must produce different models.
func (w workload) config(trainSeed uint64) core.Config {
	cfg := core.DefaultConfig(hosts)
	cfg.Epochs = w.epochs
	if w.syncRounds > 0 {
		cfg.SyncRounds = w.syncRounds
	}
	cfg.Mode = w.mode
	cfg.Seed = trainSeed
	cfg.Params.Negatives = w.negatives
	if !w.text {
		cfg.Params.Window = 5
		cfg.Params.MaxSentenceLength = w.walks.WalkLength
	}
	cfg.Heal = w.heal
	cfg.SyncOverlap = w.overlap
	return cfg
}

// inputs are one pass's generated training inputs.
type inputs struct {
	voc *vocab.Vocabulary
	neg *vocab.UnigramTable
	src corpus.SequenceSource
	// quality scores a trained model against the generator's ground
	// truth.
	quality func(*model.Model) (float64, error)
}

// loadInputs generates the workload's inputs from the benchmark seed.
func (w workload) loadInputs(seed uint64) (*inputs, error) {
	if w.text {
		return loadText()
	}
	return loadGraph(w.graph(seed), w.walks)
}

// loadText builds the 1-billion stand-in at small scale: corpus,
// vocabulary (the experiment harness's min-count and subsampling
// settings) and every analogy question the preset defines (all ordered
// pairs of distinct groups in each category), so quality does not
// depend on a question sample. The corpus is the preset's own: analogy
// accuracy differs by a fifth between corpora of different seeds, more
// than any bound a regression check could use, so only the training
// seeds vary.
func loadText() (*inputs, error) {
	cfg, err := synth.Preset("1-billion", synth.ScaleSmall)
	if err != nil {
		return nil, err
	}
	data, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	counts := make([]int64, len(data.Names))
	for _, tok := range data.Tokens {
		counts[tok]++
	}
	b := vocab.NewBuilder()
	for id, c := range counts {
		if c > 0 {
			b.AddN(data.Names[id], c)
		}
	}
	voc, err := b.Build(vocab.Options{MinCount: 5, Sample: 5e-3})
	if err != nil {
		return nil, err
	}
	neg, err := vocab.NewUnigramTable(voc)
	if err != nil {
		return nil, err
	}
	remap := make([]int32, len(data.Names))
	for id, name := range data.Names {
		remap[id] = voc.ID(name)
	}
	ids := make([]int32, 0, len(data.Tokens))
	for _, tok := range data.Tokens {
		if vid := remap[tok]; vid >= 0 {
			ids = append(ids, vid)
		}
	}
	sq, err := synth.Questions(cfg, cfg.Groups*(cfg.Groups-1), 1)
	if err != nil {
		return nil, err
	}
	qs := make([]eval.Question, len(sq))
	for i, q := range sq {
		qs[i] = eval.Question{A: q.A, B: q.B, C: q.C, D: q.D, Category: q.Category, Semantic: q.Semantic}
	}
	return &inputs{
		voc: voc, neg: neg, src: corpus.FromIDs(ids),
		quality: func(m *model.Model) (float64, error) {
			res, err := eval.Analogies(m, voc, qs, eval.Options{})
			if err != nil {
				return 0, err
			}
			return res.Total.Percent() / 100, nil
		},
	}, nil
}

// loadGraph builds a planted-community graph, its degree-ordered
// vocabulary and the random-walk sequence source.
func loadGraph(gcfg synth.GraphConfig, wcfg walk.Config) (*inputs, error) {
	data, err := synth.GenerateGraph(gcfg)
	if err != nil {
		return nil, err
	}
	voc, g, remap, err := walk.BuildVocabGraph(data.Names, data.Edges, false)
	if err != nil {
		return nil, err
	}
	neg, err := vocab.NewUnigramTable(voc)
	if err != nil {
		return nil, err
	}
	walker, err := walk.NewWalker(g, wcfg)
	if err != nil {
		return nil, err
	}
	labels := make([]int32, len(data.Labels))
	for v, lab := range data.Labels {
		labels[remap[v]] = lab
	}
	return &inputs{
		voc: voc, neg: neg, src: walker,
		quality: func(m *model.Model) (float64, error) {
			return eval.CommunityPurity(m, labels, 10)
		},
	}, nil
}
