package harness

import (
	"errors"
	"fmt"
	"os"
	"text/tabwriter"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/core"
	"graphword2vec/internal/eval"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
	"graphword2vec/internal/sgns"
	"graphword2vec/internal/synth"
	"graphword2vec/internal/vocab"
	"graphword2vec/internal/walk"
	"graphword2vec/internal/xrand"
)

// The graph (DeepWalk/Any2Vec) workload: a planted-community graph, a
// random-walk SequenceSource, and evaluations against the planted
// structure. This is the harness's proof that the engine/transport split
// is workload-agnostic — the same core.Trainer, the same three sync
// schemes, a different SequenceSource. See DESIGN.md §6.

// GraphEvalNeighbors is k in the community nearest-neighbour purity.
const GraphEvalNeighbors = 10

// graphHoldoutFraction of edges is withheld from training for the
// link-prediction AUC.
const graphHoldoutFraction = 0.1

// GraphDataset is a fully materialised graph workload: the walkable
// training graph (in vocabulary-id space), its vocabulary (vertex names,
// degree-ordered ids) and negative-sampling table, the planted community
// labels, and the held-out edge sets for link prediction.
type GraphDataset struct {
	Name  string
	Cfg   synth.GraphConfig
	Vocab *vocab.Vocabulary
	Neg   *vocab.UnigramTable
	// Walker is the corpus.SequenceSource trained on.
	Walker *walk.Walker
	// Labels holds each vertex's community, indexed by vocabulary id.
	Labels []int32
	// TestEdges are held-out positives, NegPairs sampled non-edges, both
	// in vocabulary-id space.
	TestEdges [][2]int32
	NegPairs  [][2]int32
}

// GraphWalkConfig returns the walk hyper-parameters the harness uses —
// DeepWalk-style defaults shared by experiments, tests and examples so
// every path trains the identical workload.
func GraphWalkConfig() walk.Config { return walk.DefaultConfig() }

// GraphTrainConfig assembles the core configuration for a graph-workload
// run: the paper's distribution defaults with SGNS parameters matched to
// walks — sentence length equal to the walk length (so sentence cuts
// coincide with walk boundaries) and DeepWalk's 5 negatives.
func GraphTrainConfig(opts Options, hosts int, mode gluon.Mode) core.Config {
	opts = opts.WithDefaults()
	cfg := core.DefaultConfig(hosts)
	cfg.Epochs = opts.Epochs
	cfg.SyncRounds = core.SyncFrequencyRule(hosts)
	cfg.Mode = mode
	cfg.Seed = opts.Seed
	cfg.Params = sgns.Params{Window: 5, Negatives: 5, MaxSentenceLength: GraphWalkConfig().WalkLength}
	return cfg
}

// LoadGraphDataset generates the community-graph preset at opts.Scale,
// holds out test edges, and builds the walkable training form.
func LoadGraphDataset(opts Options) (*GraphDataset, error) {
	opts = opts.WithDefaults()
	gcfg := synth.GraphPreset(opts.Scale)
	data, err := synth.GenerateGraph(gcfg)
	if err != nil {
		return nil, err
	}

	// Deterministic edge holdout: shuffle a copy, withhold the tail.
	r := xrand.New(opts.Seed + 99)
	edges := append([]walk.Edge(nil), data.Edges...)
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	holdout := int(float64(len(edges)) * graphHoldoutFraction)
	if holdout == 0 && len(edges) > 1 {
		holdout = 1
	}
	train, test := edges[:len(edges)-holdout], edges[len(edges)-holdout:]

	voc, g, remap, err := walk.BuildVocabGraph(data.Names, train, false)
	if err != nil {
		return nil, err
	}
	neg, err := vocab.NewUnigramTable(voc)
	if err != nil {
		return nil, err
	}
	walker, err := walk.NewWalker(g, GraphWalkConfig())
	if err != nil {
		return nil, err
	}

	labels := make([]int32, len(data.Labels))
	for v, lab := range data.Labels {
		labels[remap[v]] = lab
	}
	testEdges := make([][2]int32, len(test))
	for i, e := range test {
		testEdges[i] = [2]int32{remap[e.U], remap[e.V]}
	}
	// Non-edges for the AUC denominator: uniform vertex pairs that are in
	// neither the training graph nor the holdout.
	held := make(map[[2]int32]bool, len(testEdges))
	for _, e := range testEdges {
		held[e] = true
		held[[2]int32{e[1], e[0]}] = true
	}
	n := int32(voc.Size())
	negPairs := make([][2]int32, 0, len(testEdges))
	for len(negPairs) < len(testEdges) {
		u, v := int32(r.Intn(int(n))), int32(r.Intn(int(n)))
		if u == v || g.HasEdge(u, v) || held[[2]int32{u, v}] {
			continue
		}
		negPairs = append(negPairs, [2]int32{u, v})
	}

	return &GraphDataset{
		Name:      gcfg.Name,
		Cfg:       gcfg,
		Vocab:     voc,
		Neg:       neg,
		Walker:    walker,
		Labels:    labels,
		TestEdges: testEdges,
		NegPairs:  negPairs,
	}, nil
}

// GraphInput is a graph workload resolved from CLI inputs — the graph
// half of internal/workload, which resolves the -preset/-graph flags of
// gw2v-train -workload graph and gw2v-worker -workload graph. Keeping
// the resolution in one place is what keeps the two commands
// bit-comparable: both derive the identical vocabulary and walker from
// the same inputs.
type GraphInput struct {
	Vocab  *vocab.Vocabulary
	Walker *walk.Walker
	// Dataset is non-nil for presets only: it carries the planted ground
	// truth (labels, held-out edges) that file graphs don't have.
	Dataset *GraphDataset
	// DefaultDim is the dimensionality to use when the caller left -dim
	// unset: the preset's scale default, or 48 for file graphs.
	DefaultDim int
}

// LoadGraphInput builds the trainable graph workload from exactly one of
// a preset scale name ("tiny", "small", "full") or an edge-list path.
// wcfg selects the walk hyper-parameters; seed drives the preset's edge
// holdout.
func LoadGraphInput(preset, graphPath string, directed bool, wcfg walk.Config, seed uint64) (*GraphInput, error) {
	if (preset == "") == (graphPath == "") {
		return nil, errors.New("harness: exactly one of a preset or an edge-list path is required")
	}
	gi := &GraphInput{}
	if preset != "" {
		scale, err := synth.ParseScale(preset)
		if err != nil {
			return nil, err
		}
		opts := Defaults(scale)
		opts.Seed = seed
		opts = opts.WithDefaults()
		gi.Dataset, err = LoadGraphDataset(opts)
		if err != nil {
			return nil, err
		}
		gi.Vocab, gi.Walker, gi.DefaultDim = gi.Dataset.Vocab, gi.Dataset.Walker, opts.Dim
	} else {
		f, err := os.Open(graphPath)
		if err != nil {
			return nil, err
		}
		names, edges, err := walk.ReadEdgeList(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		var g *walk.Graph
		gi.Vocab, g, _, err = walk.BuildVocabGraph(names, edges, directed)
		if err != nil {
			return nil, err
		}
		gi.Walker, err = walk.NewWalker(g, wcfg)
		if err != nil {
			return nil, err
		}
		gi.DefaultDim = 48
	}
	if gi.Walker.Config() != wcfg {
		var err error
		gi.Walker, err = walk.NewWalker(gi.Walker.Graph(), wcfg)
		if err != nil {
			return nil, err
		}
	}
	return gi, nil
}

// GraphAccuracies bundles the graph workload's quality metrics.
type GraphAccuracies struct {
	// Purity is the community nearest-neighbour purity in [0,1]
	// (random ≈ 1/communities).
	Purity float64
	// AUC is the held-out link-prediction AUC in [0,1] (random ≈ 0.5).
	AUC float64
}

// Evaluate scores a trained vertex-embedding model against the planted
// structure.
func (d *GraphDataset) Evaluate(m *model.Model) (GraphAccuracies, error) {
	if m == nil {
		return GraphAccuracies{}, errors.New("harness: nil model")
	}
	purity, err := eval.CommunityPurity(m, d.Labels, GraphEvalNeighbors)
	if err != nil {
		return GraphAccuracies{}, err
	}
	auc, err := eval.LinkAUC(m, d.TestEdges, d.NegPairs)
	if err != nil {
		return GraphAccuracies{}, err
	}
	return GraphAccuracies{Purity: purity, AUC: auc}, nil
}

// TrainGraph is the exported convenience used by examples and tools: one
// simulated-cluster run of the graph workload with the given combiner
// and mode, returning the run result and its evaluation.
func TrainGraph(d *GraphDataset, opts Options, combiner string, mode gluon.Mode) (*core.Result, GraphAccuracies, error) {
	opts = opts.WithDefaults()
	cfg := GraphTrainConfig(opts, opts.Hosts, mode)
	cfg.CombinerName = combiner
	tr, err := core.NewTrainer(cfg, d.Vocab, d.Neg, d.Walker, opts.Dim)
	if err != nil {
		return nil, GraphAccuracies{}, err
	}
	tr.SequentialCompute = true
	res, err := tr.Run()
	if err != nil {
		return nil, GraphAccuracies{}, err
	}
	acc, err := d.Evaluate(res.Canonical)
	if err != nil {
		return nil, GraphAccuracies{}, err
	}
	return res, acc, nil
}

// GraphSyncRow is one communication scheme's outcome on the walk
// workload.
type GraphSyncRow struct {
	Mode gluon.Mode
	// TotalBytes is the run's communication volume; RatioToNaive the
	// volume relative to RepModel-Naive.
	TotalBytes   int64
	RatioToNaive float64
	// CommSeconds is the modelled communication time.
	CommSeconds float64
	// Acc is the trained model's quality — identical across schemes by
	// construction (the schemes change traffic, not results).
	Acc GraphAccuracies
}

// GraphSync compares the three synchronisation schemes on the graph
// workload — the walk-workload counterpart of Figure 9's volume
// comparison plus a quality column demonstrating that scheme choice does
// not affect the trained model. See DESIGN.md §4 and §5 (choice 5).
func GraphSync(opts Options) ([]GraphSyncRow, error) {
	opts = opts.WithDefaults()
	d, err := LoadGraphDataset(opts)
	if err != nil {
		return nil, err
	}
	var rows []GraphSyncRow
	var naive float64
	for _, mode := range ScalingModes {
		res, acc, err := TrainGraph(d, opts, "MC", mode)
		if err != nil {
			return nil, fmt.Errorf("harness: graph-sync %v: %w", mode, err)
		}
		row := GraphSyncRow{
			Mode:        mode,
			TotalBytes:  res.Comm.TotalBytes(),
			CommSeconds: res.CommSeconds(opts.Cost),
			Acc:         acc,
		}
		if mode == gluon.RepModelNaive {
			naive = float64(row.TotalBytes)
		}
		if naive > 0 {
			row.RatioToNaive = float64(row.TotalBytes) / naive
		}
		rows = append(rows, row)
	}
	w := tabwriter.NewWriter(opts.out(), 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Graph workload: sync schemes on %s, %d hosts (scale=%s)\n", d.Name, opts.Hosts, opts.Scale)
	fmt.Fprintln(w, "Variant\tVolume\tvs Naive\tComm time\tPurity\tLink AUC")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.2fx\t%s\t%.3f\t%.3f\n",
			r.Mode, cliutil.FormatBytes(float64(r.TotalBytes)), r.RatioToNaive, fmtDuration(r.CommSeconds), r.Acc.Purity, r.Acc.AUC)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return rows, nil
}
