package harness

import (
	"fmt"
	"text/tabwriter"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/core"
	"graphword2vec/internal/corpus"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
	"graphword2vec/internal/sgns"
	"graphword2vec/internal/synth"
	"graphword2vec/internal/vocab"
	"graphword2vec/internal/walk"
	"graphword2vec/internal/xrand"
)

// The comm-volume experiment: an ablation of the wire payload codecs
// (PROTOCOL.md §5) across the three synchronisation schemes, both
// workloads, and two communication regimes. This is the recorded
// baseline behind BENCH_comm.json; see EXPERIMENTS.md.
//
// The regimes matter because the codec's lossless savings scale with
// per-round sparsity:
//
//   - "text" / "graph" are the harness's standard datasets at the
//     requested scale with paper-default SGNS parameters. At bench
//     scales their vocabularies are small enough that a single round's
//     negatives and contexts touch nearly every node — the saturated
//     regime, where only half suppression on reduce deltas bites.
//   - "text-sparse" / "graph-sparse" are sparse-round proxies: workloads
//     whose per-round touched set is a small fraction of the model, the
//     regime production-scale training actually lives in (the paper's
//     vocabularies are 0.4–2.8 M words, so a round touches a few
//     percent of the proxies). The text proxy is a flat-frequency
//     corpus over a vocabulary large relative to its token count; the
//     graph proxy is a 2000-vertex community graph walked at one short
//     walk per vertex. Both use a narrow window and few negatives so a
//     round's worklist chunk cannot saturate the vocabulary.

// CommVolumeCodecs are the codecs compared, raw first so every other
// row can be reported relative to the uncompressed baseline.
var CommVolumeCodecs = []gluon.Codec{gluon.CodecRaw, gluon.CodecPacked, gluon.CodecFP16}

// CommVolumeWorkloads are the workload/regime rows measured.
var CommVolumeWorkloads = []string{"text", "graph", "text-sparse", "graph-sparse"}

// commVolumeEpochs is the fixed measurement budget: volume per round is
// stable across epochs, so two are enough for a faithful per-round
// figure at any scale.
const commVolumeEpochs = 2

// CommVolumeRow is one (workload, scheme, codec) cell of the ablation.
type CommVolumeRow struct {
	// Workload names the workload/regime (see CommVolumeWorkloads).
	Workload string `json:"workload"`
	// Mode is the synchronisation scheme's paper name.
	Mode string `json:"mode"`
	// Codec is the -wire codec name.
	Codec string `json:"codec"`
	// Rounds is the number of synchronisation rounds measured.
	Rounds int64 `json:"rounds"`
	// Byte counters aggregate the sent side of every host.
	ReduceBytes    int64 `json:"reduce_bytes"`
	BroadcastBytes int64 `json:"broadcast_bytes"`
	ControlBytes   int64 `json:"control_bytes"`
	TotalBytes     int64 `json:"total_bytes"`
	// BytesPerRound is TotalBytes / Rounds.
	BytesPerRound int64 `json:"bytes_per_round"`
	// VsRaw is TotalBytes relative to the CodecRaw row of the same
	// (workload, mode); 1.0 for the raw row itself.
	VsRaw float64 `json:"vs_raw"`
}

// commVolumeWorkload is a resolved workload/regime: its data, SGNS
// parameters, and sync frequency.
type commVolumeWorkload struct {
	name       string
	voc        *vocab.Vocabulary
	neg        *vocab.UnigramTable
	src        corpus.SequenceSource
	params     sgns.Params
	syncRounds int
}

// CommVolume measures communication volume for every combination in
// CommVolumeCodecs × ScalingModes × CommVolumeWorkloads and renders the
// ablation table. It also verifies the packed codec's lossless claim on
// every cell: a lossless run's canonical model must be bit-identical to
// the raw run's (fp16 is exempt — it is lossy by design).
func CommVolume(opts Options) ([]CommVolumeRow, error) {
	opts = opts.WithDefaults()
	workloads, err := commVolumeLoad(opts)
	if err != nil {
		return nil, err
	}

	var rows []CommVolumeRow
	for _, wl := range workloads {
		rounds := int64(commVolumeEpochs * wl.syncRounds)
		for _, mode := range ScalingModes {
			var rawBytes int64
			var rawModel *model.Model
			for _, codec := range CommVolumeCodecs {
				cfg := distConfig(opts, opts.Hosts, wl.syncRounds, "MC", mode, opts.BaseAlpha)
				cfg.Epochs = commVolumeEpochs
				cfg.Params = wl.params
				cfg.Wire = codec
				tr, err := core.NewTrainer(cfg, wl.voc, wl.neg, wl.src, opts.Dim)
				if err != nil {
					return nil, fmt.Errorf("harness: comm-volume %s/%v/%v: %w", wl.name, mode, codec, err)
				}
				tr.SequentialCompute = true
				res, err := tr.Run()
				if err != nil {
					return nil, fmt.Errorf("harness: comm-volume %s/%v/%v: %w", wl.name, mode, codec, err)
				}
				switch {
				case codec == gluon.CodecRaw:
					rawBytes = res.Comm.TotalBytes()
					rawModel = res.Canonical
				case codec.Lossless():
					// The lossless claim, checked on every cell: only
					// the bytes on the wire may change.
					if !modelsIdentical(rawModel, res.Canonical) {
						return nil, fmt.Errorf("harness: comm-volume %s/%v: codec %v diverged from raw (lossless codec changed the model)", wl.name, mode, codec)
					}
				}
				rows = append(rows, CommVolumeRow{
					Workload:       wl.name,
					Mode:           mode.String(),
					Codec:          codec.String(),
					Rounds:         rounds,
					ReduceBytes:    res.Comm.ReduceBytes,
					BroadcastBytes: res.Comm.BroadcastBytes,
					ControlBytes:   res.Comm.ControlBytes,
					TotalBytes:     res.Comm.TotalBytes(),
					BytesPerRound:  res.Comm.TotalBytes() / rounds,
					VsRaw:          float64(res.Comm.TotalBytes()) / float64(rawBytes),
				})
			}
		}
	}

	w := tabwriter.NewWriter(opts.out(), 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Wire codecs: volume per sync round, %d hosts (scale=%s)\n", opts.Hosts, opts.Scale)
	fmt.Fprintln(w, "Workload\tVariant\tCodec\tReduce\tBroadcast\tControl\tTotal\tPer round\tvs raw")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.2fx\n",
			r.Workload, r.Mode, r.Codec, cliutil.FormatBytes(float64(r.ReduceBytes)), cliutil.FormatBytes(float64(r.BroadcastBytes)),
			cliutil.FormatBytes(float64(r.ControlBytes)), cliutil.FormatBytes(float64(r.TotalBytes)), cliutil.FormatBytes(float64(r.BytesPerRound)), r.VsRaw)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return rows, nil
}

// commVolumeLoad materialises the four workload/regime rows.
func commVolumeLoad(opts Options) ([]commVolumeWorkload, error) {
	text, err := LoadDataset("1-billion", opts)
	if err != nil {
		return nil, err
	}
	graph, err := LoadGraphDataset(opts)
	if err != nil {
		return nil, err
	}
	sparseText, err := sparseTextWorkload(opts)
	if err != nil {
		return nil, err
	}
	sparseGraph, err := sparseGraphWorkload(opts)
	if err != nil {
		return nil, err
	}
	rule := core.SyncFrequencyRule(opts.Hosts)
	return []commVolumeWorkload{
		{name: "text", voc: text.Vocab, neg: text.Neg, src: text.Corp,
			params: sgns.DefaultParams(), syncRounds: 2 * rule},
		{name: "graph", voc: graph.Vocab, neg: graph.Neg, src: graph.Walker,
			params: sgns.Params{Window: 5, Negatives: 5, MaxSentenceLength: GraphWalkConfig().WalkLength}, syncRounds: 2 * rule},
		sparseText, sparseGraph,
	}, nil
}

// sparseTextWorkload builds the text sparse-round proxy: a corpus of
// many distinct words that each appear only a few times, shuffled flat,
// with a narrow window and few negatives. Per round, the touched set is
// a small fraction of the vocabulary — the shape production-scale
// vocabularies produce under paper-default parameters.
func sparseTextWorkload(opts Options) (commVolumeWorkload, error) {
	const words, reps = 4000, 6
	b := vocab.NewBuilder()
	names := make([]string, words)
	for i := range names {
		names[i] = fmt.Sprintf("w%05d", i)
		b.AddN(names[i], reps)
	}
	v, err := b.Build(vocab.Options{MinCount: 1})
	if err != nil {
		return commVolumeWorkload{}, err
	}
	neg, err := vocab.NewUnigramTable(v)
	if err != nil {
		return commVolumeWorkload{}, err
	}
	ids := make([]int32, 0, words*reps)
	for rep := 0; rep < reps; rep++ {
		for _, name := range names {
			ids = append(ids, v.ID(name))
		}
	}
	r := xrand.New(opts.Seed + 31)
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return commVolumeWorkload{
		name:       "text-sparse",
		voc:        v,
		neg:        neg,
		src:        corpus.FromIDs(ids),
		params:     sgns.Params{Window: 2, Negatives: 2, MaxSentenceLength: 1000},
		syncRounds: 2 * core.SyncFrequencyRule(opts.Hosts),
	}, nil
}

// sparseGraphWorkload builds the graph sparse-round proxy: a 2000-vertex
// planted-community graph walked at a single short walk per start
// vertex, so each round's walks visit a small slice of the graph.
func sparseGraphWorkload(opts Options) (commVolumeWorkload, error) {
	gcfg := synth.GraphConfig{
		Name:                 "comm-sparse",
		Communities:          40,
		VerticesPerCommunity: 50,
		IntraDegree:          6,
		InterDegree:          1,
		Seed:                 2_000_009,
	}
	data, err := synth.GenerateGraph(gcfg)
	if err != nil {
		return commVolumeWorkload{}, err
	}
	v, g, _, err := walk.BuildVocabGraph(data.Names, data.Edges, false)
	if err != nil {
		return commVolumeWorkload{}, err
	}
	neg, err := vocab.NewUnigramTable(v)
	if err != nil {
		return commVolumeWorkload{}, err
	}
	wcfg := walk.Config{WalkLength: 10, WalksPerVertex: 1}
	walker, err := walk.NewWalker(g, wcfg)
	if err != nil {
		return commVolumeWorkload{}, err
	}
	return commVolumeWorkload{
		name:       "graph-sparse",
		voc:        v,
		neg:        neg,
		src:        walker,
		params:     sgns.Params{Window: 2, Negatives: 2, MaxSentenceLength: wcfg.WalkLength},
		syncRounds: 2 * core.SyncFrequencyRule(opts.Hosts),
	}, nil
}

// modelsIdentical compares two models bit-for-bit.
func modelsIdentical(a, b *model.Model) bool {
	if a == nil || b == nil || a.VocabSize() != b.VocabSize() || a.Dim != b.Dim {
		return false
	}
	for i := range a.Emb.Data {
		if a.Emb.Data[i] != b.Emb.Data[i] || a.Ctx.Data[i] != b.Ctx.Data[i] {
			return false
		}
	}
	return true
}
