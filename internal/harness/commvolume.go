package harness

import (
	"fmt"
	"text/tabwriter"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/core"
	"graphword2vec/internal/corpus"
	"graphword2vec/internal/sgns"
	"graphword2vec/internal/synth"
	"graphword2vec/internal/vocab"
	"graphword2vec/internal/walk"
	"graphword2vec/internal/xrand"
)

// The comm-volume experiment: the vector-frame encoding (PROTOCOL.md
// §4–5) against the uncompressed format of protocol v1 across the three
// synchronisation schemes, both workloads, and two communication
// regimes. This is the recorded baseline behind BENCH_comm.json; see
// EXPERIMENTS.md.
//
// Each cell trains once. Its "packed" row is the measured traffic; its
// "raw" row is what the same frames would have cost with raw uint32
// indices and dense float32 payloads, computed from the run's counters
// (gluon.Stats.RawBytes) rather than shipped.
//
// The regimes matter because the encoding's savings scale with
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

// CommVolumeWorkloads are the workload/regime rows measured.
var CommVolumeWorkloads = []string{"text", "graph", "text-sparse", "graph-sparse"}

// commVolumeEpochs is the fixed measurement budget: volume per round is
// stable across epochs, so two are enough for a faithful per-round
// figure at any scale.
const commVolumeEpochs = 2

// CommVolumeRow is one (workload, scheme, encoding) row of the table.
type CommVolumeRow struct {
	// Workload names the workload/regime (see CommVolumeWorkloads).
	Workload string `json:"workload"`
	// Mode is the synchronisation scheme's paper name.
	Mode string `json:"mode"`
	// Encoding is "raw" (the computed v1 baseline) or "packed" (the
	// measured vector-frame encoding). The JSON key keeps the name of
	// the retired -wire codecs, so BENCH_comm.json rows stay comparable.
	Encoding string `json:"codec"`
	// Rounds is the number of synchronisation rounds measured.
	Rounds int64 `json:"rounds"`
	// Byte counters aggregate the sent side of every host.
	ReduceBytes    int64 `json:"reduce_bytes"`
	BroadcastBytes int64 `json:"broadcast_bytes"`
	ControlBytes   int64 `json:"control_bytes"`
	TotalBytes     int64 `json:"total_bytes"`
	// BytesPerRound is TotalBytes / Rounds.
	BytesPerRound int64 `json:"bytes_per_round"`
	// VsRaw is TotalBytes relative to the raw row of the same
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

// CommVolume trains every combination of ScalingModes ×
// CommVolumeWorkloads once, emits a raw and a packed row per cell, and
// renders the table.
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
			cfg := distConfig(opts, opts.Hosts, wl.syncRounds, "MC", mode, opts.BaseAlpha)
			cfg.Epochs = commVolumeEpochs
			cfg.Params = wl.params
			tr, err := core.NewTrainer(cfg, wl.voc, wl.neg, wl.src, opts.Dim)
			if err != nil {
				return nil, fmt.Errorf("harness: comm-volume %s/%v: %w", wl.name, mode, err)
			}
			tr.SequentialCompute = true
			res, err := tr.Run()
			if err != nil {
				return nil, fmt.Errorf("harness: comm-volume %s/%v: %w", wl.name, mode, err)
			}
			comm := res.Comm
			rawReduce, rawBcast := comm.RawBytes(opts.Hosts, opts.Dim)
			rawTotal := rawReduce + rawBcast + comm.ControlBytes
			row := func(encoding string, reduce, bcast int64) CommVolumeRow {
				total := reduce + bcast + comm.ControlBytes
				return CommVolumeRow{
					Workload:       wl.name,
					Mode:           mode.String(),
					Encoding:       encoding,
					Rounds:         rounds,
					ReduceBytes:    reduce,
					BroadcastBytes: bcast,
					ControlBytes:   comm.ControlBytes,
					TotalBytes:     total,
					BytesPerRound:  total / rounds,
					VsRaw:          float64(total) / float64(rawTotal),
				}
			}
			rows = append(rows, row("raw", rawReduce, rawBcast), row("packed", comm.ReduceBytes, comm.BroadcastBytes))
		}
	}

	w := tabwriter.NewWriter(opts.out(), 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Vector-frame volume per sync round vs raw, %d hosts (scale=%s)\n", opts.Hosts, opts.Scale)
	fmt.Fprintln(w, "Workload\tVariant\tEncoding\tReduce\tBroadcast\tControl\tTotal\tPer round\tvs raw")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.2fx\n",
			r.Workload, r.Mode, r.Encoding, cliutil.FormatBytes(float64(r.ReduceBytes)), cliutil.FormatBytes(float64(r.BroadcastBytes)),
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
