package harness

import (
	"fmt"
	"text/tabwriter"
	"time"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
	"graphword2vec/internal/sgns"
)

// AblationCombinerRow is one combiner's outcome in the combiner ablation.
type AblationCombinerRow struct {
	Combiner string
	Acc      Accuracies
}

// AblationCombiners compares all four reduction operators (SUM, AVG, MC,
// and the full Gram-Schmidt MC-GS) at identical settings — design choice
// 1 of DESIGN.md §5. Expected: MC ≈ MC-GS ≫ AVG, with SUM unstable.
func AblationCombiners(opts Options) ([]AblationCombinerRow, error) {
	opts = opts.WithDefaults()
	d, err := LoadDataset("1-billion", opts)
	if err != nil {
		return nil, err
	}
	var rows []AblationCombinerRow
	for _, comb := range []string{"SUM", "AVG", "MC", "MC-GS"} {
		cfg := distConfig(opts, opts.Hosts, syncRoundsFor(opts), comb, gluon.RepModelOpt, opts.BaseAlpha)
		_, acc, err := runDistributed(d, opts, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("harness: ablation %s: %w", comb, err)
		}
		rows = append(rows, AblationCombinerRow{Combiner: comb, Acc: acc})
	}
	w := tabwriter.NewWriter(opts.out(), 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Ablation: reduction operators, 1-billion, %d hosts (scale=%s)\n", opts.Hosts, opts.Scale)
	fmt.Fprintln(w, "Combiner\tSemantic\tSyntactic\tTotal")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\n", r.Combiner, r.Acc.Semantic, r.Acc.Syntactic, r.Acc.Total)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return rows, nil
}

// AblationSparsityRow reports one communication scheme's volume.
type AblationSparsityRow struct {
	Mode       gluon.Mode
	TotalBytes float64
	// RatioToNaive is this scheme's volume relative to RepModel-Naive.
	RatioToNaive float64
}

// AblationSparsity quantifies the bit-vector sparse-communication win —
// design choice 2 of DESIGN.md §5 — as a volume ratio. It measures at 32
// hosts regardless of opts.Hosts: update sparsity appears when per-round
// worklist chunks are small relative to the vocabulary (paper §5.5: "as
// training data gets divided among hosts, sparsity in the updates
// increase"), so the high-host-count regime is where the schemes
// separate.
func AblationSparsity(opts Options) ([]AblationSparsityRow, error) {
	opts = opts.WithDefaults()
	const hosts = 32
	d, err := LoadDataset("1-billion", opts)
	if err != nil {
		return nil, err
	}
	var rows []AblationSparsityRow
	var naive float64
	for _, mode := range ScalingModes {
		probe, err := probeDistributed(d, opts, hosts, mode)
		if err != nil {
			return nil, fmt.Errorf("harness: sparsity %v: %w", mode, err)
		}
		vol := probe.TotalBytes(opts.Epochs)
		if mode == gluon.RepModelNaive {
			naive = vol
		}
		rows = append(rows, AblationSparsityRow{Mode: mode, TotalBytes: vol})
	}
	for i := range rows {
		if naive > 0 {
			rows[i].RatioToNaive = rows[i].TotalBytes / naive
		}
	}
	w := tabwriter.NewWriter(opts.out(), 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Ablation: communication sparsity, 1-billion, %d hosts (scale=%s)\n", hosts, opts.Scale)
	fmt.Fprintln(w, "Variant\tVolume\tvs Naive")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.2fx\n", r.Mode, cliutil.FormatBytes(r.TotalBytes), r.RatioToNaive)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return rows, nil
}

// AblationThreadsRow reports intra-host Hogwild scaling.
type AblationThreadsRow struct {
	Threads int
	Seconds float64
	Acc     Accuracies
}

// AblationIntraHost measures real (not modelled) Hogwild threading inside
// one host — design choice 4 of DESIGN.md §5. On a multi-core machine the
// wall time drops with threads while accuracy stays flat; on a single
// core it documents the oversubscription cost instead.
func AblationIntraHost(opts Options, threadCounts []int) ([]AblationThreadsRow, error) {
	opts = opts.WithDefaults()
	d, err := LoadDataset("1-billion", opts)
	if err != nil {
		return nil, err
	}
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8}
	}
	var rows []AblationThreadsRow
	for _, threads := range threadCounts {
		m := model.New(d.Vocab.Size(), opts.Dim)
		m.InitRandom(opts.Seed)
		tr, err := sgns.NewTrainer(m, d.Vocab, d.Neg, sgns.DefaultParams())
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tr.TrainHogwild(d.Corp.Tokens, sgns.HogwildConfig{
			Threads: threads,
			Epochs:  opts.Epochs,
			Alpha:   opts.BaseAlpha,
			Seed:    opts.Seed,
		})
		sec := time.Since(start).Seconds()
		acc, err := d.Evaluate(m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationThreadsRow{Threads: threads, Seconds: sec, Acc: acc})
	}
	w := tabwriter.NewWriter(opts.out(), 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Ablation: intra-host Hogwild threads, 1-billion (scale=%s)\n", opts.Scale)
	fmt.Fprintln(w, "Threads\tWall\tTotal acc")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%.1f\n", r.Threads, fmtDuration(r.Seconds), r.Acc.Total)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return rows, nil
}
