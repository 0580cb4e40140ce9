package harness

import (
	"fmt"
	"time"

	"graphword2vec/internal/core"
	"graphword2vec/internal/corpus"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
	"graphword2vec/internal/sgns"
)

// BaselineResult is the outcome of one shared-memory baseline run.
type BaselineResult struct {
	// SerialSeconds is the measured single-thread wall time.
	SerialSeconds float64
	// SimSeconds models the run on one 16-core machine:
	// serial / (ModeledThreads · ThreadEff).
	SimSeconds float64
	// Acc is the final analogy accuracy.
	Acc Accuracies
	// PerEpochAcc, if requested, holds the accuracy after each epoch.
	PerEpochAcc []Accuracies
}

// runW2V runs the Word2Vec-C-style Hogwild baseline ("W2V") on one
// simulated host. It trains single-threaded so the measured time is
// uncontended; intra-host parallelism is applied in the time model.
func runW2V(d *Dataset, opts Options, alpha float32, trackEpochs bool) (*BaselineResult, error) {
	opts = opts.WithDefaults()
	m := model.New(d.Vocab.Size(), opts.Dim)
	m.InitRandom(opts.Seed)
	tr, err := sgns.NewTrainer(m, d.Vocab, d.Neg, sgns.DefaultParams())
	if err != nil {
		return nil, err
	}
	res := &BaselineResult{}
	var evalErr error
	cfg := sgns.HogwildConfig{
		Threads: 1,
		Epochs:  opts.Epochs,
		Alpha:   alpha,
		Seed:    opts.Seed,
	}
	if trackEpochs {
		cfg.OnEpoch = func(epoch int, _ sgns.Stats) {
			acc, err := d.Evaluate(m)
			if err != nil {
				evalErr = err
				return
			}
			res.PerEpochAcc = append(res.PerEpochAcc, acc)
		}
	}
	start := time.Now()
	tr.TrainHogwild(d.Corp.Tokens, cfg)
	res.SerialSeconds = time.Since(start).Seconds()
	if evalErr != nil {
		return nil, evalErr
	}
	res.SimSeconds = res.SerialSeconds / (float64(opts.ModeledThreads) * opts.ThreadEff)
	res.Acc, err = d.Evaluate(m)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runGEM runs the Gensim stand-in ("GEM"): identical SGNS math under
// job-batched scheduling (see DESIGN.md substitutions).
func runGEM(d *Dataset, opts Options, alpha float32) (*BaselineResult, error) {
	opts = opts.WithDefaults()
	m := model.New(d.Vocab.Size(), opts.Dim)
	m.InitRandom(opts.Seed)
	tr, err := sgns.NewTrainer(m, d.Vocab, d.Neg, sgns.DefaultParams())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tr.TrainBatched(d.Corp.Tokens, sgns.BatchedConfig{
		JobWords: 10000,
		Threads:  1,
		Epochs:   opts.Epochs,
		Alpha:    alpha,
		Seed:     opts.Seed,
	})
	serial := time.Since(start).Seconds()
	acc, err := d.Evaluate(m)
	if err != nil {
		return nil, err
	}
	return &BaselineResult{
		SerialSeconds: serial,
		SimSeconds:    serial / (float64(opts.ModeledThreads) * opts.ThreadEff),
		Acc:           acc,
	}, nil
}

// gemPeakBytes models Gensim's peak memory: a per-token corpus
// materialisation cost (Python string/list object overhead, ~64 B/token)
// plus four model-sized arrays (vectors, locks, work buffers).
func gemPeakBytes(d *Dataset, dim int) int64 {
	return 64*int64(d.Corp.Len()) + 4*int64(d.Vocab.Size()*dim*4*2)
}

// gemMemoryBudgetBytes scales the paper's 220 GB host memory down by the
// ratio of our wiki corpus to the paper's (3.5941 G tokens), so the same
// system OOMs at the same relative point (Table 2's "OOM" cell).
func gemMemoryBudgetBytes(wikiTokens int64) int64 {
	const paperMemBytes = 220e9
	const paperWikiTokens = 3_594_100_000
	return int64(paperMemBytes * float64(wikiTokens) / paperWikiTokens)
}

// distConfig assembles a core.Config for one distributed run.
func distConfig(opts Options, hosts, syncRounds int, combiner string, mode gluon.Mode, alpha float32) core.Config {
	cfg := core.DefaultConfig(hosts)
	cfg.Epochs = opts.Epochs
	cfg.SyncRounds = syncRounds
	cfg.Alpha = alpha
	cfg.CombinerName = combiner
	cfg.Mode = mode
	cfg.Seed = opts.Seed
	return cfg
}

// runDistributed executes one GraphWord2Vec run and evaluates the final
// model. When perEpoch is non-nil it receives the accuracy after every
// epoch (Figure 6's curves).
func runDistributed(d *Dataset, opts Options, cfg core.Config, perEpoch func(epoch int, acc Accuracies)) (*core.Result, Accuracies, error) {
	opts = opts.WithDefaults()
	var evalErr error
	if perEpoch != nil {
		cfg.OnEpoch = func(epoch int, mv core.ModelView, _ core.EpochResult) {
			acc, err := d.Evaluate(mv.Model)
			if err != nil {
				evalErr = err
				return
			}
			perEpoch(epoch, acc)
		}
	}
	tr, err := core.NewTrainer(cfg, d.Vocab, d.Neg, d.Corp, opts.Dim)
	if err != nil {
		return nil, Accuracies{}, err
	}
	tr.SequentialCompute = true
	res, err := tr.Run()
	if err != nil {
		return nil, Accuracies{}, err
	}
	if evalErr != nil {
		return nil, Accuracies{}, evalErr
	}
	acc, err := d.Evaluate(res.Canonical)
	if err != nil {
		return nil, Accuracies{}, err
	}
	return res, acc, nil
}

// ProbeResult carries steady-state per-epoch extrapolations from a short
// probe run (see probeDistributed).
type ProbeResult struct {
	Hosts int
	Mode  gluon.Mode
	// ComputeSecondsPerEpoch is the extrapolated BSP-critical-path
	// compute per epoch under the thread model.
	ComputeSecondsPerEpoch float64
	// CommSecondsPerEpoch is the extrapolated modelled communication.
	CommSecondsPerEpoch float64
	// BytesPerEpoch is the extrapolated communication volume.
	BytesPerEpoch float64
}

// TotalSeconds returns the simulated time for a full run of epochs.
func (p ProbeResult) TotalSeconds(epochs int) float64 {
	return float64(epochs) * (p.ComputeSecondsPerEpoch + p.CommSecondsPerEpoch)
}

// TotalBytes returns the extrapolated volume for a full run.
func (p ProbeResult) TotalBytes(epochs int) float64 {
	return float64(epochs) * p.BytesPerEpoch
}

// probeRounds is the number of synchronisation rounds a probe executes.
const probeRounds = 4

// probeDistributed measures steady-state per-round compute and
// communication by running probeRounds rounds on a proportionally
// truncated corpus: the per-round worklist chunk is exactly the size a
// full run would use, so touched-set sparsity — and therefore the sparse
// schemes' traffic — is faithful. Full-epoch numbers are the per-round
// measurements times the full round count (scaling-run methodology; see
// DESIGN.md).
func probeDistributed(d *Dataset, opts Options, hosts int, mode gluon.Mode) (ProbeResult, error) {
	opts = opts.WithDefaults()
	syncRounds := core.SyncFrequencyRule(hosts)
	rounds := probeRounds
	if rounds > syncRounds {
		rounds = syncRounds
	}
	frac := float64(rounds) / float64(syncRounds)
	n := int(float64(d.Corp.Len()) * frac)
	if n < hosts {
		n = hosts
	}
	if n > d.Corp.Len() {
		n = d.Corp.Len()
	}
	probe := &Dataset{
		Name:  d.Name,
		Cfg:   d.Cfg,
		Vocab: d.Vocab,
		Neg:   d.Neg,
		Corp:  corpus.FromIDs(d.Corp.Tokens[:n]),
	}
	cfg := distConfig(opts, hosts, rounds, "MC", mode, 0.025)
	cfg.Epochs = 1
	tr, err := core.NewTrainer(cfg, probe.Vocab, probe.Neg, probe.Corp, opts.Dim)
	if err != nil {
		return ProbeResult{}, err
	}
	tr.SequentialCompute = true
	res, err := tr.Run()
	if err != nil {
		return ProbeResult{}, err
	}
	scale := float64(syncRounds) / float64(rounds)
	return ProbeResult{
		Hosts: hosts,
		Mode:  mode,
		ComputeSecondsPerEpoch: scale * res.CriticalComputeSeconds /
			(float64(opts.ModeledThreads) * opts.ThreadEff),
		CommSecondsPerEpoch: scale * res.CommSeconds(opts.Cost),
		BytesPerEpoch:       scale * float64(res.Comm.TotalBytes()),
	}, nil
}

// fmtDuration renders simulated seconds compactly.
func fmtDuration(sec float64) string {
	switch {
	case sec >= 3600:
		return fmt.Sprintf("%.1fh", sec/3600)
	case sec >= 60:
		return fmt.Sprintf("%.1fm", sec/60)
	case sec >= 1:
		return fmt.Sprintf("%.1fs", sec)
	default:
		return fmt.Sprintf("%.0fms", sec*1000)
	}
}

// TrainDistributed is the exported convenience used by the examples: one
// GraphWord2Vec run with the paper's defaults and the given combiner.
func TrainDistributed(d *Dataset, opts Options, combiner string) (*core.Result, error) {
	opts = opts.WithDefaults()
	cfg := distConfig(opts, opts.Hosts, core.SyncFrequencyRule(opts.Hosts), combiner, gluon.RepModelOpt, opts.BaseAlpha)
	res, _, err := runDistributed(d, opts, cfg, nil)
	return res, err
}
