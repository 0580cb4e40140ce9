package core

import (
	"fmt"
	"math"

	"graphword2vec/internal/checkpoint"
	"graphword2vec/internal/corpus"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
	"graphword2vec/internal/sgns"
	"graphword2vec/internal/vocab"
)

// Barrier tags for the distributed run's cluster-wide synchronisation
// points. They only need to be distinct from each other: barrier frames
// have their own message kind, so they can never collide with
// synchronisation rounds.
const (
	barrierStart  = 1
	barrierFinish = 2
)

// Checksum fingerprints the configuration plus the dataset shape each
// worker derived locally. The mesh bootstrap exchanges it during the
// handshake (gluon.MeshConfig.Checksum), so a worker launched with a
// different corpus, seed, or hyper-parameter fails at connect time
// instead of training a silently divergent model. extra lets callers
// fold in inputs that shape training but live outside Config — e.g.
// cmd/gw2v-worker folds its vocabulary options, whose subsampling
// threshold changes per-token keep decisions without changing the
// vocabulary size or token count.
//
// The cluster size (Hosts) is deliberately NOT folded: the checksum is
// also stamped into checkpoint snapshots, and elastic membership
// changes (PROTOCOL.md §10) must restore snapshots written under a
// different host count. The mesh handshake verifies cluster size
// separately, so dropping it here loses no protection. SyncRounds IS
// folded — it defines the round numbering snapshots are cut on — so a
// cluster that changes size keeps the SyncRounds of its original
// launch (gw2v-worker pins it across elastic relaunches).
//
// Per-host performance knobs that never change what is computed —
// SyncOverlap and the session-healing pair Heal / HealBudget — are
// likewise excluded: ranks of one cluster may legitimately disagree on
// them (PROTOCOL.md §12).
func (c *Config) Checksum(vocabSize, corpusLen, dim int, extra ...uint64) uint64 {
	var shuffle uint64
	if c.ShuffleEachEpoch {
		shuffle = 1
	}
	comb := uint64(len(c.CombinerName))
	for _, b := range []byte(c.CombinerName) {
		comb = mixSeed(comb, uint64(b))
	}
	parts := []uint64{
		uint64(c.Epochs), uint64(c.SyncRounds),
		uint64(math.Float32bits(c.Alpha)), uint64(math.Float32bits(c.MinAlphaFactor)),
		uint64(c.ThreadsPerHost),
		uint64(c.Params.Window), uint64(c.Params.Negatives), uint64(c.Params.MaxSentenceLength),
		uint64(c.Mode), uint64(c.Wire), c.Seed, shuffle, comb,
		uint64(vocabSize), uint64(corpusLen), uint64(dim),
	}
	parts = append(parts, extra...)
	return mixSeed(0x67773276636B73 /* "gw2vcks" */, parts...)
}

// DistributedResult is one host's outcome of a real distributed run.
type DistributedResult struct {
	// Engine carries this host's measurements and final local replica.
	Engine *EngineResult
	// Canonical is the gathered canonical model — non-nil only on
	// rank 0, which assembles every owner's master range.
	Canonical *model.Model
	// ResumedFrom is the global round the cluster agreed to restart
	// from: 0 for a fresh start (including Resume runs that found no
	// usable snapshot).
	ResumedFrom uint32
}

// CheckpointPolicy configures round-boundary checkpointing for a
// distributed run (DESIGN.md §10).
type CheckpointPolicy struct {
	// Dir is the per-host checkpoint directory; each rank writes
	// rank%04d.ckpt plus one rolled-back .prev generation there. Ranks
	// on the same filesystem may share Dir.
	Dir string
	// Every is the checkpoint cadence in global rounds; <= 0 means
	// once per epoch.
	Every int
	// Resume asks the cluster to restart from its best jointly
	// reachable checkpoint cut, via the membership negotiation
	// (PROTOCOL.md §8, §10) before the start barrier. On an unchanged
	// cluster that is usually a plain restore of every rank's own
	// snapshot; a cluster of another shape, a fresh member, or a
	// straggler missing the newest round gets the canonical model at
	// the cut assembled by range transfers, re-sharded and
	// re-checkpointed. With nothing shared it degrades to a fresh start
	// (round 0), so a wiped disk never wedges the cluster. Every rank
	// must set Resume identically (a mixed cluster deadlocks until the
	// transport timeout).
	Resume bool
	// OldRank is this rank's identity in the cluster that wrote the
	// snapshots: on an unchanged cluster, its current rank. Use
	// FreshRank (-1) for a member with no prior identity — a brand-new
	// or replacement host. Read whenever Resume is set; two ranks
	// claiming the same OldRank fail the negotiation by name.
	OldRank int
}

// FreshRank marks a resuming member with no identity in the old
// cluster (re-exported from gluon for CheckpointPolicy.OldRank).
const FreshRank = gluon.FreshRank

// RunOptions carries the optional knobs of RunDistributedOpts.
type RunOptions struct {
	// Checkpoint, when non-nil, enables checkpointing (and, with
	// Resume set, crash recovery) under the given policy.
	Checkpoint *CheckpointPolicy
	// Checksum overrides the configuration fingerprint stamped into
	// snapshots; 0 means derive cfg.Checksum(voc, src, dim) locally.
	// Pass the same extended checksum used for the mesh handshake so
	// snapshots and the mesh agree on what "the same run" means.
	Checksum uint64
	// OnEpoch, if non-nil, receives this host's per-epoch counters.
	OnEpoch func(epoch int, alpha float32, train sgns.Stats, comm gluon.Stats)
	// Sink, when non-nil, replaces the policy's on-disk store as the
	// snapshot destination — the fault-injection seam (the harness
	// substitutes torn-write sinks). Resume still reads snapshots from
	// Checkpoint.Dir.
	Sink CheckpointSink
	// StopAfterRound, when positive, pauses the run at that global
	// round boundary instead of training to completion: the engine
	// checkpoints as usual up to the boundary (make StopAfterRound a
	// multiple of the checkpoint cadence so the boundary itself is
	// cut), then returns with Engine.Paused set. The cluster stays
	// consistent — every rank must pass the same value — and a later
	// run can resume from the boundary, including on a cluster with
	// more hosts (scale-up join at a round boundary).
	StopAfterRound uint32
	// Warnf, if non-nil, receives non-fatal diagnostics — damaged
	// checkpoint files skipped during resume, degraded membership
	// decisions. cmd/gw2v-worker wires log.Printf.
	Warnf func(format string, args ...any)
}

// warnf forwards to opts.Warnf when set.
func (o *RunOptions) warnf(format string, args ...any) {
	if o.Warnf != nil {
		o.Warnf(format, args...)
	}
}

// RunDistributed drives one host of a real multi-host cluster over the
// given transport (typically gluon.DialMesh from cmd/gw2v-worker, or a
// gluon.NewTCPCluster member in tests): barrier on start, free-run the
// engine's full training loop, gather the canonical model onto rank 0,
// and barrier on finish so no process tears its connections down while
// peers still depend on them. Every participating process must call
// this with identical cfg, vocabulary, sequence source and dim — see
// Config.Checksum for the guard. onEpoch, if non-nil, receives this
// host's per-epoch counters.
func RunDistributed(cfg Config, rank int, tr gluon.Transport, voc *vocab.Vocabulary, neg *vocab.UnigramTable, src corpus.SequenceSource, dim int,
	onEpoch func(epoch int, alpha float32, train sgns.Stats, comm gluon.Stats)) (*DistributedResult, error) {
	return RunDistributedOpts(cfg, rank, tr, voc, neg, src, dim, RunOptions{OnEpoch: onEpoch})
}

// RunDistributedOpts is RunDistributed with checkpoint/resume support.
// With a Checkpoint policy the engine snapshots at the configured round
// cadence; with Resume also set the cluster first runs the membership
// negotiation (gluon.HostSync.NegotiateMembership, wired before the
// start barrier on the fresh mesh) and restores every engine at the
// agreed cut, producing a final model bit-identical to an
// uninterrupted run.
func RunDistributedOpts(cfg Config, rank int, tr gluon.Transport, voc *vocab.Vocabulary, neg *vocab.UnigramTable, src corpus.SequenceSource, dim int,
	opts RunOptions) (*DistributedResult, error) {
	eng, err := NewEngine(cfg, rank, tr, voc, neg, src, dim)
	if err != nil {
		return nil, err
	}
	eng.stopAfter = opts.StopAfterRound
	var resumedFrom uint32
	if pol := opts.Checkpoint; pol != nil {
		sum := opts.Checksum
		if sum == 0 {
			sum = cfg.Checksum(voc.Size(), src.Len(), dim)
		}
		var sink CheckpointSink = checkpoint.NewStore(pol.Dir, rank)
		if opts.Sink != nil {
			sink = opts.Sink
		}
		eng.EnableCheckpoints(sink, pol.Every, sum)
		if pol.Resume {
			resumedFrom, err = restoreAtCut(eng, pol, &opts, sum, sink)
			if err != nil {
				return nil, fmt.Errorf("core: host %d membership negotiation: %w", rank, err)
			}
		}
	}
	if err := eng.sync.Barrier(barrierStart); err != nil {
		return nil, fmt.Errorf("core: host %d start barrier: %w", rank, err)
	}
	res, err := eng.Run(opts.OnEpoch, nil)
	if err != nil {
		return nil, err
	}
	canonical, err := eng.sync.GatherMasters(eng.local)
	if err != nil {
		return nil, fmt.Errorf("core: host %d gather: %w", rank, err)
	}
	if err := eng.sync.Barrier(barrierFinish); err != nil {
		return nil, fmt.Errorf("core: host %d finish barrier: %w", rank, err)
	}
	// Fold the gather and barrier traffic into the reported totals; the
	// engine's own accounting stops at the last training epoch.
	res.Comm = eng.sync.Stats()
	return &DistributedResult{Engine: res, Canonical: canonical, ResumedFrom: resumedFrom}, nil
}
