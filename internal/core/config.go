// Package core implements GraphWord2Vec itself — the paper's primary
// contribution: distributed Word2Vec training formulated as a graph
// problem over a Gluon-style bulk-synchronous substrate (Algorithm 1).
//
// Every host holds a full replica of the model (one proxy per vocabulary
// node), owns a contiguous shard of the training sequences (its worklist
// — text-corpus tokens or graph random walks; see corpus.SequenceSource
// and DESIGN.md §6), and alternates compute rounds (the SGNS operator
// applied Hogwild-style to the round's worklist chunk) with
// synchronisation rounds in which per-node model deltas flow mirrors →
// master, are combined with the model-combiner reduction, and flow back
// master → mirrors.
//
// The cluster is simulated in-process: hosts are goroutines exchanging
// real serialized messages through the gluon substrate. Compute time is
// measured, communication time is modelled from exact byte counts (see
// gluon.CostModel and DESIGN.md §2).
package core

import (
	"errors"
	"fmt"
	"time"

	"graphword2vec/internal/combine"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/sgns"
)

// Config configures one distributed training run (Algorithm 1's inputs
// plus the paper's distribution knobs).
type Config struct {
	// Hosts is the number of simulated hosts (paper: up to 64).
	Hosts int
	// Epochs is the number of passes over the corpus (paper: 16).
	Epochs int
	// SyncRounds is S, the synchronisation rounds per epoch — the
	// paper's new hyper-parameter (§4.1). The rule of thumb (§5.4) is
	// to grow it roughly linearly with Hosts.
	SyncRounds int
	// Alpha is the initial learning rate (paper: 0.025), decayed
	// linearly per epoch (Algorithm 1 line 11).
	Alpha float32
	// MinAlphaFactor floors the decayed rate at Alpha·MinAlphaFactor.
	MinAlphaFactor float32
	// ThreadsPerHost is the number of real Hogwild worker goroutines in
	// each host's compute phase. 1 gives bit-deterministic runs; the
	// experiment harness keeps 1 and models intra-host parallelism via
	// ModeledThreadsPerHost instead (see DESIGN.md).
	ThreadsPerHost int
	// SyncOverlap double-buffers the BSP step (DESIGN.md §12): every
	// synchronisation round runs on a background goroutine, and with
	// this set the next round's compute starts meanwhile on the rows
	// the round has already finalised, blocking per node until
	// finality. The fold order and every RNG stream are unchanged —
	// overlapped runs are bit-identical to serialized ones, and a
	// round's wire bytes are the same with it on or off — so this is a
	// per-host performance knob, excluded from the cluster checksum.
	SyncOverlap bool
	// Heal sets this rank's gluon session policy (PROTOCOL.md §12) on
	// TCP meshes: transient connection faults — resets, partitions,
	// slow links — are healed in place by transparent reconnection and
	// retransmission of unacknowledged frames instead of surfacing as
	// ErrPeerLost. Every TCP connection speaks the same session framing
	// either way, so this is a per-rank policy, not a framing, and
	// ranks may disagree. Healing changes only when bytes move, never
	// what is computed — a healed run is bit-identical to a fault-free
	// one — so like SyncOverlap this knob is excluded from the cluster
	// checksum. Ignored by the in-process simulated cluster.
	Heal bool
	// HealBudget bounds how long one peer pair may spend broken before
	// the transport escalates to ErrPeerLost, handing the fault to the
	// checkpoint/membership ladder (DESIGN.md §13): the redial budget
	// with Heal, and without it how long a dropped connection may
	// linger before it counts as a dead peer rather than a clean
	// shutdown. Zero means the gluon default (10s). Excluded from the
	// cluster checksum like Heal; ranks may legitimately disagree.
	HealBudget time.Duration
	// Params are the Skip-Gram hyper-parameters.
	Params sgns.Params
	// CombinerName selects the reduction operator: "MC" (the paper's
	// model combiner), "AVG", "SUM", or "MC-GS".
	CombinerName string
	// Mode selects the communication scheme (RepModel-Naive,
	// RepModel-Opt, PullModel).
	Mode gluon.Mode
	// Seed drives every random choice in the run.
	Seed uint64
	// ShuffleEachEpoch randomises sentence order per epoch per host.
	ShuffleEachEpoch bool
	// OnEpoch, if non-nil, is invoked after each epoch with the epoch
	// index and the canonical model (assembled from master proxies).
	// The model passed is a snapshot; the callback may retain it.
	OnEpoch func(epoch int, canonical ModelView, er EpochResult)
}

// DefaultConfig returns the paper's hyper-parameters for the given host
// count, applying the sync-frequency rule of thumb from §5.4/Figure 8:
// S(1 host) = 1, then S grows ~1.5× per host doubling as in the paper's
// axis labels 1(1), 2(3), 4(6), 8(12), 16(24), 32(48), 64(96).
func DefaultConfig(hosts int) Config {
	return Config{
		Hosts:            hosts,
		Epochs:           16,
		SyncRounds:       SyncFrequencyRule(hosts),
		Alpha:            0.025,
		MinAlphaFactor:   1e-4,
		ThreadsPerHost:   1,
		Params:           sgns.DefaultParams(),
		CombinerName:     "MC",
		Mode:             gluon.RepModelOpt,
		Seed:             1,
		ShuffleEachEpoch: true,
	}
}

// SyncFrequencyRule returns the paper's sync-rounds-per-epoch setting for
// a host count: the Figure 8 axis pairs hosts (sync frequency) as 1(1),
// 2(3), 4(6), 8(12), 16(24), 32(48), 64(96) — i.e. S = 1.5 × hosts
// (rounded) beyond one host.
func SyncFrequencyRule(hosts int) int {
	if hosts <= 1 {
		return 1
	}
	return hosts * 3 / 2
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Hosts <= 0:
		return errors.New("core: Hosts must be positive")
	case c.Epochs <= 0:
		return errors.New("core: Epochs must be positive")
	case c.SyncRounds <= 0:
		return errors.New("core: SyncRounds must be positive")
	case c.Alpha <= 0:
		return errors.New("core: Alpha must be positive")
	case c.MinAlphaFactor < 0 || c.MinAlphaFactor > 1:
		return errors.New("core: MinAlphaFactor must be in [0,1]")
	case c.ThreadsPerHost <= 0:
		return errors.New("core: ThreadsPerHost must be positive")
	case c.HealBudget < 0:
		return errors.New("core: HealBudget must be non-negative")
	}
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if combine.ByName(c.CombinerName, 1) == nil {
		return fmt.Errorf("core: unknown combiner %q", c.CombinerName)
	}
	switch c.Mode {
	case gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel:
	default:
		return fmt.Errorf("core: unknown mode %v", c.Mode)
	}
	return nil
}

// HealOptions translates the healing knobs into the gluon session-layer
// options consumed by TCP transports (gluon.TCPOptions.Session).
func (c *Config) HealOptions() gluon.SessionOptions {
	return gluon.SessionOptions{Heal: c.Heal, HealBudget: c.HealBudget}
}

// alphaForEpoch implements the per-epoch linear decay of Algorithm 1.
func (c *Config) alphaForEpoch(epoch int) float32 {
	frac := float32(epoch) / float32(c.Epochs)
	a := c.Alpha * (1 - frac)
	floor := c.Alpha * c.MinAlphaFactor
	if a < floor {
		a = floor
	}
	return a
}
