package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"graphword2vec/internal/checkpoint"
	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
)

// The membership grid is the elastic-membership experiment (PROTOCOL.md
// §10, DESIGN.md §11): a priority-graded case matrix over the three
// cluster-shape changes — a permanent death after which the survivors
// continue as N−1, a wiped replacement rejoining at N, and a paused
// N−1 cluster absorbing a fresh rank back to N — across all three
// communication schemes, both transports, and both workloads. Every
// cell must converge, and the post-change continuation must be
// byte-identical to a reference cluster launched directly from the
// re-sharded checkpoint the membership change wrote (for cells whose
// negotiation degrades to round 0, to an uninterrupted fresh run at
// the new shape).

// MembershipScenario is the shape change a cell exercises.
type MembershipScenario int

const (
	// ScenarioDepart: rank 1 of a 3-host cluster dies for good; the two
	// survivors relaunch as a 2-host cluster, re-shard the dead rank's
	// master range from the newest common checkpoint, and finish.
	ScenarioDepart MembershipScenario = iota
	// ScenarioReplace: rank 1 dies and is replaced by a fresh host with
	// a wiped disk; the cluster relaunches at 3 hosts, the replacement
	// joining with no identity. Under the RepModel schemes the
	// survivors' replicas cover every range; under PullModel the dead
	// rank's range is unrecoverable and the negotiation degrades to a
	// deterministic fresh start — both verdicts are asserted.
	ScenarioReplace
	// ScenarioGrow: a 2-host cluster pauses at a round boundary
	// (StopAfterRound — the scale-up cut) and relaunches as 3 hosts,
	// the newcomer joining fresh; the model re-shards onto the wider
	// map and training continues.
	ScenarioGrow
)

// String names the scenario.
func (s MembershipScenario) String() string {
	switch s {
	case ScenarioDepart:
		return "depart"
	case ScenarioReplace:
		return "replace"
	case ScenarioGrow:
		return "grow"
	default:
		return fmt.Sprintf("MembershipScenario(%d)", int(s))
	}
}

// MembershipCase is one cell of the grid.
type MembershipCase struct {
	// Priority grades the cell: 1 cells form the CI smoke lane
	// (recovery-smoke), 2 the full grid.
	Priority int
	// Workload is "text" or "graph".
	Workload string
	// Mode is the communication scheme under test.
	Mode gluon.Mode
	// Transport is "sim" or "tcp" (tight failure-detection deadlines).
	Transport string
	// Scenario is the shape change.
	Scenario MembershipScenario
}

// ID renders the cell's stable identifier.
func (c MembershipCase) ID() string {
	return fmt.Sprintf("%s/%v/%s/%s", c.Workload, c.Mode, c.Transport, c.Scenario)
}

func (c MembershipCase) axes() (string, gluon.Mode) { return c.Workload, c.Mode }

// MembershipGridCases enumerates the full matrix: scenarios × modes ×
// transports × workloads. Priority 1 marks a striding diagonal that
// still touches every axis value — part of the recovery-smoke CI lane.
func MembershipGridCases() []MembershipCase {
	scenarios := []MembershipScenario{ScenarioDepart, ScenarioReplace, ScenarioGrow}
	modes := []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel}
	transports := []string{"sim", "tcp"}
	workloads := []string{"text", "graph"}
	var cases []MembershipCase
	i := 0
	for _, wl := range workloads {
		for _, mode := range modes {
			for _, tr := range transports {
				for _, s := range scenarios {
					prio := 2
					if int(s) == i%len(scenarios) {
						prio = 1
					}
					cases = append(cases, MembershipCase{Priority: prio, Workload: wl, Mode: mode, Transport: tr, Scenario: s})
				}
				i++
			}
		}
	}
	return cases
}

// MembershipGridRow is one executed cell's outcome.
type MembershipGridRow struct {
	ID        string `json:"id"`
	Priority  int    `json:"priority"`
	Workload  string `json:"workload"`
	Mode      string `json:"mode"`
	Transport string `json:"transport"`
	Scenario  string `json:"scenario"`
	OldHosts  int    `json:"old_hosts"`
	NewHosts  int    `json:"new_hosts"`
	// CutRound is the round boundary the membership change restarted
	// from (0 = the negotiation degraded to a fresh start — expected
	// for replace under PullModel, where the dead rank's master range
	// has no surviving source).
	CutRound uint32 `json:"cut_round"`
	// Recovered is true when the shape change completed training.
	Recovered bool `json:"recovered"`
	// Identical is true when the continuation's final model hashes
	// equal to the reference run's (launched from the re-sharded
	// checkpoint, or fresh for CutRound 0).
	Identical bool   `json:"identical"`
	Hash      string `json:"hash"`
}

// membershipGrowCut: the grow scenario pauses its 2-host cluster at
// this round boundary (and checkpoints exactly there, Every=cut).
const membershipGrowCut = faultGridSyncRounds

// captureSink checkpoints to the live store and mirrors the cut-round
// generation — the re-sharded snapshot the membership change writes —
// into a reference directory, so a verification cluster can later be
// launched directly from the membership change's own output.
type captureSink struct {
	store *checkpoint.Store
	ref   *checkpoint.Store
	round uint32
}

func (s *captureSink) Save(snap *checkpoint.Snapshot) error {
	if err := s.store.Save(snap); err != nil {
		return err
	}
	if snap.NextRound == s.round {
		return s.ref.Save(snap)
	}
	return nil
}

// elasticRun drives one relaunch at the new shape: every rank resumes,
// oldRank mapping new ranks to their old identities (core.FreshRank
// for joiners), and the cut-round checkpoint generation is mirrored
// into refDir.
func elasticRun(w *faultWorkload, cfg core.Config, transport, dir, refDir string, cut uint32, oldRank func(rank int) int) ([]*core.DistributedResult, error) {
	trs, closeAll, err := gridTransports(transport, cfg.Hosts)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	results, err := clusterRunAll(w, cfg, trs, func(rank int) core.RunOptions {
		return core.RunOptions{
			Checkpoint: &core.CheckpointPolicy{Dir: dir, Every: faultGridCkptEvery, Resume: true, OldRank: oldRank(rank)},
			Sink: &captureSink{
				store: checkpoint.NewStore(dir, rank),
				ref:   checkpoint.NewStore(refDir, rank),
				round: cut,
			},
		}
	})
	if err != nil {
		return nil, fmt.Errorf("elastic %w", err)
	}
	return results, nil
}

// referenceFromDir resumes an unchanged cluster straight from the
// captured re-sharded checkpoints and returns its final hash — the
// byte-identity oracle: a membership change is correct exactly when
// continuing through it equals launching a brand-new cluster of the
// new shape from the checkpoint it wrote.
func referenceFromDir(w *faultWorkload, cfg core.Config, transport, refDir string, cut uint32) (string, error) {
	trs, closeAll, err := gridTransports(transport, cfg.Hosts)
	if err != nil {
		return "", err
	}
	defer closeAll()
	results, err := clusterRunAll(w, cfg, trs, resumeOpts(refDir))
	if err != nil {
		return "", fmt.Errorf("reference %w", err)
	}
	for h, r := range results {
		if r.ResumedFrom != cut {
			return "", fmt.Errorf("reference rank %d resumed from %d, want the cut round %d", h, r.ResumedFrom, cut)
		}
	}
	return hashCanonical(results[0].Canonical), nil
}

// runMembershipCell executes one cell. The uninterrupted 3-host
// reference (cell.ref) is needed only by cells whose negotiation
// legitimately degrades to round 0; the others are checked against a
// cluster launched from the captured cut-round checkpoints in a
// subdirectory of the cell's dir.
func runMembershipCell(cell gridCell, c MembershipCase) (MembershipGridRow, error) {
	w, dir, refDir := cell.w, cell.dir, filepath.Join(cell.dir, "ref")
	cfg3 := w.cfg(c.Mode)
	cfg2 := cfg3
	cfg2.Hosts = 2
	row := MembershipGridRow{
		ID: c.ID(), Priority: c.Priority, Workload: c.Workload,
		Mode: c.Mode.String(), Transport: c.Transport, Scenario: c.Scenario.String(),
	}

	var (
		contCfg core.Config
		cut     uint32
		oldRank func(rank int) int
	)
	switch c.Scenario {
	case ScenarioDepart:
		row.OldHosts, row.NewHosts = 3, 2
		if err := killRun(w, cfg3, c.Transport, dir, FaultAtCompute.trigger(), nil); err != nil {
			return row, fmt.Errorf("harness: %s: %w", c.ID(), err)
		}
		// Survivors are old ranks 0 and 2; the newest checkpoint every
		// range is sourceable at is the round-2 generation.
		contCfg, cut = cfg2, faultGridCkptEvery
		oldRank = func(rank int) int { return []int{0, 2}[rank] }
	case ScenarioReplace:
		row.OldHosts, row.NewHosts = 3, 3
		if err := killRun(w, cfg3, c.Transport, dir, FaultAtCompute.trigger(), nil); err != nil {
			return row, fmt.Errorf("harness: %s: %w", c.ID(), err)
		}
		// The replacement host's disk is wiped: the dead rank's files
		// are gone, and the new rank 1 joins with no identity.
		for _, p := range []string{"rank0001.ckpt", "rank0001.ckpt.prev"} {
			if err := os.Remove(filepath.Join(dir, p)); err != nil && !os.IsNotExist(err) {
				return row, err
			}
		}
		contCfg, cut = cfg3, faultGridCkptEvery
		if c.Mode == gluon.PullModel {
			// Only the owner's master range is canonical in a PullModel
			// snapshot, so old rank 1's range has no surviving source.
			cut = 0
		}
		oldRank = func(rank int) int {
			if rank == 1 {
				return core.FreshRank
			}
			return rank
		}
	case ScenarioGrow:
		row.OldHosts, row.NewHosts = 2, 3
		// The 2-host generation: train to the pause boundary and
		// checkpoint exactly there.
		trs, closeAll, err := gridTransports(c.Transport, 2)
		if err != nil {
			return row, err
		}
		results, err := clusterRunAll(w, cfg2, trs, func(int) core.RunOptions {
			return core.RunOptions{
				Checkpoint:     &core.CheckpointPolicy{Dir: dir, Every: membershipGrowCut},
				StopAfterRound: membershipGrowCut,
			}
		})
		closeAll()
		if err != nil {
			return row, fmt.Errorf("harness: %s: paused run %w", c.ID(), err)
		}
		for h, r := range results {
			if !r.Engine.Paused {
				return row, fmt.Errorf("harness: %s: rank %d did not pause at round %d", c.ID(), h, membershipGrowCut)
			}
		}
		contCfg, cut = cfg3, membershipGrowCut
		oldRank = func(rank int) int {
			if rank == 2 {
				return core.FreshRank
			}
			return rank
		}
	default:
		return row, fmt.Errorf("harness: unknown membership scenario %v", c.Scenario)
	}
	row.CutRound = cut

	// The continuation: relaunch at the new shape, negotiate the
	// membership change, re-shard, and train to completion.
	results, err := elasticRun(w, contCfg, c.Transport, dir, refDir, cut, oldRank)
	if err != nil {
		return row, fmt.Errorf("harness: %s: %w", c.ID(), err)
	}
	for h, r := range results {
		if r.ResumedFrom != cut {
			return row, fmt.Errorf("harness: %s: rank %d resumed from %d, want the cut round %d", c.ID(), h, r.ResumedFrom, cut)
		}
	}
	row.Recovered = true
	row.Hash = hashCanonical(results[0].Canonical)

	// The byte-identity verdict.
	var refHash string
	if cut == 0 {
		refHash, err = cell.ref()
	} else {
		refHash, err = referenceFromDir(w, contCfg, c.Transport, refDir, cut)
	}
	if err != nil {
		return row, fmt.Errorf("harness: %s: %w", c.ID(), err)
	}
	row.Identical = row.Hash == refHash
	return row, nil
}

// MembershipGrid executes the given cells (use MembershipGridCases for
// the full matrix), renders a case table to opts.Out, and returns the
// rows. A cell that fails to converge, lands on the wrong cut, or
// diverges from its reference makes the grid return an error alongside
// the rows collected so far.
func MembershipGrid(opts Options, cases []MembershipCase) ([]MembershipGridRow, error) {
	return runGrid(opts, cases, gridSpec[MembershipCase, MembershipGridRow]{
		name:   "membership-grid",
		title:  "Membership grid",
		detail: fmt.Sprintf("ckpt every %d rounds", faultGridCkptEvery),
		header: "P\tWorkload\tMode\tTransport\tScenario\tHosts\tCut@\tConverged\tByte-identical",
		line: func(r MembershipGridRow) string {
			return fmt.Sprintf("%d\t%s\t%s\t%s\t%s\t%d→%d\t%d\t%v\t%v",
				r.Priority, r.Workload, r.Mode, r.Transport, r.Scenario,
				r.OldHosts, r.NewHosts, r.CutRound, r.Recovered, r.Identical)
		},
		run:  runMembershipCell,
		ok:   func(r MembershipGridRow) bool { return r.Recovered && r.Identical },
		fail: "continue byte-identically",
	})
}

// SecondFaultPoint is where a SECOND rank dies while the cluster is
// already recovering from a first failure.
type SecondFaultPoint int

const (
	// SecondFaultResumeOffer kills a survivor as it sends its offer
	// while the cluster restarts at its full, unchanged shape — mid
	// plain-resume negotiation.
	SecondFaultResumeOffer SecondFaultPoint = iota
	// SecondFaultMembershipOffer kills a survivor as it sends its
	// offer while the survivors continue as a smaller cluster — mid
	// resharding negotiation.
	SecondFaultMembershipOffer
	// SecondFaultTransfer kills a survivor as the first migrated range
	// arrives — mid range transfer.
	SecondFaultTransfer
)

// String names the second kill point.
func (p SecondFaultPoint) String() string {
	switch p {
	case SecondFaultResumeOffer:
		return "resume-offer"
	case SecondFaultMembershipOffer:
		return "membership-offer"
	case SecondFaultTransfer:
		return "range-transfer"
	default:
		return fmt.Sprintf("SecondFaultPoint(%d)", int(p))
	}
}

// SecondFailure exercises a second rank dying while the cluster is
// already recovering from a first kill: during the negotiation of a
// plain restart, during the negotiation of a shrink, or in the middle
// of a range transfer. The recovery attempt must not hang — every
// survivor must surface gluon.ErrPeerLost — and the new victim must die
// of the injected kill. TCP only: the assertion is about the failure
// detector, which the in-process transport does not model.
func SecondFailure(opts Options, point SecondFaultPoint) error {
	opts = opts.WithDefaults()
	workloads, err := faultWorkloads(opts)
	if err != nil {
		return err
	}
	w := workloads["text"] // the kill points are workload-agnostic
	cfg := w.cfg(gluon.RepModelOpt)
	dir, err := os.MkdirTemp("", "gw2v-secondfail-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// First failure: rank 1 of the 3-host cluster dies for good.
	if err := killRun(w, cfg, "tcp", dir, FaultAtCompute.trigger(), nil); err != nil {
		return fmt.Errorf("harness: %w", err)
	}

	// Recovery attempt with a second kill armed. The resume-offer point
	// retries at the full shape (a plain restart, as if rank 1 came
	// straight back); the others continue as the 2 survivors. An offer
	// is a membership frame with tag 0.
	trig := &faultTrigger{onSend: true, kind: gluon.FrameMembership, round: 0, nth: 1}
	victim := 2
	oldRank := func(rank int) int { return rank }
	switch point {
	case SecondFaultResumeOffer:
	case SecondFaultMembershipOffer, SecondFaultTransfer:
		if point == SecondFaultTransfer {
			// Rank 0 sources every old range (RepModel snapshots cover
			// them all) and sends old rank 0's first.
			trig = &faultTrigger{kind: gluon.FrameTransfer, round: 0, nth: 1}
		}
		cfg.Hosts = 2
		victim = 1 // old rank 2, the non-root survivor
		oldRank = func(rank int) int { return []int{0, 2}[rank] }
	default:
		return fmt.Errorf("harness: unknown second-fault point %v", point)
	}
	trs, closeAll, err := gridTransports("tcp", cfg.Hosts)
	if err != nil {
		return err
	}
	defer closeAll()
	trs[victim] = &faultTransport{Transport: trs[victim], trig: trig}
	_, errs := clusterRun(w, cfg, trs, func(rank int) core.RunOptions {
		return core.RunOptions{Checkpoint: &core.CheckpointPolicy{Dir: dir, Every: faultGridCkptEvery, Resume: true, OldRank: oldRank(rank)}}
	})
	for h, err := range errs {
		switch {
		case h == victim:
			if !errors.Is(err, errInjectedKill) {
				return fmt.Errorf("harness: %v: victim rank %d died of %v, want the injected kill", point, h, err)
			}
		case err == nil:
			return fmt.Errorf("harness: %v: rank %d completed despite the second failure", point, h)
		case !errors.Is(err, gluon.ErrPeerLost):
			return fmt.Errorf("harness: %v: rank %d failed with %v, want gluon.ErrPeerLost", point, h, err)
		}
	}
	return nil
}
