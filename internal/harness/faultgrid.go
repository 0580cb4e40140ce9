package harness

import (
	"fmt"
	"os"

	"graphword2vec/internal/checkpoint"
	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
)

// The fault grid is the elasticity experiment (DESIGN.md §10): a
// priority-graded case matrix that kills one rank of a live 3-host
// cluster at every interesting point of the BSP round — during compute,
// mid-way through encoding a sync round's frames, mid-way through
// decoding a peer's, at the finish barrier, and in the middle of a
// checkpoint write that tears the on-disk snapshot — across all three
// communication schemes, both transports, and both workloads. Every
// cell must recover by re-forming the mesh, negotiating the best
// cluster-wide checkpoint, and finishing with a final model
// byte-identical to an uninterrupted run.

// FaultPoint is where in the round the victim rank is killed.
type FaultPoint int

const (
	// FaultAtCompute kills the victim before it has sent any reduce
	// frame of the target round: its round-local gradient work is lost
	// entirely.
	FaultAtCompute FaultPoint = iota
	// FaultMidEncode kills the victim after its first reduce frame of
	// the target round but before the rest: peers hold a torn view of
	// its contribution.
	FaultMidEncode
	// FaultMidDecode kills the victim after it has consumed one peer
	// reduce frame of the target round but before the rest.
	FaultMidDecode
	// FaultAtBarrier kills the victim as it enters the finish barrier,
	// after all training rounds completed.
	FaultAtBarrier
	// FaultMidCheckpoint crashes the victim halfway through writing a
	// checkpoint, leaving a torn snapshot file that must be rejected by
	// hash: the victim offers only its previous generation, and the
	// negotiation either rewinds to it or, where the survivors' newer
	// snapshots cover the victim's range, reshards past it.
	FaultMidCheckpoint
)

// String names the kill point.
func (p FaultPoint) String() string {
	switch p {
	case FaultAtCompute:
		return "compute"
	case FaultMidEncode:
		return "mid-encode"
	case FaultMidDecode:
		return "mid-decode"
	case FaultAtBarrier:
		return "barrier"
	case FaultMidCheckpoint:
		return "mid-ckpt-write"
	default:
		return fmt.Sprintf("FaultPoint(%d)", int(p))
	}
}

// trigger returns the kill trigger for the point, aimed at round
// faultGridKillRound.
func (p FaultPoint) trigger() *faultTrigger {
	switch p {
	case FaultAtCompute:
		return &faultTrigger{onSend: true, kind: gluon.FrameReduce, round: faultGridKillRound, nth: 1}
	case FaultMidEncode:
		return &faultTrigger{onSend: true, kind: gluon.FrameReduce, round: faultGridKillRound, nth: 2}
	case FaultMidDecode:
		return &faultTrigger{kind: gluon.FrameReduce, round: faultGridKillRound, nth: 2}
	case FaultAtBarrier:
		// Tag 2 is the distributed runner's finish barrier.
		return &faultTrigger{onSend: true, kind: gluon.FrameBarrier, round: 2, nth: 1}
	default: // FaultMidCheckpoint: the tearing sink kills
		return &faultTrigger{}
	}
}

// FaultCase is one cell of the grid.
type FaultCase struct {
	// Priority grades the cell: 1 cells form the CI smoke lane, 2 the
	// full grid.
	Priority int
	// Workload is "text" or "graph".
	Workload string
	// Mode is the communication scheme under test.
	Mode gluon.Mode
	// Transport is "sim" (in-process channels) or "tcp" (loopback
	// sockets with tight failure-detection deadlines).
	Transport string
	// Point is where the victim dies.
	Point FaultPoint
}

// ID renders the cell's stable identifier.
func (c FaultCase) ID() string {
	return fmt.Sprintf("%s/%v/%s/%s", c.Workload, c.Mode, c.Transport, c.Point)
}

func (c FaultCase) axes() (string, gluon.Mode) { return c.Workload, c.Mode }

// FaultGridCases enumerates the full matrix: kill points × modes ×
// transports × workloads. Priority 1 marks a representative diagonal —
// every kill point, every mode, every transport and every workload is
// exercised by at least one P1 cell — sized for a CI smoke lane.
func FaultGridCases() []FaultCase {
	points := []FaultPoint{FaultAtCompute, FaultMidEncode, FaultMidDecode, FaultAtBarrier, FaultMidCheckpoint}
	modes := []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel}
	transports := []string{"sim", "tcp"}
	workloads := []string{"text", "graph"}
	var cases []FaultCase
	i := 0
	for _, wl := range workloads {
		for _, mode := range modes {
			for _, tr := range transports {
				for _, p := range points {
					prio := 2
					// The P1 diagonal: stride through the matrix so the
					// smoke slice still touches every axis value.
					if int(p) == i%len(points) {
						prio = 1
					}
					cases = append(cases, FaultCase{Priority: prio, Workload: wl, Mode: mode, Transport: tr, Point: p})
				}
				i++
			}
		}
	}
	return cases
}

// FaultGridRow is one executed cell's outcome.
type FaultGridRow struct {
	ID          string `json:"id"`
	Priority    int    `json:"priority"`
	Workload    string `json:"workload"`
	Mode        string `json:"mode"`
	Transport   string `json:"transport"`
	Point       string `json:"point"`
	FaultRound  uint32 `json:"fault_round"`
	ResumedFrom uint32 `json:"resumed_from"`
	// Recovered is true when the faulted run errored (the kill landed)
	// and the resume run completed.
	Recovered bool `json:"recovered"`
	// Identical is true when the recovered model hashes equal to the
	// uninterrupted reference run's.
	Identical bool   `json:"identical"`
	Hash      string `json:"hash"`
}

// faultGridRounds: every cell trains 2 epochs × 3 rounds with a
// checkpoint every 2 rounds and the kill targeting round 3, so one
// complete checkpoint generation (round 2) predates every fault.
const (
	faultGridEpochs     = 2
	faultGridSyncRounds = 3
	faultGridHosts      = 3
	faultGridCkptEvery  = 2
	faultGridKillRound  = 3
)

// tearingSink is the FaultMidCheckpoint victim's checkpoint sink: it
// saves normally until the target generation, then simulates a crash
// halfway through the store's write-new/rotate sequence — the old
// current already demoted to .prev, the new current torn — and kills
// the transport.
type tearingSink struct {
	store *checkpoint.Store
	round uint32
	kill  func() error
}

func (s *tearingSink) Save(snap *checkpoint.Snapshot) error {
	if snap.NextRound != s.round {
		return s.store.Save(snap)
	}
	if err := os.MkdirAll(s.store.Dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(s.store.Path()); err == nil {
		if err := os.Rename(s.store.Path(), s.store.PrevPath()); err != nil {
			return err
		}
	}
	// A full snapshot cut off halfway: valid magic and header, torn
	// body, no trailing hash — must be rejected on load.
	if err := checkpoint.Save(s.store.Path(), snap); err != nil {
		return err
	}
	fi, err := os.Stat(s.store.Path())
	if err != nil {
		return err
	}
	if err := os.Truncate(s.store.Path(), fi.Size()/2); err != nil {
		return err
	}
	return s.kill()
}

// runFaultCell executes one cell: faulted run, resume run,
// byte-identity verdict against the uninterrupted reference.
func runFaultCell(cell gridCell, c FaultCase) (FaultGridRow, error) {
	cfg := cell.w.cfg(c.Mode)
	row := FaultGridRow{
		ID: c.ID(), Priority: c.Priority, Workload: c.Workload,
		Mode: c.Mode.String(), Transport: c.Transport, Point: c.Point.String(),
		FaultRound: faultGridKillRound,
	}
	switch c.Point {
	case FaultAtBarrier:
		// The finish barrier sits after all training rounds.
		row.FaultRound = faultGridEpochs * faultGridSyncRounds
	case FaultMidCheckpoint:
		// Tear the second checkpoint generation, so a good first one
		// exists to fall back to.
		row.FaultRound = 2 * faultGridCkptEvery
	}
	refHash, err := cell.ref()
	if err != nil {
		return row, err
	}

	// The faulted run: the victim dies at the kill point; every rank
	// must surface an error rather than hang.
	var sink func(kill func() error) core.CheckpointSink
	if c.Point == FaultMidCheckpoint {
		sink = func(kill func() error) core.CheckpointSink {
			return &tearingSink{store: checkpoint.NewStore(cell.dir, faultGridVictim), round: row.FaultRound, kill: kill}
		}
	}
	if err := killRun(cell.w, cfg, c.Transport, cell.dir, c.Point.trigger(), sink); err != nil {
		return row, fmt.Errorf("harness: %s: %w", c.ID(), err)
	}

	// The resume run: a fresh mesh over fresh transports, every rank
	// resuming under its own identity. The cluster must agree on a
	// checkpointed round > 0 and finish byte-identical to the
	// uninterrupted reference.
	trs, closeAll, err := gridTransports(c.Transport, faultGridHosts)
	if err != nil {
		return row, err
	}
	defer closeAll()
	results, err := clusterRunAll(cell.w, cfg, trs, resumeOpts(cell.dir))
	if err != nil {
		return row, fmt.Errorf("harness: %s: resume %w", c.ID(), err)
	}
	row.Recovered = true
	row.ResumedFrom = results[0].ResumedFrom
	row.Hash = hashCanonical(results[0].Canonical)
	row.Identical = row.Hash == refHash
	return row, nil
}

// FaultGrid executes the given cells (use FaultGridCases for the full
// matrix), renders a case table to opts.Out, and returns the rows. A
// cell that fails to recover or recovers a divergent model makes the
// whole grid return an error alongside the rows collected so far.
func FaultGrid(opts Options, cases []FaultCase) ([]FaultGridRow, error) {
	return runGrid(opts, cases, gridSpec[FaultCase, FaultGridRow]{
		name:  "fault-grid",
		title: "Fault grid",
		detail: fmt.Sprintf("%d hosts, ckpt every %d rounds, kill rank %d",
			faultGridHosts, faultGridCkptEvery, faultGridVictim),
		header: "P\tWorkload\tMode\tTransport\tKill point\tFault@\tResume@\tRecovered\tByte-identical",
		line: func(r FaultGridRow) string {
			return fmt.Sprintf("%d\t%s\t%s\t%s\t%s\t%d\t%d\t%v\t%v",
				r.Priority, r.Workload, r.Mode, r.Transport, r.Point,
				r.FaultRound, r.ResumedFrom, r.Recovered, r.Identical)
		},
		run:  runFaultCell,
		ok:   func(r FaultGridRow) bool { return r.Recovered && r.Identical },
		fail: "recover byte-identically",
	})
}
