package harness

import (
	"errors"
	"fmt"
	"time"

	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
)

// The chaos grid is the transient-fault resilience experiment
// (DESIGN.md §13): a priority-graded case matrix that runs a live
// 3-host TCP cluster through every fault class the gluon chaos
// injector can produce — drops, duplicates, reorders, corruption, slow
// links, connection resets, one-way blackholes — across all three
// communication schemes and both workloads, with the session layer
// (PROTOCOL.md §12) healing each fault in place. Every healed cell
// must finish with a final model byte-identical to a fault-free run:
// the network may misbehave arbitrarily within the healing budget
// without perturbing a single bit of the result.
//
// The eighth class, storm, proves the other half of the escalation
// ladder: a permanent reset storm that outlasts a deliberately tiny
// healing budget must degrade every rank into ErrPeerLost — not a hang
// — and the subsequent checkpoint-resume run must still converge to
// the byte-identical model.

// ChaosClass is one fault family injected into a cell.
type ChaosClass int

const (
	// ChaosDrop swallows every 6th frame; retransmission (driven by
	// the ack-stall detector when the link otherwise goes quiet)
	// recovers it.
	ChaosDrop ChaosClass = iota
	// ChaosDup writes every 6th frame twice; the receiver discards
	// the duplicate by sequence number.
	ChaosDup
	// ChaosReorder holds every 8th frame back one frame; the receiver
	// treats the gap as loss and heals.
	ChaosReorder
	// ChaosCorrupt flips one bit in every 10th frame; the CRC rejects
	// it and the session heals.
	ChaosCorrupt
	// ChaosDelay stalls every 12th frame past the read deadline — a
	// slow link indistinguishable from a partition until it isn't.
	ChaosDelay
	// ChaosReset closes the connection mid-write on every 25th frame.
	ChaosReset
	// ChaosBlackhole opens a one-way partition for 20 frames after the
	// 30th; the reverse direction keeps flowing.
	ChaosBlackhole
	// ChaosStorm turns every write into a connection reset from the
	// first round-3 reduce frame on, so healing can never succeed and
	// the budget must escalate to ErrPeerLost → checkpoint resume.
	ChaosStorm
)

// String names the fault class.
func (c ChaosClass) String() string {
	switch c {
	case ChaosDrop:
		return "drop"
	case ChaosDup:
		return "dup"
	case ChaosReorder:
		return "reorder"
	case ChaosCorrupt:
		return "corrupt"
	case ChaosDelay:
		return "slow-link"
	case ChaosReset:
		return "reset"
	case ChaosBlackhole:
		return "blackhole"
	case ChaosStorm:
		return "storm"
	default:
		return fmt.Sprintf("ChaosClass(%d)", int(c))
	}
}

// chaosGrid cell shape: the fault grid's 2 epochs × 3 rounds over 3
// hosts, checkpointed every 2 rounds, with the storm arming on round 3
// so one checkpoint generation (round 2) predates the escalation.
const (
	chaosGridHosts       = faultGridHosts
	chaosGridStormRound  = 3
	chaosGridHealBudget  = 3 * time.Second
	chaosGridStormBudget = 300 * time.Millisecond
)

// Plan builds the class's seeded fault schedule. The cadences are
// tuned against the cell's traffic volume (heartbeats every 20ms plus
// the sync rounds) so every cell injects many faults without starving
// the link entirely.
func (c ChaosClass) Plan(seed uint64) gluon.ChaosPlan {
	p := gluon.ChaosPlan{Seed: seed}
	switch c {
	case ChaosDrop:
		p.DropEvery = 6
	case ChaosDup:
		p.DupEvery = 6
	case ChaosReorder:
		p.ReorderEvery = 8
	case ChaosCorrupt:
		p.CorruptEvery = 10
	case ChaosDelay:
		p.DelayEvery = 12
		p.Delay = 300 * time.Millisecond // past the 200ms read deadline
	case ChaosReset:
		// Low enough that even the lightest cell (PullModel traffic is
		// ~2 data frames per direction per round) crosses the cadence
		// without leaning on heartbeat volume.
		p.ResetEvery = 10
	case ChaosBlackhole:
		p.BlackholeAfter = 10
		p.BlackholeFrames = 10
	case ChaosStorm:
		p.StormRound = chaosGridStormRound
	}
	return p
}

// forcesHeal reports whether the class structurally forces at least one
// reconnect (drops/dups/reorders may be absorbed by retransmission and
// duplicate discard alone when they land on heartbeats).
func (c ChaosClass) forcesHeal() bool {
	switch c {
	case ChaosCorrupt, ChaosDelay, ChaosReset, ChaosBlackhole:
		return true
	}
	return false
}

// escalates reports whether the class is expected to exhaust the
// healing budget and degrade into the checkpoint-resume path.
func (c ChaosClass) escalates() bool { return c == ChaosStorm }

// ChaosCase is one cell of the grid.
type ChaosCase struct {
	// Priority grades the cell: 1 cells form the CI smoke lane, 2 the
	// full grid.
	Priority int
	// Workload is "text" or "graph".
	Workload string
	// Mode is the communication scheme under test.
	Mode gluon.Mode
	// Class is the injected fault family.
	Class ChaosClass
}

// ID renders the cell's stable identifier.
func (c ChaosCase) ID() string {
	return fmt.Sprintf("%s/%v/%s", c.Workload, c.Mode, c.Class)
}

func (c ChaosCase) axes() (string, gluon.Mode) { return c.Workload, c.Mode }

// ChaosGridCases enumerates the full matrix: fault classes × modes ×
// workloads, all over the TCP transport (the session layer has no sim
// flavour — in-process channels cannot fault). Priority 1 marks a
// striding diagonal: two classes per (workload, mode) group, offset so
// the P1 slice still covers every class, every mode and every
// workload.
func ChaosGridCases() []ChaosCase {
	classes := []ChaosClass{ChaosDrop, ChaosDup, ChaosReorder, ChaosCorrupt,
		ChaosDelay, ChaosReset, ChaosBlackhole, ChaosStorm}
	modes := []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel}
	workloads := []string{"text", "graph"}
	var cases []ChaosCase
	group := 0
	for _, wl := range workloads {
		for _, mode := range modes {
			for ci, class := range classes {
				prio := 2
				// Two-per-group diagonal: offsets 0 and 4 from the
				// group index, mod the class count, so six groups
				// cover all eight classes at least once.
				if d := ((ci-group)%len(classes) + len(classes)) % len(classes); d == 0 || d == 4 {
					prio = 1
				}
				cases = append(cases, ChaosCase{Priority: prio, Workload: wl, Mode: mode, Class: class})
			}
			group++
		}
	}
	return cases
}

// ChaosGridRow is one executed cell's outcome.
type ChaosGridRow struct {
	ID       string `json:"id"`
	Priority int    `json:"priority"`
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Class    string `json:"class"`
	// Injections counts faults the chaos wrapper actually fired,
	// summed over every directed link of the cluster.
	Injections int `json:"injections"`
	// Heals counts successful session re-establishments, Dups the
	// received frames discarded as duplicates.
	Heals int `json:"heals"`
	Dups  int `json:"dups"`
	// Escalated is true when the run degraded into ErrPeerLost (the
	// storm class's expected outcome) and resumed from a checkpoint.
	Escalated   bool   `json:"escalated"`
	ResumedFrom uint32 `json:"resumed_from"`
	// Healed is true when the faulted run completed in place, without
	// any rank surfacing an error.
	Healed bool `json:"healed"`
	// Identical is true when the final model hashes equal to the
	// fault-free reference run's.
	Identical bool   `json:"identical"`
	Hash      string `json:"hash"`
}

// chaosGridTCPOpts builds a cell's transport options: tight deadlines
// so faults are detected in milliseconds, the session layer healing
// them, and the plan injecting them. The storm class gets a deliberately
// tiny budget so escalation happens promptly.
func chaosGridTCPOpts(class ChaosClass, plan *gluon.ChaosPlan) gluon.TCPOptions {
	budget := chaosGridHealBudget
	if class.escalates() {
		budget = chaosGridStormBudget
	}
	return gluon.TCPOptions{
		HeartbeatInterval: 20 * time.Millisecond,
		ReadTimeout:       200 * time.Millisecond,
		WriteTimeout:      2 * time.Second,
		Session: gluon.SessionOptions{
			Heal:       true,
			HealBudget: budget,
			RedialMin:  2 * time.Millisecond,
			RedialMax:  50 * time.Millisecond,
		},
		Chaos: plan,
	}
}

// runChaosCell executes one cell and renders its verdict.
func runChaosCell(cell gridCell, c ChaosCase) (ChaosGridRow, error) {
	cfg := cell.w.cfg(c.Mode)
	plan := c.Class.Plan(cell.seed)
	row := ChaosGridRow{
		ID: c.ID(), Priority: c.Priority, Workload: c.Workload,
		Mode: c.Mode.String(), Class: c.Class.String(),
	}
	refHash, err := cell.ref()
	if err != nil {
		return row, err
	}

	trs, gts, closeAll, err := tcpCluster(chaosGridHosts, chaosGridTCPOpts(c.Class, &plan))
	if err != nil {
		return row, err
	}
	mkOpts := func(int) core.RunOptions { return core.RunOptions{} }
	if c.Class.escalates() {
		// The storm cell checkpoints so the escalated run has a cut to
		// resume from, exactly like a production -heal -checkpoint-dir
		// deployment.
		mkOpts = func(int) core.RunOptions {
			return core.RunOptions{Checkpoint: &core.CheckpointPolicy{Dir: cell.dir, Every: faultGridCkptEvery}}
		}
	}
	results, errs := clusterRun(cell.w, cfg, gts, mkOpts)
	for _, tr := range trs {
		row.Injections += tr.ChaosInjections()
		st := tr.SessionStats()
		row.Heals += st.Heals
		row.Dups += st.Dups
	}
	closeAll()
	if row.Injections == 0 {
		return row, fmt.Errorf("harness: %s: the chaos plan injected nothing", c.ID())
	}

	if !c.Class.escalates() {
		// Healing classes: every rank must finish in place, and the
		// model must match the fault-free reference bit for bit.
		for h, err := range errs {
			if err != nil {
				return row, fmt.Errorf("harness: %s: rank %d did not heal: %w", c.ID(), h, err)
			}
		}
		if c.Class.forcesHeal() && row.Heals == 0 {
			return row, fmt.Errorf("harness: %s: %d injections forced zero heals", c.ID(), row.Injections)
		}
		row.Healed = true
		row.Hash = hashCanonical(results[0].Canonical)
		row.Identical = row.Hash == refHash
		return row, nil
	}

	// The storm class: every rank must degrade into ErrPeerLost — the
	// budget-exhausted escalation, not a hang and not some other
	// failure — and the resume run over a clean network must finish
	// byte-identical from the pre-storm checkpoint.
	for h, err := range errs {
		if err == nil {
			return row, fmt.Errorf("harness: %s: rank %d survived the reset storm", c.ID(), h)
		}
		if !errors.Is(err, gluon.ErrPeerLost) {
			return row, fmt.Errorf("harness: %s: rank %d died of %v, not budget escalation", c.ID(), h, err)
		}
	}
	_, gts, closeAll, err = tcpCluster(chaosGridHosts, chaosGridTCPOpts(ChaosDrop, nil))
	if err != nil {
		return row, err
	}
	defer closeAll()
	results, err = clusterRunAll(cell.w, cfg, gts, resumeOpts(cell.dir))
	if err != nil {
		return row, fmt.Errorf("harness: %s: resume %w", c.ID(), err)
	}
	row.Escalated = true
	row.ResumedFrom = results[0].ResumedFrom
	row.Hash = hashCanonical(results[0].Canonical)
	row.Identical = row.Hash == refHash
	return row, nil
}

// ChaosGrid executes the given cells (use ChaosGridCases for the full
// matrix), renders a case table to opts.Out, and returns the rows. A
// cell that fails to heal (or, for the storm class, to escalate and
// resume) byte-identically makes the whole grid return an error
// alongside the rows collected so far.
func ChaosGrid(opts Options, cases []ChaosCase) ([]ChaosGridRow, error) {
	return runGrid(opts, cases, gridSpec[ChaosCase, ChaosGridRow]{
		name:  "chaos-grid",
		title: "Chaos grid",
		detail: fmt.Sprintf("%d hosts over TCP, session healing on, heal budget %v / storm %v",
			chaosGridHosts, chaosGridHealBudget, chaosGridStormBudget),
		header: "P\tWorkload\tMode\tFault class\tInjected\tHeals\tDups\tEscalated\tResume@\tHealed\tByte-identical",
		line: func(r ChaosGridRow) string {
			return fmt.Sprintf("%d\t%s\t%s\t%s\t%d\t%d\t%d\t%v\t%d\t%v\t%v",
				r.Priority, r.Workload, r.Mode, r.Class,
				r.Injections, r.Heals, r.Dups, r.Escalated, r.ResumedFrom, r.Healed, r.Identical)
		},
		run:  runChaosCell,
		ok:   func(r ChaosGridRow) bool { return r.Identical && (r.Healed || r.Escalated) },
		fail: "survive byte-identically",
	})
}
