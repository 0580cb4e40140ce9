package harness

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"graphword2vec/internal/chaos"
	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
)

// The recovery grid (DESIGN.md §10, §11, §13) is one priority-graded
// case table over every way the harness disrupts a live cluster and
// holds the outcome to bit-identity with a fault-free run: a rank
// killed at a point of the BSP round, a change of the cluster's shape,
// a class of transient network faults the session layer heals, and a
// second rank dying mid-recovery. Each is a nil-able axis of
// RecoveryCase. A cell sets one of them, or two for a composed fault;
// one runner (recoverygrid.go) drives every cell through the same
// three phases.

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

// trigger returns the kill trigger for the point, aimed at its round.
func (p FaultPoint) trigger() *faultTrigger {
	switch p {
	case FaultAtCompute:
		return &faultTrigger{onSend: true, kind: gluon.FrameReduce, round: gridKillRound, nth: 1}
	case FaultMidEncode:
		return &faultTrigger{onSend: true, kind: gluon.FrameReduce, round: gridKillRound, nth: 2}
	case FaultMidDecode:
		return &faultTrigger{kind: gluon.FrameReduce, round: gridKillRound, nth: 2}
	case FaultAtBarrier:
		// Tag 2 is the distributed runner's finish barrier.
		return &faultTrigger{onSend: true, kind: gluon.FrameBarrier, round: 2, nth: 1}
	default: // FaultMidCheckpoint: the tearing sink kills
		return &faultTrigger{}
	}
}

// round is the round the kill lands in: the finish barrier sits after
// all training rounds, and the torn checkpoint is the second
// generation, so a good first one exists to fall back to.
func (p FaultPoint) round() uint32 {
	switch p {
	case FaultAtBarrier:
		return gridEpochs * gridSyncRounds
	case FaultMidCheckpoint:
		return 2 * gridCkptEvery
	default:
		return gridKillRound
	}
}

// ShapeChange is a change of the cluster's shape across the recovery
// (PROTOCOL.md §10).
type ShapeChange int

const (
	// ShapeDepart: rank 1 of a 3-host cluster dies for good; the two
	// survivors relaunch as a 2-host cluster, re-shard the dead rank's
	// master range from the newest common checkpoint, and finish.
	ShapeDepart ShapeChange = iota
	// ShapeReplace: rank 1 dies and is replaced by a fresh host with a
	// wiped disk; the cluster relaunches at 3 hosts, the replacement
	// joining with no identity. Under the RepModel schemes the
	// survivors' replicas cover every range; under PullModel the dead
	// rank's range is unrecoverable and the negotiation degrades to a
	// deterministic fresh start — both verdicts are asserted.
	ShapeReplace
	// ShapeGrow: a 2-host cluster pauses at a round boundary
	// (StopAfterRound — the scale-up cut) and relaunches as 3 hosts,
	// the newcomer joining fresh; the model re-shards onto the wider
	// map and training continues.
	ShapeGrow
)

// String names the shape change.
func (s ShapeChange) String() string {
	switch s {
	case ShapeDepart:
		return "depart"
	case ShapeReplace:
		return "replace"
	case ShapeGrow:
		return "grow"
	default:
		return fmt.Sprintf("ShapeChange(%d)", int(s))
	}
}

// ranks returns the old cluster's size and, for each rank of the
// relaunched cluster, its identity in the old one.
func (s ShapeChange) ranks() (oldHosts int, oldRank []int) {
	switch s {
	case ShapeDepart:
		return gridHosts, []int{0, 2}
	case ShapeReplace:
		return gridHosts, []int{0, core.FreshRank, 2}
	default: // ShapeGrow
		return gridHosts - 1, []int{0, 1, core.FreshRank}
	}
}

// ChaosClass is one family of transient network faults.
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
	// ChaosReset closes the connection mid-write on every 10th frame.
	ChaosReset
	// ChaosBlackhole opens a one-way partition for 10 frames after the
	// 10th; the reverse direction keeps flowing.
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

// Plan builds the class's seeded fault schedule. The cadences are
// tuned against a cell's traffic volume (heartbeats every 20ms plus
// the sync rounds) so every cell injects many faults without starving
// the link entirely.
func (c ChaosClass) Plan(seed uint64) chaos.Plan {
	p := chaos.Plan{Seed: seed}
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
		p.StormRound = gridKillRound
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

// SecondFaultPoint is where a second rank dies while the cluster is
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

// trigger returns the second kill's trigger. An offer is a membership
// frame with tag 0; in a transfer, rank 0 sources every old range
// (RepModel snapshots cover them all) and sends old rank 0's first.
func (p SecondFaultPoint) trigger() *faultTrigger {
	if p == SecondFaultTransfer {
		return &faultTrigger{kind: gluon.FrameTransfer, round: 0, nth: 1}
	}
	return &faultTrigger{onSend: true, kind: gluon.FrameMembership, round: 0, nth: 1}
}

// RecoveryCase is one cell of the recovery grid. Workload, Mode and
// Transport select the cluster; each fault axis is nil when the cell
// does not exercise it.
type RecoveryCase struct {
	// Priority grades the cell: 1 cells form the CI smoke lanes, 2 the
	// full grid.
	Priority int
	// Workload is "text" or "graph".
	Workload string
	// Mode is the communication scheme under test.
	Mode gluon.Mode
	// Transport is "sim" (in-process channels) or "tcp" (loopback
	// sockets with tight failure-detection deadlines).
	Transport string
	// Kill is where rank 1 dies.
	Kill *FaultPoint
	// Shape is the change of cluster shape; depart and replace begin
	// with rank 1 dying at compute.
	Shape *ShapeChange
	// Chaos is the injected network fault class; TCP only.
	Chaos *ChaosClass
	// Second is where a survivor dies during the recovery.
	Second *SecondFaultPoint
}

// label names an axis value, "" for an unset axis.
func label[T fmt.Stringer](v *T) string {
	if v == nil {
		return ""
	}
	return (*v).String()
}

// faults names the cell's set fault axes: kill, shape, chaos, second.
func (c RecoveryCase) faults() []string {
	var out []string
	for _, l := range []string{label(c.Kill), label(c.Shape), label(c.Chaos), label(c.Second)} {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}

// ID renders the cell's stable identifier:
// workload/mode/transport/fault[+fault].
func (c RecoveryCase) ID() string {
	return fmt.Sprintf("%s/%v/%s/%s", c.Workload, c.Mode, c.Transport, strings.Join(c.faults(), "+"))
}

// seed derives the cell's chaos schedule from base and the cell's ID
// alone, so a cell injects the same faults whichever cells run beside
// it.
func (c RecoveryCase) seed(base uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", base, c.ID())
	return h.Sum64()
}

func ptr[T any](v T) *T { return &v }

// RecoveryCases enumerates the whole table. Kill points, shape changes
// and chaos classes each span modes × transports × workloads, with a
// priority-1 diagonal that still touches every value of every axis;
// chaos runs over TCP only, since in-process channels cannot fault.
// The second failures and the composed faults are listed by hand.
func RecoveryCases() []RecoveryCase {
	var cases []RecoveryCase
	// grid appends workloads × modes × transports × n values of one
	// axis; set installs value i, and p1 marks the diagonal from the
	// (workload, mode, transport) group index g.
	grid := func(transports []string, n int, p1 func(g, i int) bool, set func(c *RecoveryCase, i int)) {
		g := 0
		for _, wl := range []string{"text", "graph"} {
			for _, mode := range []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel} {
				for _, tr := range transports {
					for i := 0; i < n; i++ {
						c := RecoveryCase{Priority: 2, Workload: wl, Mode: mode, Transport: tr}
						if p1(g, i) {
							c.Priority = 1
						}
						set(&c, i)
						cases = append(cases, c)
					}
					g++
				}
			}
		}
	}
	stride := func(n int) func(g, i int) bool { return func(g, i int) bool { return i == g%n } }
	grid([]string{"sim", "tcp"}, 5, stride(5), func(c *RecoveryCase, i int) { c.Kill = ptr(FaultPoint(i)) })
	grid([]string{"sim", "tcp"}, 3, stride(3), func(c *RecoveryCase, i int) { c.Shape = ptr(ShapeChange(i)) })
	// Two chaos classes per group, offsets 0 and 4 from the group index,
	// so six groups cover all eight classes.
	grid([]string{"tcp"}, 8, func(g, i int) bool { d := ((i-g)%8 + 8) % 8; return d == 0 || d == 4 },
		func(c *RecoveryCase, i int) { c.Chaos = ptr(ChaosClass(i)) })

	for _, c := range []RecoveryCase{
		// Second failures, after a first kill at compute: the
		// resume-offer point retries at the full shape, the others
		// continue as the two survivors. The points are
		// workload-agnostic; the verdict is about the failure detector,
		// which the in-process transport does not model.
		{Priority: 1, Workload: "text", Mode: gluon.RepModelOpt, Kill: ptr(FaultAtCompute), Second: ptr(SecondFaultResumeOffer)},
		{Priority: 1, Workload: "text", Mode: gluon.RepModelOpt, Shape: ptr(ShapeDepart), Second: ptr(SecondFaultMembershipOffer)},
		{Priority: 1, Workload: "text", Mode: gluon.RepModelOpt, Shape: ptr(ShapeDepart), Second: ptr(SecondFaultTransfer)},
		// Composed faults: membership negotiation and range transfer
		// over a lossy link, and a kill while the session layer heals.
		// A kill under healing costs a heal budget: the survivors take
		// the dead rank for a partition until the budget runs out.
		{Priority: 1, Workload: "text", Mode: gluon.RepModelOpt, Shape: ptr(ShapeGrow), Chaos: ptr(ChaosDrop)},
		{Priority: 2, Workload: "graph", Mode: gluon.PullModel, Shape: ptr(ShapeDepart), Chaos: ptr(ChaosCorrupt)},
		{Priority: 2, Workload: "text", Mode: gluon.RepModelNaive, Kill: ptr(FaultMidDecode), Chaos: ptr(ChaosReset)},
	} {
		c.Transport = "tcp"
		cases = append(cases, c)
	}
	return cases
}
