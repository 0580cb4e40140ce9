package gluon

import (
	"fmt"
	"sync"
	"sync/atomic"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/model"
)

// Compute/sync overlap (DESIGN.md §12, PROTOCOL.md §11). SyncStart runs
// one synchronisation round on a background goroutine — the exact same
// round body Sync executes, so the deterministic host-ordered fold and
// every wire byte are unchanged — and SyncFinish joins it. In between,
// the caller may start the *next* round's compute, blocking per model
// row on the SyncProgress events below until the row is final:
//
//	annDone       every peer's touched announcement merged into the
//	              union touched set (RepModel-Opt only): a node NO host
//	              touched this round will not be read or written by the
//	              in-flight sync at all, so compute may use it at once.
//	ownFinal      our own master range is canonical (fold applied) and
//	              the broadcast encode is done reading it.
//	installed(g)  peer g's broadcast was decoded and installed, so g's
//	              whole master range is final.
//	done          the round is over; everything is final.
//
// The events are monotone within a round, so a stale snapshot can only
// over-block, never under-block — and blocking is the only thing a
// reader may do with them: compute order (and with it the RNG stream)
// must not depend on arrival order, which is what keeps overlapped
// models bit-identical to serialized ones.
//
// Touched announcements ride a new frame kind (kindTouched) that hosts
// running without overlap simply discard, so the flag can differ across
// a cluster (it is checksum-excluded, like SyncWorkers): gating then
// degrades from per-node to range-level but stays correct, because
// annDone just never fires.

// SyncProgress publishes one in-flight round's completion events. The
// zero value is usable after init(); reads are snapshot-based so the
// per-node fast path is one atomic load.
type SyncProgress struct {
	mu   sync.Mutex
	cond sync.Cond
	ver  atomic.Uint32 // bumped on every event; snapshot validity token

	annDone   bool
	ownFinal  bool
	done      bool
	installed uint64 // bit g: host g's broadcast installed
}

// ProgressSnapshot is a consistent copy of the event flags, valid as
// long as Version() still returns the value Snapshot reported.
type ProgressSnapshot struct {
	AnnDone  bool
	OwnFinal bool
	Done     bool
	// Installed is the broadcast-installed host mask (bit g = host g);
	// the uint64 width is why overlap is capped at 64 hosts.
	Installed uint64
}

// InstalledHost reports whether host g's broadcast has been installed.
func (s *ProgressSnapshot) InstalledHost(g int) bool { return s.Installed&(1<<uint(g)) != 0 }

func (pr *SyncProgress) init() { pr.cond.L = &pr.mu }

// resetRound clears the events for a new overlapped round.
func (pr *SyncProgress) resetRound() {
	pr.mu.Lock()
	pr.annDone, pr.ownFinal, pr.done = false, false, false
	pr.installed = 0
	pr.bump()
}

// Version returns the current event-state token (one atomic load).
func (pr *SyncProgress) Version() uint32 { return pr.ver.Load() }

// Snapshot copies the event flags into s and returns the matching
// version token.
func (pr *SyncProgress) Snapshot(s *ProgressSnapshot) uint32 {
	pr.mu.Lock()
	s.AnnDone, s.OwnFinal, s.Done = pr.annDone, pr.ownFinal, pr.done
	s.Installed = pr.installed
	v := pr.ver.Load()
	pr.mu.Unlock()
	return v
}

// WaitChange blocks until the event state moves past the seen version.
// Every round ends with a done post, so the wait always terminates.
func (pr *SyncProgress) WaitChange(seen uint32) {
	pr.mu.Lock()
	for pr.ver.Load() == seen {
		pr.cond.Wait()
	}
	pr.mu.Unlock()
}

// bump publishes a mutation made under mu and releases the lock.
func (pr *SyncProgress) bump() {
	pr.ver.Add(1)
	pr.cond.Broadcast()
	pr.mu.Unlock()
}

func (pr *SyncProgress) postAnnDone() {
	pr.mu.Lock()
	pr.annDone = true
	pr.bump()
}

func (pr *SyncProgress) postOwnFinal() {
	pr.mu.Lock()
	pr.ownFinal = true
	pr.bump()
}

func (pr *SyncProgress) postInstalled(g int) {
	pr.mu.Lock()
	pr.installed |= 1 << uint(g)
	pr.bump()
}

func (pr *SyncProgress) postDone() {
	pr.mu.Lock()
	pr.done = true
	pr.bump()
}

// OverlapHostCap bounds the cluster size overlap supports: the
// installed mask is a uint64.
const OverlapHostCap = 64

// ErrOverlapHostCap refuses overlapped rounds on a cluster wider than
// OverlapHostCap. core.Config.Validate reports it at configuration time,
// so no run silently falls back to serialized rounds.
var ErrOverlapHostCap = fmt.Errorf("gluon: sync overlap supports at most %d hosts", OverlapHostCap)

// SetSyncOverlap configures whether SyncStart/SyncFinish rounds
// announce and consume touched sets; clusters past OverlapHostCap are
// refused with ErrOverlapHostCap. Like SetSyncWorkers this is a
// per-host performance knob, excluded from the config checksum: hosts
// with it off just discard announcements, so mixed clusters
// interoperate — per-node gating on such a cluster degrades to
// range-level because the union touched set never completes.
func (hs *HostSync) SetSyncOverlap(on bool) error {
	if on && hs.part.NumHosts() > OverlapHostCap {
		return ErrOverlapHostCap
	}
	hs.overlapConfigured = on
	if on && hs.unionTouched == nil {
		hs.unionTouched = bitset.New(hs.part.NumNodes())
		hs.progress.init()
		hs.roundCh = make(chan error, 1)
		hs.goRound = func() { hs.roundCh <- hs.runRound() }
	}
	return nil
}

// SyncOverlap reports whether overlapped rounds are configured.
func (hs *HostSync) SyncOverlap() bool { return hs.overlapConfigured }

// Progress returns the event tracker for the in-flight round. The
// pointer is stable across rounds; resetRound invalidates snapshots by
// bumping the version.
func (hs *HostSync) Progress() *SyncProgress { return &hs.progress }

// UnionTouched returns the cluster-wide touched set of the in-flight
// overlapped round. Read it only after observing AnnDone in a snapshot
// (the snapshot's lock acquisition orders the reads after the merges);
// it is owned by the sync engine between SyncStart and SyncFinish.
func (hs *HostSync) UnionTouched() *bitset.Bitset { return hs.unionTouched }

// SyncStart begins an overlapped synchronisation round: the arguments
// and wire behaviour are exactly Sync's, but the round body runs on a
// background goroutine and SyncFinish reports its error. Between the
// two calls the caller owns neither local, base nor touched for the
// nodes the round covers — it may only access rows the Progress events
// have declared final (the caller enforces this; sgns.NodeGate is the
// enforcement seam). Requires SetSyncOverlap(true); rounds must not be
// nested, and Barrier/GatherMasters/NegotiateResume must not run while
// a round is in flight.
func (hs *HostSync) SyncStart(round uint32, local, base *model.Model, touched *bitset.Bitset, nextAccess *bitset.Bitset) error {
	if !hs.overlapConfigured {
		return fmt.Errorf("gluon: SyncStart without SetSyncOverlap(true)")
	}
	if hs.inFlight {
		return fmt.Errorf("gluon: SyncStart while round %d is in flight", hs.curRound)
	}
	if err := hs.prepRound(round, local, base, touched, nextAccess, true); err != nil {
		return err
	}
	hs.inFlight = true
	go hs.goRound()
	return nil
}

// SyncFinish joins the round SyncStart launched and returns its error.
// On return the round is fully applied: local == base for every updated
// node, masters are canonical, and all buffers are reusable.
func (hs *HostSync) SyncFinish() error {
	if !hs.inFlight {
		return fmt.Errorf("gluon: SyncFinish without SyncStart")
	}
	err := <-hs.roundCh
	hs.inFlight = false
	hs.overlapRound = false
	return err
}

// acceptTouched routes an incoming touched announcement: merge it when
// it belongs to the overlapped round in flight, buffer it when the
// sender raced ahead into a future round, and drop it otherwise (we run
// without overlap, or ran that round serialized — the union is unused
// there). Rounds are visited in order and prepRound drains this kind's
// pending key every round, so buffered frames never accumulate.
func (hs *HostSync) acceptTouched(from int, round uint32, payload []byte) error {
	if !hs.overlapConfigured {
		return nil
	}
	if hs.overlapRound && round == hs.curRound {
		return hs.mergeTouched(from, payload)
	}
	if round > hs.curRound {
		hs.pushPending(pendingKey{kind: kindTouched, round: round}, pendingMsg{from: from, payload: payload})
	}
	return nil
}

// mergeTouched ORs one peer's announced touched set into the round's
// union and posts annDone once every peer has reported.
func (hs *HostSync) mergeTouched(from int, payload []byte) error {
	p := &hs.peers[from]
	if p.gotTouched {
		return fmt.Errorf("gluon: duplicate touched announcement from host %d in round %d", from, hs.curRound)
	}
	p.gotTouched = true
	if err := parseAccessInto(payload, hs.unionTouched); err != nil {
		return err
	}
	hs.annRemaining--
	if hs.annRemaining == 0 {
		hs.progress.postAnnDone()
	}
	return nil
}
