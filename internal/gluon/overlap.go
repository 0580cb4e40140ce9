package gluon

import (
	"fmt"
	"sync"
	"sync/atomic"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/model"
)

// Compute/sync overlap (DESIGN.md §12, PROTOCOL.md §11). Every
// synchronisation round runs the same way: SyncStart stages it on the
// caller's goroutine and runs its body on a background goroutine, and
// SyncFinish joins it. A serialized round calls the two back to back;
// an overlapped one starts the *next* round's compute in between,
// blocking per model row on the SyncProgress events below until the row
// is final:
//
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
// models bit-identical to serialized ones. The wire bytes of a round do
// not depend on what runs between start and finish, so overlap can
// differ across a cluster (it is a per-host performance choice,
// excluded from the config checksum).

// SyncProgress publishes one in-flight round's completion events. The
// zero value is usable after init(); reads are snapshot-based so the
// per-node fast path is one atomic load.
type SyncProgress struct {
	mu   sync.Mutex
	cond sync.Cond
	ver  atomic.Uint32 // bumped on every event; snapshot validity token

	ownFinal  bool
	done      bool
	installed *bitset.Bitset // bit g: host g's broadcast installed
}

// ProgressSnapshot is a consistent copy of the event flags, valid as
// long as Version() still returns the value Snapshot reported.
type ProgressSnapshot struct {
	OwnFinal bool
	Done     bool
	// installed is the broadcast-installed host set, sized to the
	// cluster on the first Snapshot and refilled in place after that.
	installed *bitset.Bitset
}

// InstalledHost reports whether host g's broadcast has been installed.
func (s *ProgressSnapshot) InstalledHost(g int) bool { return s.installed.Get(g) }

// init readies the tracker for a cluster of n hosts.
func (pr *SyncProgress) init(n int) {
	pr.cond.L = &pr.mu
	pr.installed = bitset.New(n)
}

// resetRound clears the events for a new round.
func (pr *SyncProgress) resetRound() {
	pr.mu.Lock()
	pr.ownFinal, pr.done = false, false
	pr.installed.Reset()
	pr.bump()
}

// Version returns the current event-state token (one atomic load).
func (pr *SyncProgress) Version() uint32 { return pr.ver.Load() }

// Snapshot copies the event flags into s and returns the matching
// version token. Only the first call on a given s allocates.
func (pr *SyncProgress) Snapshot(s *ProgressSnapshot) uint32 {
	if s.installed == nil {
		s.installed = bitset.New(pr.installed.Len())
	}
	pr.mu.Lock()
	s.OwnFinal, s.Done = pr.ownFinal, pr.done
	s.installed.CopyFrom(pr.installed)
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

func (pr *SyncProgress) postOwnFinal() {
	pr.mu.Lock()
	pr.ownFinal = true
	pr.bump()
}

func (pr *SyncProgress) postInstalled(g int) {
	pr.mu.Lock()
	pr.installed.Set(g)
	pr.bump()
}

func (pr *SyncProgress) postDone() {
	pr.mu.Lock()
	pr.done = true
	pr.bump()
}

// Progress returns the event tracker for the in-flight round. The
// pointer is stable across rounds; resetRound invalidates snapshots by
// bumping the version.
func (hs *HostSync) Progress() *SyncProgress { return &hs.progress }

// SyncStart begins synchronisation round `round` (Algorithm 1 line
// 10). local is this host's working replica, base the replica state as
// of the previous synchronisation; touched is the set of nodes this
// host's compute phase wrote. For PullModel, nextAccess must hold the
// node set the *next* compute round will access (from the inspection
// phase); other modes ignore it.
//
// The progress events are reset here, on the caller's goroutine, so a
// gate that snapshots them after SyncStart returns never sees the last
// round's done. The round body then runs in the background until
// SyncFinish; meanwhile the caller may touch only rows the Progress
// events declare final (sgns.NodeGate is the enforcement seam). Rounds
// must not nest, nor overlap Barrier/GatherMasters/NegotiateMembership.
func (hs *HostSync) SyncStart(round uint32, local, base *model.Model, touched *bitset.Bitset, nextAccess *bitset.Bitset) error {
	if hs.inFlight {
		return fmt.Errorf("gluon: SyncStart while round %d is in flight", hs.curRound)
	}
	if err := hs.prepRound(round, local, base, touched, nextAccess); err != nil {
		return err
	}
	hs.inFlight = true
	go hs.goRound()
	return nil
}

// SyncFinish joins the round SyncStart launched and returns its error.
// On return the round is fully applied: local == base for every node
// this host received an update for, the canonical (master) values
// incorporate every host's deltas via the reduction operator, and all
// buffers are reusable.
func (hs *HostSync) SyncFinish() error {
	if !hs.inFlight {
		return fmt.Errorf("gluon: SyncFinish without SyncStart")
	}
	err := <-hs.roundCh
	hs.inFlight = false
	return err
}
