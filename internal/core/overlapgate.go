package core

import (
	"time"

	"graphword2vec/internal/gluon"
	"graphword2vec/internal/graph"
)

// overlapGate implements sgns.NodeGate over gluon.SyncProgress: during
// an overlapped round, a compute thread may only touch a model row once
// the in-flight synchronisation can no longer read or write it. One gate
// per compute thread (the snapshot cache and blocked-time counter are
// thread-local); reset every overlapped round.
//
// The admission rules, by master range:
//
//   - done: the round is over, everything is final.
//   - own master range: final after ownFinal (fold applied, broadcast
//     encode done reading the rows).
//   - peer g's master range: final after installed(g) — which also
//     implies g received our reduce frame, i.e. our encoder is done
//     reading the mirror rows it covers (FIFO per pair: g only
//     broadcasts after folding every peer's reduce, ours included).
//
// All events are monotone within a round, so the cached snapshot can
// only over-block; WaitNode refreshes it before actually sleeping.
type overlapGate struct {
	prog *gluon.SyncProgress
	part *graph.Partition
	host int

	snap    gluon.ProgressSnapshot
	ver     uint32
	blocked time.Duration
}

func newOverlapGate(e *Engine) *overlapGate {
	return &overlapGate{
		prog: e.sync.Progress(),
		part: e.part,
		host: e.host,
	}
}

// resetRound clears the per-round state and primes the snapshot cache.
func (g *overlapGate) resetRound() {
	g.blocked = 0
	g.ver = g.prog.Snapshot(&g.snap)
}

// allowed evaluates the admission rules against the cached snapshot.
func (g *overlapGate) allowed(n int32) bool {
	if g.snap.Done {
		return true
	}
	owner := g.part.MasterOf(int(n))
	if owner == g.host {
		return g.snap.OwnFinal
	}
	return g.snap.InstalledHost(owner)
}

// WaitNode blocks until node n's rows are final, accumulating the time
// spent blocked (the overlap window's critical-path remainder). The
// fast path — an already-admitted node under the cached snapshot — is
// branch work only, no atomics.
func (g *overlapGate) WaitNode(n int32) {
	if g.allowed(n) {
		return
	}
	start := time.Now()
	for {
		g.ver = g.prog.Snapshot(&g.snap)
		if g.allowed(n) {
			break
		}
		g.prog.WaitChange(g.ver)
	}
	g.blocked += time.Since(start)
}
