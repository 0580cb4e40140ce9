package gluon

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Deterministic fault injection below the session layer. A ChaosPlan on
// TCPOptions wraps every post-handshake connection in a chaosConn that
// mutates whole frames at the Write boundary — drops, duplicates,
// reorders, bit flips, artificial delays, connection resets, one-way
// blackhole windows and a "reset storm" that outlasts any healing
// budget. The schedule is a pure function of (plan seed, sender,
// receiver, frame ordinal): per-direction state persists across
// reconnects, so a healed session replays into the SAME fault stream
// it broke under, and two runs of one plan inject identically.
//
// Chaos is meant for healing ranks (SessionOptions.Heal). Every
// connection speaks the session framing, so a chaosConn works under
// any policy, but a rank that does not heal answers the first injected
// fault with the heal-off verdict (ErrPeerLost, or poisoning with the
// framing error for a corrupted frame) — which is what the plan's
// faults are there to avoid.

// ChaosPlan is a seeded fault schedule. Every "Every" field counts
// frames written in one direction; 0 disables that fault class. At
// most one fault fires per frame (storm > blackhole > reset > corrupt
// > reorder > dup > drop > delay).
type ChaosPlan struct {
	// Seed fans out per direction (mixed with sender and receiver
	// ids), so each of the n·(n-1) directed links sees a distinct but
	// reproducible schedule.
	Seed uint64
	// DropEvery swallows every Nth frame (the write reports success).
	DropEvery int
	// DupEvery writes every Nth frame twice.
	DupEvery int
	// ReorderEvery holds every Nth frame back and emits it after the
	// following frame (a one-frame reordering window).
	ReorderEvery int
	// CorruptEvery flips one random bit in every Nth frame.
	CorruptEvery int
	// DelayEvery stalls every Nth frame by Delay before writing it —
	// a slow link; set Delay past the read deadline to force a heal.
	DelayEvery int
	Delay      time.Duration
	// ResetEvery closes the connection mid-write on every Nth frame.
	ResetEvery int
	// BlackholeAfter/BlackholeFrames open a one-shot one-way partition:
	// frames (BlackholeAfter, BlackholeAfter+BlackholeFrames] in this
	// direction are swallowed; the reverse direction keeps flowing.
	BlackholeAfter  int
	BlackholeFrames int
	// StormRound, when nonzero, starts a permanent reset storm the
	// first time a reduce frame for that round (or later) is written:
	// every subsequent write resets the connection, so every heal
	// attempt fails until the budget degrades the run into the
	// ErrPeerLost → checkpoint-resume path.
	StormRound uint32
}

// errChaosReset is the write error a chaos-injected connection reset
// surfaces; the session layer treats it like any transport fault.
var errChaosReset = errors.New("gluon: chaos-injected connection reset")

// chaosState is the per-direction injection state. It lives on the
// transport (not the connection), surviving reconnects.
type chaosState struct {
	mu         sync.Mutex
	plan       ChaosPlan
	rng        *rand.Rand
	frames     int    // frames written in this direction, all time
	held       []byte // frame held back by an in-flight reorder
	storm      bool   // reset storm triggered
	injections int
}

func newChaosState(plan ChaosPlan, from, to int) *chaosState {
	seed := plan.Seed ^ 0x9e3779b97f4a7c15
	seed = (seed ^ uint64(from+1)*0xbf58476d1ce4e5b9) * 0x94d049bb133111eb
	seed = (seed ^ uint64(to+1)*0xbf58476d1ce4e5b9) * 0x94d049bb133111eb
	return &chaosState{plan: plan, rng: rand.New(rand.NewSource(int64(seed)))}
}

// chaosAction is what the scheduler decided for one frame.
type chaosAction int

const (
	chaosPass chaosAction = iota
	chaosDrop
	chaosDup
	chaosReorderHold
	chaosCorrupt
	chaosDelay
	chaosReset
)

// next classifies one outgoing frame. Caller is chaosConn.Write, which
// passes the embedded wire payload so the storm trigger can key off
// the round number (ensuring checkpoints exist before the escalation).
func (st *chaosState) next(wirePayload []byte) (chaosAction, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.frames++
	n := st.frames
	p := st.plan
	if p.StormRound > 0 && !st.storm && len(wirePayload) >= headerBytes {
		if kind, round := InspectFrame(wirePayload); kind == kindReduce && round >= p.StormRound {
			st.storm = true
		}
	}
	switch {
	case st.storm:
		st.injections++
		return chaosReset, 0
	case p.BlackholeFrames > 0 && n > p.BlackholeAfter && n <= p.BlackholeAfter+p.BlackholeFrames:
		st.injections++
		return chaosDrop, 0
	case p.ResetEvery > 0 && n%p.ResetEvery == 0:
		st.injections++
		return chaosReset, 0
	case p.CorruptEvery > 0 && n%p.CorruptEvery == 0:
		st.injections++
		return chaosCorrupt, st.rng.Intn(1 << 30)
	case p.ReorderEvery > 0 && n%p.ReorderEvery == 0:
		st.injections++
		return chaosReorderHold, 0
	case p.DupEvery > 0 && n%p.DupEvery == 0:
		st.injections++
		return chaosDup, 0
	case p.DropEvery > 0 && n%p.DropEvery == 0:
		st.injections++
		return chaosDrop, 0
	case p.DelayEvery > 0 && n%p.DelayEvery == 0:
		st.injections++
		return chaosDelay, 0
	}
	return chaosPass, 0
}

// chaosConn wraps one connection generation of a session, applying the
// direction's fault schedule at the Write boundary. Every Write call
// carries exactly one complete session frame (the transport serialises
// writes per peer and frames into a single buffer), so frame-level
// faults need no reframing.
type chaosConn struct {
	net.Conn
	st *chaosState
}

func (c *chaosConn) Write(p []byte) (int, error) {
	var wire []byte
	if len(p) > 8+sessionHeaderBytes {
		wire = p[8+sessionHeaderBytes:]
	}
	action, arg := c.st.next(wire)

	// A held (reordered) frame is emitted after the current frame,
	// whatever happens to the current one.
	c.st.mu.Lock()
	held := c.st.held
	if action != chaosReorderHold {
		c.st.held = nil
	}
	c.st.mu.Unlock()
	flushHeld := func() error {
		if held == nil || action == chaosReorderHold {
			return nil
		}
		_, err := c.Conn.Write(held)
		return err
	}

	switch action {
	case chaosDrop:
		if err := flushHeld(); err != nil {
			return 0, err
		}
		return len(p), nil
	case chaosDup:
		if _, err := c.Conn.Write(p); err != nil {
			return 0, err
		}
		if err := flushHeld(); err != nil {
			return 0, err
		}
		n, err := c.Conn.Write(p)
		if err != nil {
			return n, err
		}
		return len(p), nil
	case chaosReorderHold:
		cp := append([]byte(nil), p...)
		c.st.mu.Lock()
		prev := c.st.held
		c.st.held = cp
		c.st.mu.Unlock()
		if prev != nil {
			// A second hold before the first flushed: emit the older one
			// now rather than leak it.
			if _, err := c.Conn.Write(prev); err != nil {
				return 0, err
			}
		}
		return len(p), nil
	case chaosCorrupt:
		cp := append([]byte(nil), p...)
		// Flip one bit past the framing header so length stays sane and
		// the receiver sees a CRC failure rather than a desync.
		if len(cp) > 8 {
			bit := arg % ((len(cp) - 8) * 8)
			cp[8+bit/8] ^= 1 << (bit % 8)
		}
		n, err := c.Conn.Write(cp)
		if err != nil {
			return n, err
		}
		if err := flushHeld(); err != nil {
			return 0, err
		}
		return len(p), nil
	case chaosDelay:
		time.Sleep(c.st.plan.Delay)
	case chaosReset:
		if len(p) > 8 {
			c.Conn.Write(p[:len(p)/2]) // tear mid-frame
		}
		c.Conn.Close()
		return 0, errChaosReset
	}

	n, err := c.Conn.Write(p)
	if err != nil {
		return n, err
	}
	if err := flushHeld(); err != nil {
		return 0, err
	}
	return len(p), nil
}

// ChaosInjections reports how many faults this transport's chaos
// wrapper has injected across all directions (0 without a plan).
func (t *TCPTransport) ChaosInjections() int {
	total := 0
	for _, st := range t.chaos {
		if st == nil {
			continue
		}
		st.mu.Lock()
		total += st.injections
		st.mu.Unlock()
	}
	return total
}
