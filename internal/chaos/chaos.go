// Package chaos is a deterministic fault injector for gluon's TCP
// session layer. An Injector's Wrap method is a gluon.TCPOptions.WrapConn
// hook: it wraps every connection a transport installs in a conn that
// mutates whole session frames at the Write boundary — drops,
// duplicates, reorders, bit flips, artificial delays, connection
// resets, one-way blackhole windows and a "reset storm" that outlasts
// any healing budget. The schedule is a pure function of (plan seed,
// sender, receiver, frame ordinal): per-direction state lives on the
// Injector, keyed by (host, peer), so a healed session replays into the
// SAME fault stream it broke under, and two runs of one plan inject
// identically.
//
// Chaos is meant for healing ranks (gluon.SessionOptions.Heal). A rank
// that does not heal answers the first injected fault with the
// heal-off verdict (ErrPeerLost, or poisoning with the framing error
// for a corrupted frame) — which is what the plan's faults are there
// to avoid.
package chaos

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"graphword2vec/internal/gluon"
)

// Plan is a seeded fault schedule. Every "Every" field counts frames
// written in one direction; 0 disables that fault class. At most one
// fault fires per frame (storm > blackhole > reset > corrupt > reorder
// > dup > drop > delay).
type Plan struct {
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

// errReset is the write error an injected connection reset surfaces;
// the session layer treats it like any transport fault.
var errReset = errors.New("chaos: injected connection reset")

// Injector applies one Plan to every connection it wraps. One Injector
// serves a whole cluster: its state is per directed link, not per
// transport or connection.
type Injector struct {
	plan Plan

	mu   sync.Mutex
	dirs map[[2]int]*direction
}

// New returns an Injector for plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan, dirs: make(map[[2]int]*direction)}
}

// Wrap is a gluon.TCPOptions.WrapConn hook: it applies the schedule of
// the host → peer direction to the writes on c.
func (in *Injector) Wrap(host, peer int, c net.Conn) net.Conn {
	in.mu.Lock()
	d := in.dirs[[2]int{host, peer}]
	if d == nil {
		d = newDirection(in.plan, host, peer)
		in.dirs[[2]int{host, peer}] = d
	}
	in.mu.Unlock()
	return &conn{Conn: c, d: d}
}

// Injections reports how many faults the Injector has fired across all
// directions.
func (in *Injector) Injections() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	total := 0
	for _, d := range in.dirs {
		d.mu.Lock()
		total += d.injections
		d.mu.Unlock()
	}
	return total
}

// direction is the injection state of one directed link. It outlives
// the link's connections.
type direction struct {
	mu         sync.Mutex
	plan       Plan
	rng        *rand.Rand
	frames     int    // frames written in this direction, all time
	held       []byte // frame held back by an in-flight reorder
	storm      bool   // reset storm triggered
	injections int
}

func newDirection(plan Plan, from, to int) *direction {
	seed := plan.Seed ^ 0x9e3779b97f4a7c15
	seed = (seed ^ uint64(from+1)*0xbf58476d1ce4e5b9) * 0x94d049bb133111eb
	seed = (seed ^ uint64(to+1)*0xbf58476d1ce4e5b9) * 0x94d049bb133111eb
	return &direction{plan: plan, rng: rand.New(rand.NewSource(int64(seed)))}
}

// action is what the scheduler decided for one frame.
type action int

const (
	pass action = iota
	drop
	dup
	reorderHold
	corrupt
	delay
	reset
)

// next classifies one outgoing frame. Caller is conn.Write, which
// passes the frame's wire payload so the storm trigger can key off the
// round number (ensuring checkpoints exist before the escalation).
func (d *direction) next(wire []byte) (action, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frames++
	n := d.frames
	p := d.plan
	if p.StormRound > 0 && !d.storm {
		if kind, round := gluon.InspectFrame(wire); kind == gluon.FrameReduce && round >= p.StormRound {
			d.storm = true
		}
	}
	act, arg := pass, 0
	switch {
	case d.storm:
		act = reset
	case p.BlackholeFrames > 0 && n > p.BlackholeAfter && n <= p.BlackholeAfter+p.BlackholeFrames:
		act = drop
	case p.ResetEvery > 0 && n%p.ResetEvery == 0:
		act = reset
	case p.CorruptEvery > 0 && n%p.CorruptEvery == 0:
		act, arg = corrupt, d.rng.Intn(1<<30)
	case p.ReorderEvery > 0 && n%p.ReorderEvery == 0:
		act = reorderHold
	case p.DupEvery > 0 && n%p.DupEvery == 0:
		act = dup
	case p.DropEvery > 0 && n%p.DropEvery == 0:
		act = drop
	case p.DelayEvery > 0 && n%p.DelayEvery == 0:
		act = delay
	}
	if act != pass {
		d.injections++
	}
	return act, arg
}

// conn wraps one connection generation of a session, applying its
// direction's fault schedule at the Write boundary. Every Write call
// carries exactly one complete session frame (gluon.TCPOptions.WrapConn),
// so frame-level faults need no reframing.
type conn struct {
	net.Conn
	d *direction
}

func (c *conn) Write(p []byte) (int, error) {
	prefix, wire := gluon.SessionFrameWire(p)
	act, arg := c.d.next(wire)

	// A held (reordered) frame is emitted after the current frame,
	// whatever happens to the current one; a new hold emits the older
	// one at once rather than leak it.
	c.d.mu.Lock()
	held := c.d.held
	c.d.held = nil
	if act == reorderHold {
		c.d.held = append([]byte(nil), p...)
	}
	c.d.mu.Unlock()

	out := [][]byte{p, held}
	switch act {
	case drop, reorderHold:
		out = [][]byte{held}
	case dup:
		out = [][]byte{p, held, p}
	case corrupt:
		// Flip one bit past the framing prefix so the length stays sane
		// and the receiver sees a CRC failure rather than a desync.
		cp := append([]byte(nil), p...)
		if len(cp) > prefix {
			bit := arg % ((len(cp) - prefix) * 8)
			cp[prefix+bit/8] ^= 1 << (bit % 8)
		}
		out[0] = cp
	case delay:
		time.Sleep(c.d.plan.Delay)
	case reset:
		if len(p) > prefix {
			c.Conn.Write(p[:len(p)/2]) // tear mid-frame
		}
		c.Conn.Close()
		return 0, errReset
	}
	for _, f := range out {
		if f == nil {
			continue
		}
		if _, err := c.Conn.Write(f); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}
