package gluon

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	mrand "math/rand"
	"net"
	"sync"
	"time"
)

// Session layer: the one TCP framing (PROTOCOL.md §2, §12). Every data
// frame carries a per-peer-pair sequence number, an acknowledgement of
// the highest frame received from that peer, and a CRC32 over header
// and payload; a healing rank retains every sent frame in a bounded
// retransmit buffer until the peer acknowledges it. One long-lived
// reader per peer reads whichever connection is installed.
//
// SessionOptions.Heal sets what a rank does when a connection breaks —
// a reset, a read/write deadline expiry, a corrupt or out-of-order
// frame. With Heal the session tears the connection down and heals in
// place: the lower rank redials the higher rank's persistent resume
// listener with jittered exponential backoff, the two sides exchange a
// resume hello ("GW2VSESS") carrying their session tokens and
// last-received sequence numbers, and the unacknowledged tail of the
// retransmit buffer is replayed. Receivers discard duplicates
// (seq <= lastRecv) and treat gaps (seq > lastRecv+1) as a new break,
// so delivery stays exactly-once and in order — the sync engine above
// never observes the fault. Without Heal nothing is redialed: a
// malformed frame poisons the transport with its framing error, a
// deadline expiry or failed write is ErrPeerLost at once, and a dropped
// connection is ErrPeerLost unless the transport closes within
// HealBudget (a clean shutdown).
//
// Faults that outlast SessionOptions.HealBudget (measured from the
// FIRST break, so a storm of failed re-heals cannot reset the clock)
// degrade into the escalation ladder: the peer is declared lost and
// the transport poisoned with ErrPeerLost, handing control to the
// checkpoint-resume and elastic-membership paths (PROTOCOL.md §12,
// DESIGN.md §13).
//
// Session frame, all little-endian:
//
//	bytes 0–3   sender id (uint32)
//	bytes 4–7   length L of the rest (uint32)
//	bytes 8–15  sequence number (uint64; 0 = unsequenced control —
//	            only heartbeats, which carry acks between data frames)
//	bytes 16–23 ack: highest sequence received from the destination
//	bytes 24–27 CRC32 (IEEE) over the seq+ack bytes and the payload
//	bytes 28–   wire payload (wire.go)
//
// Resume hello, all little-endian: magic "GW2VSESS" (8 bytes),
// version (uint32, = meshVersion), sender rank (uint32), session
// token (uint64), lastRecv (uint64). See PROTOCOL.md §12.

// SessionOptions sets one rank's reaction to a broken connection. The
// framing does not depend on it, so ranks of one mesh may disagree.
// The zero value does not heal: a break escalates as described above,
// with a dropped connection allowed the default 5s budget.
type SessionOptions struct {
	// Heal redials a broken connection and replays unacknowledged
	// frames instead of escalating.
	Heal bool
	// HealBudget bounds how long one outage may last — measured from
	// the first break of the connection, across every redial attempt —
	// before the peer is declared lost (ErrPeerLost). Without Heal it
	// is how long a dropped connection may linger before the peer is
	// declared lost; a clean shutdown closes the transport well inside
	// it. Zero means 10s with Heal and 5s without.
	HealBudget time.Duration
	// RetransmitLimit bounds a healing rank's per-peer retransmit
	// buffer in bytes. A peer that persistently fails to acknowledge
	// past this limit is declared lost immediately (it is either dead
	// or unrecoverably slow, and buffering more would only defer the
	// verdict while consuming memory). A single frame into an empty
	// buffer is always accepted. A rank without Heal keeps no buffer,
	// since nothing would replay it. Zero means 256 MiB.
	RetransmitLimit int
	// RedialMin / RedialMax bound the jittered exponential backoff
	// between reconnect attempts. Zero means 10ms / 500ms.
	RedialMin time.Duration
	RedialMax time.Duration
}

const (
	sessionMagic = "GW2VSESS"
	// sessionHelloBytes is the encoded resume-hello size.
	sessionHelloBytes = len(sessionMagic) + 4 + 4 + 8 + 8
	// sessionHeaderBytes is the per-frame session header (seq, ack, crc)
	// between the framing prefix and every payload.
	sessionHeaderBytes = 8 + 8 + 4
)

// withDefaults fills the zero fields with their documented defaults.
func (o SessionOptions) withDefaults() SessionOptions {
	if o.HealBudget <= 0 {
		o.HealBudget = 5 * time.Second
		if o.Heal {
			o.HealBudget = 10 * time.Second
		}
	}
	if o.RetransmitLimit <= 0 {
		o.RetransmitLimit = 256 << 20
	}
	if o.RedialMin <= 0 {
		o.RedialMin = 10 * time.Millisecond
	}
	if o.RedialMax <= 0 {
		o.RedialMax = 500 * time.Millisecond
	}
	return o
}

// SessionStats aggregates healing activity across all peers of one
// transport, for harness assertions and operator visibility.
type SessionStats struct {
	// Heals counts successful connection re-establishments (a bootstrap
	// connection install does not count).
	Heals int
	// Replayed counts frames retransmitted from the stash after heals.
	Replayed int
	// Dups counts received frames discarded as duplicates.
	Dups int
}

// sessionFrame is one unacknowledged payload in the retransmit stash.
type sessionFrame struct {
	seq     uint64
	payload []byte
}

// peerSession is the per-peer healing state. One long-lived reader
// goroutine per peer (sessionReadLoop) reads whichever connection is
// installed; writers block on cond until ready. The generation counter
// distinguishes the current connection from retired ones, so a stale
// break report (from a writer and the reader racing on the same dead
// connection) is applied at most once.
type peerSession struct {
	mu   sync.Mutex
	cond *sync.Cond

	conn net.Conn // nil while broken/healing
	gen  int      // bumped on every break and retirement
	// ready gates writers: the connection is installed AND the replay
	// of unacked frames has completed. Between install and ready the
	// healer is the connection's sole writer.
	ready bool
	// brokenSince is set at the first break of an outage and cleared
	// only when a heal fully completes (ready again), so the healing
	// budget spans consecutive failed re-heals.
	brokenSince time.Time

	nextSeq  uint64 // next sequence number to assign (starts at 1)
	lastRecv uint64 // highest in-order sequence received from the peer

	stash      []sessionFrame // unacked frames, ascending seq
	stashBytes int

	// Ack-stall detection (see sessionStallCheck): the oldest unacked
	// seq and since when it has been stuck at the head of the stash.
	stallSeq   uint64
	stallSince time.Time

	heals    int
	replayed int
	dups     int
}

func newPeerSession() *peerSession {
	ps := &peerSession{gen: 1, nextSeq: 1}
	ps.cond = sync.NewCond(&ps.mu)
	return ps
}

// evictAckedLocked drops stash entries with seq <= ack. Caller holds
// ps.mu.
func (ps *peerSession) evictAckedLocked(ack uint64) {
	i := 0
	for i < len(ps.stash) && ps.stash[i].seq <= ack {
		ps.stashBytes -= len(ps.stash[i].payload)
		ps.stash[i] = sessionFrame{}
		i++
	}
	if i > 0 {
		ps.stash = append(ps.stash[:0], ps.stash[i:]...)
	}
}

// sessionFrameAppend appends a complete session frame — framing
// prefix, session header, payload — to dst and returns the extended
// slice. The CRC covers the seq+ack bytes and the payload (not the
// sender/length prefix, which the receiver validates structurally),
// and is recomputed on every write because the ack varies on replay.
func sessionFrameAppend(dst []byte, sender int, seq, ack uint64, payload []byte) []byte {
	need := 8 + sessionHeaderBytes + len(payload)
	start := len(dst)
	if cap(dst)-start < need {
		grown := make([]byte, start, start+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+need]
	frame := dst[start:]
	binary.LittleEndian.PutUint32(frame, uint32(sender))
	binary.LittleEndian.PutUint32(frame[4:], uint32(sessionHeaderBytes+len(payload)))
	binary.LittleEndian.PutUint64(frame[8:], seq)
	binary.LittleEndian.PutUint64(frame[16:], ack)
	copy(frame[28:], payload)
	crc := crc32.ChecksumIEEE(frame[8:24])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(frame[24:], crc)
	return dst
}

// frameError is a malformed session frame: a sender mismatch, a short
// or oversized length, a CRC mismatch, unsequenced data or a sequence
// gap. A healing rank heals it like any break; any other rank poisons
// the transport with it — a protocol violation, not peer loss.
type frameError struct{ error }

func malformed(format string, args ...any) error {
	return frameError{fmt.Errorf(format, args...)}
}

// linkDrop wraps an I/O failure that may be a peer shutting down
// cleanly — a failed read or heartbeat write — rather than a hung or
// dead one; without healing it gets the budget before escalating.
type linkDrop struct{ error }

func (d linkDrop) Unwrap() error { return d.error }

// ioBreak classifies a failed read or heartbeat write: a deadline
// expiry means a hung peer and stays a plain error, anything else is a
// linkDrop.
func ioBreak(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return err
	}
	return linkDrop{err}
}

// parseFrameHeader decodes the 8-byte framing prefix of a session
// frame: the sender id and the length of the rest, which must hold a
// session header and at most maxFrameBytes of payload.
func parseFrameHeader(hdr []byte) (from int, length uint32, err error) {
	if len(hdr) < 8 {
		return 0, 0, malformed("gluon: session frame of %d bytes is shorter than its 8-byte prefix", len(hdr))
	}
	from = int(binary.LittleEndian.Uint32(hdr))
	length = binary.LittleEndian.Uint32(hdr[4:])
	if length < sessionHeaderBytes {
		return 0, 0, malformed("gluon: session frame of %d bytes from host %d below header size %d", length, from, sessionHeaderBytes)
	}
	if length-sessionHeaderBytes > maxFrameBytes {
		return 0, 0, malformed("gluon: session frame of %d bytes from host %d exceeds limit %d", length, from, maxFrameBytes)
	}
	return from, length, nil
}

// parseSessionFrame decodes one complete frame as sessionFrameAppend
// encodes it, checking its length against the prefix, its CRC, and
// that only heartbeats go unsequenced. payload aliases frame.
func parseSessionFrame(frame []byte) (from int, seq, ack uint64, payload []byte, err error) {
	from, length, err := parseFrameHeader(frame)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if want := 8 + uint64(length); uint64(len(frame)) != want {
		return 0, 0, 0, nil, malformed("gluon: session frame from host %d is %d bytes, its prefix says %d", from, len(frame), want)
	}
	seq = binary.LittleEndian.Uint64(frame[8:])
	ack = binary.LittleEndian.Uint64(frame[16:])
	crc := binary.LittleEndian.Uint32(frame[24:])
	payload = frame[8+sessionHeaderBytes:]
	sum := crc32.ChecksumIEEE(frame[8:24])
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	if sum != crc {
		return 0, 0, 0, nil, malformed("gluon: session frame seq %d from host %d fails CRC (%#x != %#x)", seq, from, sum, crc)
	}
	if seq == 0 && !isHeartbeat(payload) {
		return 0, 0, 0, nil, malformed("gluon: unsequenced non-heartbeat frame from host %d", from)
	}
	return from, seq, ack, payload, nil
}

// newSessionToken draws a random nonzero session token identifying one
// transport incarnation; a resume hello with the wrong token (e.g. from
// a restarted process trying to resume a session it never had) is
// rejected, pushing that peer onto the elastic re-form path instead.
func newSessionToken() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano()) | 1
	}
	tok := binary.LittleEndian.Uint64(b[:])
	if tok == 0 {
		tok = 1
	}
	return tok
}

// jitterBackoff returns the pause before retry `attempt` (0-based):
// exponential from lo capped at hi, with uniform jitter in [d/2, d] so
// a mass restart cannot thunder the same instant.
func jitterBackoff(attempt int, lo, hi time.Duration) time.Duration {
	if lo <= 0 {
		lo = time.Millisecond
	}
	if hi < lo {
		hi = lo
	}
	d := hi
	if attempt < 30 {
		if d = lo << uint(attempt); d <= 0 || d > hi {
			d = hi
		}
	}
	half := d / 2
	return half + time.Duration(mrand.Int63n(int64(half)+1))
}

// wrapConn applies the chaos-injection wrapper to a post-handshake
// connection when a ChaosPlan is configured. The chaos state is
// per-direction and persists across reconnects, so the injection
// schedule is deterministic over the run, not per connection.
func (t *TCPTransport) wrapConn(peer int, conn net.Conn) net.Conn {
	if t.chaos == nil || t.chaos[peer] == nil {
		return conn
	}
	return &chaosConn{Conn: conn, st: t.chaos[peer]}
}

// heartbeatLoop periodically writes an unsequenced (seq 0) heartbeat
// to every ready peer and runs the ack-stall check. Heartbeats carry
// the current ack, so acknowledgements flow even when there is no data
// to send, and keep peers with a read deadline from mistaking a long
// compute phase for a hang. TryLock keeps a heartbeat from queueing
// behind a large blocked send.
func (t *TCPTransport) heartbeatLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(t.opts.HeartbeatInterval)
	defer ticker.Stop()
	hb := heartbeatMessage()
	for {
		select {
		case <-t.done:
			return
		case <-ticker.C:
		}
		for g, ps := range t.sess {
			if ps == nil {
				continue
			}
			t.sessionStallCheck(g, ps)
			if !t.writeMu[g].TryLock() {
				continue
			}
			ps.mu.Lock()
			if !ps.ready {
				ps.mu.Unlock()
				t.writeMu[g].Unlock()
				continue
			}
			conn := ps.conn
			gen := ps.gen
			ack := ps.lastRecv
			ps.mu.Unlock()
			frame := sessionFrameAppend(t.sendBufs[g][:0], t.host, 0, ack, hb)
			t.sendBufs[g] = frame
			if t.opts.WriteTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
			}
			if _, err := conn.Write(frame); err != nil {
				t.sessionBroken(g, gen, ioBreak(fmt.Errorf("gluon: heartbeat to host %d: %w", g, err)))
			}
			t.writeMu[g].Unlock()
		}
	}
}

// sessionStallCheck detects a silently lost frame: if the head of the
// retransmit stash has not advanced for longer than the stall timeout
// while the connection looks healthy, the frame (or all acks since)
// vanished in flight — tear the connection so the heal's replay
// retransmits it. Without this, a dropped final frame of a round would
// hang both sides forever (heartbeats keep the read deadline fed, so
// no other detector fires). A rank that does not heal skips it: there
// is no replay to force, and the write deadline covers a hung reader.
func (t *TCPTransport) sessionStallCheck(peer int, ps *peerSession) {
	if !t.opts.Session.Heal {
		return
	}
	timeout := t.opts.ReadTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	if hb := 4 * t.opts.HeartbeatInterval; hb > timeout {
		timeout = hb
	}
	ps.mu.Lock()
	if !ps.ready || len(ps.stash) == 0 {
		ps.stallSeq, ps.stallSince = 0, time.Time{}
		ps.mu.Unlock()
		return
	}
	head := ps.stash[0].seq
	now := time.Now()
	if head != ps.stallSeq || ps.stallSince.IsZero() {
		ps.stallSeq, ps.stallSince = head, now
		ps.mu.Unlock()
		return
	}
	if now.Sub(ps.stallSince) < timeout {
		ps.mu.Unlock()
		return
	}
	gen := ps.gen
	ps.stallSeq, ps.stallSince = 0, time.Time{}
	ps.mu.Unlock()
	t.sessionBroken(peer, gen, fmt.Errorf("gluon: host %d not acknowledging seq %d for %v", peer, head, timeout))
}

// sessionReadLoop is the single long-lived reader for one peer. It
// reads whichever connection is currently installed; when the
// connection breaks it reports the break and waits for the healer to
// install the next one. A single reader (rather than one per
// connection) guarantees inbox ordering across heals.
func (t *TCPTransport) sessionReadLoop(peer int) {
	defer t.wg.Done()
	ps := t.sess[peer]
	for {
		ps.mu.Lock()
		for ps.conn == nil {
			select {
			case <-t.done:
				ps.mu.Unlock()
				return
			default:
			}
			ps.cond.Wait()
		}
		conn, gen := ps.conn, ps.gen
		ps.mu.Unlock()
		err := t.sessionReadConn(conn, peer, ps)
		select {
		case <-t.done:
			return
		default:
		}
		t.sessionBroken(peer, gen, err)
	}
}

// sessionReadConn decodes session frames from one connection until it
// errors. Nothing here poisons the transport: a malformed frame
// (frameError), a deadline expiry and any other I/O failure (linkDrop)
// are returned for sessionBroken to judge under this rank's policy.
// Duplicates (seq <= lastRecv) are discarded silently; acks are
// processed on every frame including heartbeats.
func (t *TCPTransport) sessionReadConn(conn net.Conn, peer int, ps *peerSession) error {
	hdr := make([]byte, 8)
	for {
		if t.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(t.opts.ReadTimeout))
		}
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return ioBreak(fmt.Errorf("gluon: read from host %d: %w", peer, err))
		}
		from, length, err := parseFrameHeader(hdr)
		if err != nil {
			return err
		}
		if from != peer {
			return malformed("gluon: session frame claims sender %d on connection to host %d", from, peer)
		}
		frame := make([]byte, 8+int(length))
		copy(frame, hdr)
		if _, err := io.ReadFull(conn, frame[8:]); err != nil {
			return ioBreak(fmt.Errorf("gluon: read from host %d: %w", peer, err))
		}
		_, seq, ack, payload, err := parseSessionFrame(frame)
		if err != nil {
			return err
		}

		ps.mu.Lock()
		ps.evictAckedLocked(ack)
		if seq == 0 {
			ps.mu.Unlock()
			continue // heartbeat: its ack is all it carries
		}
		if seq <= ps.lastRecv {
			ps.dups++
			ps.mu.Unlock()
			continue
		}
		if seq != ps.lastRecv+1 {
			last := ps.lastRecv
			ps.mu.Unlock()
			return malformed("gluon: session gap from host %d: seq %d after %d", peer, seq, last)
		}
		ps.lastRecv = seq
		ps.mu.Unlock()

		if isHeartbeat(payload) {
			continue
		}
		select {
		case t.inbox <- inprocMsg{from: peer, payload: payload}:
		case <-t.done:
			return ErrTransportClosed
		}
	}
}

// sessionBroken reports that the connection of generation gen to peer
// broke and applies this rank's policy to it. Stale reports (a retired
// generation, or no connection installed) are ignored, so the writer
// and the reader racing on the same dead connection tear it down
// exactly once. With Heal the side that dials (lower rank) starts the
// redial loop and the side that accepts starts a watchdog enforcing
// the budget while it waits to be redialed. Without Heal:
//
//   - a malformed frame poisons the transport with its framing error;
//   - a deadline expiry or a failed data write is ErrPeerLost at once;
//   - a dropped connection (linkDrop) gets the budget watchdog, which a
//     clean shutdown outruns by closing the transport.
//
// It returns the error the break escalated to at once, if any.
func (t *TCPTransport) sessionBroken(peer, gen int, cause error) error {
	ps := t.sess[peer]
	ps.mu.Lock()
	if ps.gen != gen || ps.conn == nil {
		ps.mu.Unlock()
		return nil
	}
	conn := ps.conn
	ps.conn = nil
	ps.ready = false
	ps.gen++
	if ps.brokenSince.IsZero() {
		ps.brokenSince = time.Now()
	}
	since := ps.brokenSince
	ps.mu.Unlock()
	conn.Close()
	select {
	case <-t.done:
		return nil
	default:
	}
	switch {
	case t.opts.Session.Heal && t.host < peer:
		go t.healDial(peer, since, cause)
	case t.opts.Session.Heal:
		go t.healWatchdog(peer, since, cause)
	case errors.As(cause, new(frameError)):
		t.fail(cause)
		return cause
	case !errors.As(cause, new(linkDrop)):
		return t.declareLost(peer, fmt.Errorf("%w: %v", ErrPeerLost, cause))
	default:
		go t.healWatchdog(peer, since, cause)
	}
	return nil
}

// healDial redials peer's resume listener with jittered exponential
// backoff until the heal completes or the budget (counted from the
// first break of the outage) runs out.
func (t *TCPTransport) healDial(peer int, since time.Time, cause error) {
	ps := t.sess[peer]
	deadline := since.Add(t.opts.Session.HealBudget)
	lastErr := cause
	for attempt := 0; ; attempt++ {
		select {
		case <-t.done:
			return
		default:
		}
		if time.Until(deadline) <= 0 {
			t.healFailed(peer, lastErr)
			return
		}
		conn, peerLast, err := t.dialResume(peer, deadline)
		if err == nil {
			ps.mu.Lock()
			gen := ps.gen
			ps.mu.Unlock()
			t.finishInstall(peer, gen, conn, peerLast)
			return
		}
		lastErr = err
		d := jitterBackoff(attempt, t.opts.Session.RedialMin, t.opts.Session.RedialMax)
		if remain := time.Until(deadline); d > remain {
			d = remain
		}
		select {
		case <-t.done:
			return
		case <-time.After(d):
		}
	}
}

// healWatchdog enforces the budget where this rank does not redial —
// the accepting side of a healing pair, and a dropped connection on a
// rank that does not heal: it fires at the end of the budget and, if
// the outage that started at `since` is still unhealed and the
// transport still open, declares the peer lost. A heal followed by
// a later break spawns its own watchdog; this one then sees a younger
// brokenSince and stands down.
func (t *TCPTransport) healWatchdog(peer int, since time.Time, cause error) {
	ps := t.sess[peer]
	budget := t.opts.Session.HealBudget
	timer := time.NewTimer(time.Until(since.Add(budget)))
	defer timer.Stop()
	select {
	case <-t.done:
		return
	case <-timer.C:
	}
	ps.mu.Lock()
	expired := !ps.ready && !ps.brokenSince.IsZero() && time.Since(ps.brokenSince) >= budget
	ps.mu.Unlock()
	if expired {
		t.healFailed(peer, cause)
	}
}

// healFailed escalates an outage that outlasted the budget: mark the
// peer lost and poison the transport with ErrPeerLost, handing control
// to the checkpoint/membership machinery.
func (t *TCPTransport) healFailed(peer int, cause error) {
	t.declareLost(peer, fmt.Errorf("%w: connection to host %d down past the %v budget: %v",
		ErrPeerLost, peer, t.opts.Session.HealBudget, cause))
}

// dialResume makes one reconnect attempt: dial, exchange resume hellos,
// validate the peer's identity and session token. Returns the raw
// connection and the peer's lastRecv (which acts as an ack).
func (t *TCPTransport) dialResume(peer int, deadline time.Time) (net.Conn, uint64, error) {
	remain := time.Until(deadline)
	conn, err := net.DialTimeout("tcp", t.resumeAddrs[peer], remain)
	if err != nil {
		return nil, 0, err
	}
	ps := t.sess[peer]
	ps.mu.Lock()
	ourLast := ps.lastRecv
	ps.mu.Unlock()
	conn.SetDeadline(deadline)
	if err := writeSessionHello(conn, t.host, t.sessToken, ourLast); err != nil {
		conn.Close()
		return nil, 0, err
	}
	rank, token, peerLast, err := readSessionHello(conn)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	if rank != peer || token != t.peerTokens[peer] {
		conn.Close()
		return nil, 0, fmt.Errorf("gluon: resume dial to host %d answered by rank %d token %#x", peer, rank, token)
	}
	conn.SetDeadline(time.Time{})
	return conn, peerLast, nil
}

// acceptLoop accepts resume redials on the persistent listener for the
// lifetime of the transport (lower ranks redial us after a break).
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	if d, ok := t.ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Time{}) // clear any bootstrap deadline
	}
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			case <-time.After(5 * time.Millisecond):
				continue // transient accept error
			}
		}
		go t.handleResume(conn)
	}
}

// handleResume validates one inbound resume connection. Anything that
// is not a correctly tokened resume hello from a live lower-rank peer
// — including a restarted worker speaking the mesh bootstrap protocol
// ("GW2VMESH"), which has no session to resume — is silently dropped;
// the restarted worker's bootstrap then times out into the existing
// elastic re-form path.
func (t *TCPTransport) handleResume(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(t.opts.Session.HealBudget))
	rank, token, peerLast, err := readSessionHello(conn)
	if err != nil || rank < 0 || rank >= t.n || rank >= t.host ||
		t.peerTokens == nil || t.peerTokens[rank] == 0 || token != t.peerTokens[rank] {
		conn.Close()
		return
	}
	ps := t.sess[rank]
	ps.mu.Lock()
	ourLast := ps.lastRecv
	ps.mu.Unlock()
	if err := writeSessionHello(conn, t.host, t.sessToken, ourLast); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})

	// Retire any connection we still believe is live — the peer knows
	// better (it is the one redialing). The reader blocked on the old
	// connection wakes with an error carrying the retired generation
	// and stands down.
	ps.mu.Lock()
	old := ps.conn
	if old != nil {
		ps.conn = nil
		ps.ready = false
		ps.gen++
		if ps.brokenSince.IsZero() {
			ps.brokenSince = time.Now()
		}
	}
	gen := ps.gen
	ps.mu.Unlock()
	if old != nil {
		old.Close()
	}
	t.finishInstall(rank, gen, conn, peerLast)
}

// finishInstall installs a freshly handshaken connection for peer,
// replays the unacknowledged stash tail, and opens the session for
// writers. Between install and ready this goroutine is the
// connection's only writer — regular writers block on !ready and the
// heartbeat skips non-ready peers — so the replay needs no write lock.
// A replay write failure reports a new break (the budget keeps running
// from the original brokenSince).
func (t *TCPTransport) finishInstall(peer, gen int, conn net.Conn, peerLast uint64) {
	wrapped := t.wrapConn(peer, conn)
	ps := t.sess[peer]
	closed := false
	select {
	case <-t.done:
		closed = true
	default:
	}
	ps.mu.Lock()
	if closed || ps.gen != gen || ps.conn != nil {
		ps.mu.Unlock()
		conn.Close()
		return
	}
	ps.conn = wrapped
	ps.heals++
	ps.evictAckedLocked(peerLast)
	replay := make([]sessionFrame, len(ps.stash))
	copy(replay, ps.stash)
	ps.replayed += len(replay)
	ack := ps.lastRecv
	ps.cond.Broadcast() // wake the reader onto the new connection
	ps.mu.Unlock()

	var buf []byte
	for _, f := range replay {
		buf = sessionFrameAppend(buf[:0], t.host, f.seq, ack, f.payload)
		if t.opts.WriteTimeout > 0 {
			wrapped.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
		}
		if _, err := wrapped.Write(buf); err != nil {
			t.sessionBroken(peer, gen, fmt.Errorf("gluon: session replay to host %d: %w", peer, err))
			return
		}
	}

	ps.mu.Lock()
	if ps.gen == gen && ps.conn == wrapped {
		ps.ready = true
		ps.brokenSince = time.Time{}
		ps.stallSeq, ps.stallSince = 0, time.Time{}
		ps.cond.Broadcast()
	}
	ps.mu.Unlock()
}

// encodeSessionHello builds one resume hello.
func encodeSessionHello(rank int, token, lastRecv uint64) []byte {
	buf := make([]byte, 0, sessionHelloBytes)
	buf = append(buf, sessionMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, meshVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rank))
	buf = binary.LittleEndian.AppendUint64(buf, token)
	return binary.LittleEndian.AppendUint64(buf, lastRecv)
}

// writeSessionHello sends one resume hello.
func writeSessionHello(conn net.Conn, rank int, token, lastRecv uint64) error {
	if _, err := conn.Write(encodeSessionHello(rank, token, lastRecv)); err != nil {
		return fmt.Errorf("gluon: session hello write: %w", err)
	}
	return nil
}

// errNotSessionHello marks an inbound connection that is not speaking
// the resume protocol (wrong magic or version).
var errNotSessionHello = errors.New("gluon: not a session resume hello")

// readSessionHello reads and validates one resume hello. Magic and
// version are checked before the remainder so foreign protocols (the
// mesh bootstrap hello, port scanners) fail fast.
func readSessionHello(r io.Reader) (rank int, token, lastRecv uint64, err error) {
	buf := make([]byte, sessionHelloBytes)
	off := len(sessionMagic)
	if _, err = io.ReadFull(r, buf[:off+4]); err != nil {
		return 0, 0, 0, fmt.Errorf("gluon: session hello read: %w", err)
	}
	if string(buf[:off]) != sessionMagic {
		return 0, 0, 0, errNotSessionHello
	}
	if v := binary.LittleEndian.Uint32(buf[off:]); v != meshVersion {
		return 0, 0, 0, fmt.Errorf("%w: version %d, want %d", errNotSessionHello, v, meshVersion)
	}
	if _, err = io.ReadFull(r, buf[off+4:]); err != nil {
		return 0, 0, 0, fmt.Errorf("gluon: session hello read: %w", err)
	}
	rank = int(binary.LittleEndian.Uint32(buf[off+4:]))
	token = binary.LittleEndian.Uint64(buf[off+8:])
	lastRecv = binary.LittleEndian.Uint64(buf[off+16:])
	return rank, token, lastRecv, nil
}

// SessionStats sums healing counters across all peers. Heals and
// Replayed stay zero on a rank that does not heal.
func (t *TCPTransport) SessionStats() SessionStats {
	var s SessionStats
	for _, ps := range t.sess {
		if ps == nil {
			continue
		}
		ps.mu.Lock()
		s.Heals += ps.heals
		s.Replayed += ps.replayed
		s.Dups += ps.dups
		ps.mu.Unlock()
	}
	return s
}
