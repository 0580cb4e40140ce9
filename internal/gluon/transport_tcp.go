package gluon

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"
)

// ErrPeerLost reports that a cluster peer died or went silent past the
// configured deadline. It wraps every failure the transport can
// attribute to peer death (dropped connection past the budget,
// read-deadline expiry, write-deadline expiry, failed write, healing
// budget exhausted), so callers distinguish a recoverable peer crash —
// re-form the mesh and resume from the last checkpoint — from a
// protocol violation. Match with errors.Is.
var ErrPeerLost = errors.New("gluon: peer lost")

// TCPOptions tunes failure detection on a TCPTransport. The zero value
// means no deadlines, no heartbeats, no healing, and the default
// 10s budget before a dropped connection counts as a lost peer.
type TCPOptions struct {
	// HeartbeatInterval, when positive, emits a header-only heartbeat
	// frame on every connection at this interval so long compute
	// phases produce traffic (and acknowledgements keep flowing).
	// Heartbeats are consumed by the receiving transport's reader and
	// never surface through Recv. Enable it on every rank together
	// with ReadTimeout (a rank without heartbeats looks dead to a rank
	// with a read deadline).
	HeartbeatInterval time.Duration
	// ReadTimeout, when positive, bounds the silence tolerated on each
	// connection: if no frame (heartbeats included) arrives within it,
	// the connection is broken — healed with Session.Heal, otherwise
	// the peer is declared lost at once. This is what distinguishes a
	// hung peer — process alive, connection open, making no progress —
	// from a merely slow one.
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds each frame write. A hung
	// peer that stops draining its socket eventually fills the TCP
	// window and blocks senders forever; the deadline turns that into
	// a broken connection (ErrPeerLost at once without healing).
	WriteTimeout time.Duration
	// Session sets this rank's reaction to a broken connection: with
	// Heal, redial and replay within HealBudget; without, escalate
	// (PROTOCOL.md §12). The framing is the same either way, so ranks
	// may disagree. See session.go.
	Session SessionOptions
	// Chaos, when non-nil, wraps every post-handshake connection in a
	// deterministic fault injector (drops, duplicates, reorders,
	// corruption, delays, resets, blackholes) driven by the plan's
	// seed. Meant for Session.Heal; see chaos.go.
	Chaos *ChaosPlan
}

// TCPTransport runs the synchronisation protocol over real TCP sockets,
// in two configurations: NewTCPCluster wires all hosts inside one
// process over loopback (integration tests, examples), and DialMesh
// (transport_mesh.go) bootstraps one transport per OS process for true
// multi-process training. Each ordered host pair shares one connection
// (established lexicographically: lower host id dials), which preserves
// the per-sender FIFO ordering the protocol depends on.
//
// Every connection carries session frames (session.go, PROTOCOL.md §2
// and §12): sender id, length, sequence number, ack and CRC32 ahead of
// each payload, read by one long-lived reader per peer. A malformed
// frame either heals the connection (Session.Heal) or poisons the
// transport: it closes and subsequent Recv/Send calls report the
// framing error instead of hanging.
type TCPTransport struct {
	host    int
	n       int
	writeMu []sync.Mutex
	// sendBufs[g] is the reusable framing buffer for the connection to
	// host g, guarded by writeMu[g]. Reuse is safe on the send side
	// because conn.Write copies the bytes into the kernel before
	// returning; the receive side has no such point — payloads outlive
	// the reader in the inbox and pending queues — so the reader must
	// keep allocating per frame.
	sendBufs [][]byte
	inbox    chan inprocMsg
	done     chan struct{}
	closeMu  sync.Once
	wg       sync.WaitGroup
	opts     TCPOptions

	failMu  sync.Mutex
	failure error // first framing/protocol error, reported by Recv/Send
	lost    map[int]bool

	// sess[g] is the session with host g (nil for self). sessToken and
	// peerTokens identify each transport incarnation and authenticate
	// the resume handshake; resumeAddrs and the persistent listener ln
	// (held only with Session.Heal, by ranks above 0) let broken peers
	// redial.
	sess        []*peerSession
	sessToken   uint64
	peerTokens  []uint64
	resumeAddrs []string
	ln          net.Listener
	chaos       []*chaosState
}

// maxFrameBytes bounds a single frame to catch corrupted length
// prefixes. It is a variable only so tests can lower it; real payloads
// (at most a few hundred MB for a dense broadcast of a huge model) stay
// far below the 1 GiB default.
var maxFrameBytes = uint32(1 << 30)

// NewTCPCluster constructs n TCPTransports wired to each other over
// loopback listeners. It returns one transport per host. Closing any one
// of them tears down shared connections; callers should close all.
func NewTCPCluster(n int) ([]*TCPTransport, error) {
	return NewTCPClusterOpts(n, TCPOptions{})
}

// NewTCPClusterOpts is NewTCPCluster with failure-detection options
// applied to every member transport.
func NewTCPClusterOpts(n int, opts TCPOptions) ([]*TCPTransport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gluon: cluster needs at least one host, got %d", n)
	}
	trs := make([]*TCPTransport, n)
	for h := 0; h < n; h++ {
		trs[h] = newTCPTransport(h, n, opts)
	}
	for h := 0; h < n; h++ {
		for g := 0; g < n; g++ {
			trs[h].peerTokens[g] = trs[g].sessToken
		}
	}
	// Wire each unordered pair with one loopback connection, the lower
	// host dialing the higher one's listener. One dial is outstanding
	// at a time, so each Accept returns the connection just dialed.
	// Healing hosts keep their listener for resume redials; lower
	// hosts redial the same address after a break.
	addrs := make([]string, n)
	for b := 1; b < n; b++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(trs)
			return nil, fmt.Errorf("gluon: listen: %w", err)
		}
		addrs[b] = ln.Addr().String()
		for a := 0; a < b && err == nil; a++ {
			if trs[a].sess[b].conn, err = net.Dial("tcp", addrs[b]); err == nil {
				trs[b].sess[a].conn, err = ln.Accept()
			}
		}
		if opts.Session.Heal && err == nil {
			trs[b].ln = ln
		} else {
			ln.Close()
		}
		if err != nil {
			closeAll(trs)
			return nil, fmt.Errorf("gluon: wire host %d: %w", b, err)
		}
	}
	for _, t := range trs {
		t.resumeAddrs = addrs
		t.startReaders()
	}
	return trs, nil
}

// newTCPTransport allocates an unwired transport for one host: one
// empty session per peer, a fresh session token, and the session
// defaults filled in.
func newTCPTransport(host, n int, opts TCPOptions) *TCPTransport {
	opts.Session = opts.Session.withDefaults()
	t := &TCPTransport{
		host:       host,
		n:          n,
		writeMu:    make([]sync.Mutex, n),
		sendBufs:   make([][]byte, n),
		inbox:      make(chan inprocMsg, 16*n),
		done:       make(chan struct{}),
		opts:       opts,
		sess:       make([]*peerSession, n),
		sessToken:  newSessionToken(),
		peerTokens: make([]uint64, n),
	}
	if opts.Chaos != nil {
		t.chaos = make([]*chaosState, n)
	}
	for g := 0; g < n; g++ {
		if g == host {
			continue
		}
		t.sess[g] = newPeerSession()
		if t.chaos != nil {
			t.chaos[g] = newChaosState(*opts.Chaos, host, g)
		}
	}
	return t
}

// startReaders opens every wired bootstrap connection for writers and
// launches one reader goroutine per peer, plus the heartbeat emitter
// when one is configured and the resume acceptor when a persistent
// listener is held.
func (t *TCPTransport) startReaders() {
	for g, ps := range t.sess {
		if ps == nil {
			continue
		}
		if ps.conn != nil {
			ps.conn = t.wrapConn(g, ps.conn)
			ps.ready = true
		}
		t.wg.Add(1)
		go t.sessionReadLoop(g)
	}
	if t.ln != nil {
		t.wg.Add(1)
		go t.acceptLoop()
	}
	if t.opts.HeartbeatInterval > 0 {
		t.wg.Add(1)
		go t.heartbeatLoop()
	}
}

func closeAll(trs []*TCPTransport) {
	for _, t := range trs {
		if t != nil {
			t.Close()
		}
	}
}

// declareLost records peer as dead, for LostPeers, poisons the
// transport with err, which must wrap ErrPeerLost, and returns it.
func (t *TCPTransport) declareLost(peer int, err error) error {
	t.failMu.Lock()
	if t.lost == nil {
		t.lost = make(map[int]bool)
	}
	t.lost[peer] = true
	t.failMu.Unlock()
	t.fail(err)
	return err
}

// LostPeers returns the host ids this transport declared dead (dropped
// connection past the budget, deadline expiry, failed write, or an
// unhealable outage), in ascending order. Valid after the transport
// fails or closes; elastic callers use it to decide which ranks to drop
// when re-forming a smaller mesh. A clean shutdown leaves it empty.
func (t *TCPTransport) LostPeers() []int {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	peers := make([]int, 0, len(t.lost))
	for p := range t.lost {
		peers = append(peers, p)
	}
	slices.Sort(peers)
	return peers
}

// fail records the first protocol error and tears the transport down so
// blocked Recv/Send calls surface it instead of hanging.
func (t *TCPTransport) fail(err error) {
	t.failMu.Lock()
	if t.failure == nil {
		t.failure = err
	}
	t.failMu.Unlock()
	t.Close()
}

// closedErr returns the recorded failure, or ErrTransportClosed for a
// clean shutdown.
func (t *TCPTransport) closedErr() error {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	if t.failure != nil {
		return t.failure
	}
	return ErrTransportClosed
}

// NumHosts implements Transport.
func (t *TCPTransport) NumHosts() int { return t.n }

// Send implements Transport: assign the next sequence number, stash a
// copy for retransmission if this rank heals, and write the session
// frame. The stash append and the write both happen under writeMu, so
// stash order is write order. A failed write breaks the connection
// (sessionBroken): with healing the frame is replayed after the heal
// and Send succeeds; without, Send returns ErrPeerLost. A healing
// rank's ack backlog past the retransmit limit escalates regardless.
func (t *TCPTransport) Send(from, to int, payload []byte) error {
	if from != t.host {
		return fmt.Errorf("gluon: tcp transport for host %d cannot send as %d", t.host, from)
	}
	if to < 0 || to >= t.n || to == t.host {
		return fmt.Errorf("gluon: tcp send to invalid host %d", to)
	}
	if len(payload) > int(maxFrameBytes) {
		return fmt.Errorf("gluon: tcp payload of %d bytes exceeds frame limit %d", len(payload), maxFrameBytes)
	}
	select {
	case <-t.done:
		return t.closedErr()
	default:
	}
	ps := t.sess[to]
	t.writeMu[to].Lock()
	defer t.writeMu[to].Unlock()

	ps.mu.Lock()
	for !ps.ready {
		select {
		case <-t.done:
			ps.mu.Unlock()
			return t.closedErr()
		default:
		}
		ps.cond.Wait()
	}
	seq := ps.nextSeq
	if t.opts.Session.Heal {
		// A lone frame always fits an empty stash (maxFrameBytes bounds
		// it); the limit only refuses a backlog the peer is not acking.
		if limit := t.opts.Session.RetransmitLimit; len(ps.stash) > 0 && ps.stashBytes+len(payload) > limit {
			ps.mu.Unlock()
			return t.declareLost(to, fmt.Errorf("%w: retransmit buffer for host %d exceeds %d bytes (peer not acknowledging)",
				ErrPeerLost, to, limit))
		}
		ps.stash = append(ps.stash, sessionFrame{seq: seq, payload: append([]byte(nil), payload...)})
		ps.stashBytes += len(payload)
	}
	ps.nextSeq++
	conn := ps.conn
	gen := ps.gen
	ack := ps.lastRecv
	ps.mu.Unlock()

	// Frame and write outside ps.mu: holding it across a blocking Write
	// could deadlock two hosts whose TCP windows are both full, since
	// draining requires the readers to take ps.mu for ack processing.
	frame := sessionFrameAppend(t.sendBufs[to][:0], t.host, seq, ack, payload)
	t.sendBufs[to] = frame
	if t.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	}
	if _, err := conn.Write(frame); err != nil {
		err = fmt.Errorf("gluon: write to host %d: %w", to, err)
		if lost := t.sessionBroken(to, gen, err); lost != nil || t.opts.Session.Heal {
			return lost
		}
		// The reader tore this connection down first, or the transport
		// is closing: the frame is gone all the same.
		select {
		case <-t.done:
			return t.closedErr()
		default:
			return t.declareLost(to, fmt.Errorf("%w: %v", ErrPeerLost, err))
		}
	}
	return nil
}

// Recv implements Transport.
func (t *TCPTransport) Recv(host int) (int, []byte, error) {
	if host != t.host {
		return 0, nil, fmt.Errorf("gluon: tcp transport for host %d cannot recv as %d", t.host, host)
	}
	select {
	case m := <-t.inbox:
		return m.from, m.payload, nil
	case <-t.done:
		select {
		case m := <-t.inbox:
			return m.from, m.payload, nil
		default:
			return 0, nil, t.closedErr()
		}
	}
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.closeMu.Do(func() {
		close(t.done)
		if t.ln != nil {
			t.ln.Close()
		}
		for _, ps := range t.sess {
			if ps == nil {
				continue
			}
			ps.mu.Lock()
			if ps.conn != nil {
				ps.conn.Close()
			}
			ps.cond.Broadcast() // wake writers/readers blocked on heals
			ps.mu.Unlock()
		}
	})
	return nil
}
