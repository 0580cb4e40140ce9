package gluon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// sessionTestOpts are aggressive-but-stable failure-detection settings
// for loopback session tests: fast heartbeats drive the ack-stall
// detector, the short read deadline turns silence into a heal quickly,
// and the redial backoff stays tight so heals finish well inside the
// budget.
func sessionTestOpts() TCPOptions {
	return TCPOptions{
		HeartbeatInterval: 10 * time.Millisecond,
		ReadTimeout:       250 * time.Millisecond,
		WriteTimeout:      2 * time.Second,
		Session: SessionOptions{
			Heal:       true,
			HealBudget: 5 * time.Second,
			RedialMin:  2 * time.Millisecond,
			RedialMax:  50 * time.Millisecond,
		},
	}
}

// blastAndVerify sends `msgs` numbered payloads from every other host
// to host 0 and asserts per-sender FIFO delivery — the same contract
// TestTCPPerPairOrdering pins for the legacy transport.
func blastAndVerify(t *testing.T, trs []*TCPTransport, msgs int) {
	t.Helper()
	var wg sync.WaitGroup
	for sender := 1; sender < len(trs); sender++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				payload := make([]byte, 4)
				binary.LittleEndian.PutUint32(payload, uint32(i))
				if err := trs[sender].Send(sender, 0, payload); err != nil {
					t.Errorf("host %d send %d: %v", sender, i, err)
					return
				}
			}
		}(sender)
	}
	next := make(map[int]uint32)
	for got := 0; got < (len(trs)-1)*msgs; got++ {
		from, payload, err := trs[0].Recv(0)
		if err != nil {
			t.Fatalf("recv %d: %v", got, err)
		}
		seq := binary.LittleEndian.Uint32(payload)
		if seq != next[from] {
			t.Fatalf("host %d message out of order: got seq %d, want %d", from, seq, next[from])
		}
		next[from]++
	}
	wg.Wait()
}

// TestSessionDeliversInOrder: with healing on but no faults, the
// session layer must be invisible — same FIFO contract, no heals.
func TestSessionDeliversInOrder(t *testing.T) {
	trs, err := NewTCPClusterOpts(3, sessionTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(trs)
	blastAndVerify(t, trs, 200)
	for h, tr := range trs {
		if s := tr.SessionStats(); s.Heals != 0 {
			t.Errorf("host %d healed %d times on a fault-free run", h, s.Heals)
		}
	}
}

// breakConn forcibly closes the installed connection from host a to
// host b, simulating a mid-run connection reset. If the pair is
// already mid-heal (conn nil) it briefly waits for the next install so
// the break lands on a live socket; if none appears the link is
// already broken, which serves the same purpose. Safe to call from
// non-test goroutines: it never fails the test.
func breakConn(t *testing.T, tr *TCPTransport, peer int) {
	t.Helper()
	ps := tr.sess[peer]
	deadline := time.Now().Add(2 * time.Second)
	for {
		ps.mu.Lock()
		conn := ps.conn
		ps.mu.Unlock()
		if conn != nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionHealsConnectionReset: a hard mid-run connection reset must
// heal transparently — every in-flight and subsequent frame arrives, in
// order, without ErrPeerLost.
func TestSessionHealsConnectionReset(t *testing.T) {
	trs, err := NewTCPClusterOpts(2, sessionTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(trs)

	const msgs = 300
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			payload := make([]byte, 4)
			binary.LittleEndian.PutUint32(payload, uint32(i))
			if err := trs[1].Send(1, 0, payload); err != nil {
				errCh <- fmt.Errorf("send %d: %w", i, err)
				return
			}
			if i == msgs/3 {
				breakConn(t, trs[1], 0)
			}
			if i == 2*msgs/3 {
				breakConn(t, trs[0], 1)
			}
		}
		errCh <- nil
	}()
	for i := 0; i < msgs; i++ {
		from, payload, err := trs[0].Recv(0)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if from != 1 || binary.LittleEndian.Uint32(payload) != uint32(i) {
			t.Fatalf("message %d: got (%d, %d)", i, from, binary.LittleEndian.Uint32(payload))
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	heals := trs[0].SessionStats().Heals + trs[1].SessionStats().Heals
	if heals == 0 {
		t.Fatal("two forced resets produced zero heals")
	}
}

// TestSessionBudgetEscalatesToPeerLost: when the peer is gone for good,
// healing must give up at the budget and degrade into the legacy
// ErrPeerLost contract — poisoned transport, peer in LostPeers, no
// hang.
func TestSessionBudgetEscalatesToPeerLost(t *testing.T) {
	opts := sessionTestOpts()
	opts.Session.HealBudget = 400 * time.Millisecond
	trs, err := NewTCPClusterOpts(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(trs)

	if err := trs[0].Send(0, 1, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if _, p, err := trs[1].Recv(1); err != nil || string(p) != "pre" {
		t.Fatalf("Recv = (%q, %v)", p, err)
	}

	trs[1].Close() // the peer dies: listener and connections gone

	done := make(chan error, 1)
	go func() {
		for {
			_, _, err := trs[0].Recv(0)
			if err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerLost) {
			t.Fatalf("Recv after dead peer = %v, want ErrPeerLost", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv hung past the healing budget")
	}
	if lost := trs[0].LostPeers(); len(lost) != 1 || lost[0] != 1 {
		t.Fatalf("LostPeers = %v, want [1]", lost)
	}
}

// sessionReadTransport builds an unwired healing transport whose read
// path tests can feed by hand through an in-memory pipe.
func sessionReadTransport(t *testing.T, n, peer int) (*TCPTransport, net.Conn, chan error) {
	t.Helper()
	tr := newTCPTransport(0, n, TCPOptions{ReadTimeout: time.Second, Session: SessionOptions{Heal: true}})
	ours, theirs := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		errCh <- tr.sessionReadConn(ours, peer, tr.sess[peer])
	}()
	t.Cleanup(func() { tr.Close(); ours.Close(); theirs.Close() })
	return tr, theirs, errCh
}

// TestSessionCorruptFrameTable: fuzz-style table of malformed session
// frames — truncations, bad lengths, flipped bits, wrong senders,
// sequence anomalies. Every one must surface as a connection-level
// error (so the session heals and the peer replays) WITHOUT panicking
// and WITHOUT poisoning the transport, which would wrongly condemn the
// peer — or, on a shared inbox, every peer.
func TestSessionCorruptFrameTable(t *testing.T) {
	valid := func(seq uint64) []byte {
		return sessionFrameAppend(nil, 1, seq, 0, barrierMessage(3))
	}
	cases := []struct {
		name    string
		bytes   []byte
		wantErr string // "" = any error (io-level)
	}{
		{"truncated-header", valid(1)[:5], ""},
		{"truncated-body", valid(1)[:15], ""},
		{"length-below-session-header", func() []byte {
			f := valid(1)[:8+4] // framing header + 4 stray bytes
			binary.LittleEndian.PutUint32(f[4:], 4)
			return f
		}(), "below header size"},
		{"oversized-length", func() []byte {
			f := valid(1)
			binary.LittleEndian.PutUint32(f[4:], 0xFFFFFFF0)
			return f
		}(), "exceeds limit"},
		{"flipped-payload-bit", func() []byte {
			f := valid(1)
			f[len(f)-1] ^= 0x10
			return f
		}(), "fails CRC"},
		{"flipped-seq-bit", func() []byte {
			f := valid(1)
			f[9] ^= 0x01
			return f
		}(), "fails CRC"},
		{"sender-mismatch", func() []byte {
			f := valid(1)
			binary.LittleEndian.PutUint32(f, 2)
			return f
		}(), "claims sender"},
		{"sequence-gap", valid(5), "session gap"},
		{"unsequenced-data", sessionFrameAppend(nil, 1, 0, 0, barrierMessage(3)), "non-heartbeat"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, raw, errCh := sessionReadTransport(t, 3, 1)
			go func() {
				raw.Write(tc.bytes)
				raw.Close()
			}()
			select {
			case err := <-errCh:
				if err == nil {
					t.Fatal("malformed frame accepted")
				}
				if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("reader hung on malformed frame")
			}
			// The error heals the one connection; it must NOT have
			// poisoned the transport (which would condemn host 2 as
			// collateral damage too).
			tr.failMu.Lock()
			failure := tr.failure
			tr.failMu.Unlock()
			if failure != nil {
				t.Fatalf("malformed frame poisoned the transport: %v", failure)
			}
			if len(tr.inbox) != 0 {
				t.Fatalf("malformed frame leaked %d messages into the inbox", len(tr.inbox))
			}
		})
	}
}

// TestSessionDupDiscard: duplicated frames (replay overlap, chaotic
// networks) are dropped by sequence number, delivered exactly once.
func TestSessionDupDiscard(t *testing.T) {
	tr, raw, errCh := sessionReadTransport(t, 2, 1)
	go func() {
		raw.Write(sessionFrameAppend(nil, 1, 1, 0, barrierMessage(1)))
		raw.Write(sessionFrameAppend(nil, 1, 1, 0, barrierMessage(1))) // dup
		raw.Write(sessionFrameAppend(nil, 1, 2, 0, barrierMessage(2)))
		raw.Close()
	}()
	for want := uint32(1); want <= 2; want++ {
		from, payload, err := tr.Recv(0)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if _, tag := InspectFrame(payload); from != 1 || tag != want {
			t.Fatalf("got (%d, tag %d), want (1, %d)", from, tag, want)
		}
	}
	<-errCh // pipe closed
	if dups := tr.SessionStats().Dups; dups != 1 {
		t.Fatalf("Dups = %d, want 1", dups)
	}
}

// TestSessionHelloRejectsForeignProtocol: a mesh bootstrap hello (a
// restarted worker re-forming the cluster) or garbage must be rejected
// by the resume handshake with the named error, not resumed.
func TestSessionHelloRejectsForeignProtocol(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		cfg := MeshConfig{Rank: 1, Peers: []string{"x", "y"}, Checksum: 1, Wire: CodecPacked}
		writeHello(a, cfg, 0, time.Now().Add(time.Second))
	}()
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, _, err := readSessionHello(b); !errors.Is(err, errNotSessionHello) {
		t.Fatalf("mesh hello accepted as session resume: %v", err)
	}
}

// TestDialMeshMixedHeal: Heal is a per-rank policy, not a framing, so
// a mesh where rank 0 heals and rank 1 does not forms and routes in
// order like any other. A connection reset then escalates on both
// ranks within their budgets: rank 0 redials a rank that keeps no
// resume listener until its budget runs out, and rank 1 waits out its
// own budget for a clean shutdown that never comes.
func TestDialMeshMixedHeal(t *testing.T) {
	const n = 2
	addrs := meshAddrs(t, n)
	trs := make([]*TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := MeshConfig{Rank: r, Peers: addrs, Checksum: 7, Timeout: 10 * time.Second}
			cfg.TCP.Session = SessionOptions{
				Heal:       r == 0,
				HealBudget: 300 * time.Millisecond,
				RedialMin:  2 * time.Millisecond,
				RedialMax:  50 * time.Millisecond,
			}
			trs[r], errs[r] = DialMesh(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer closeAll(trs)

	const msgs = 50
	for i := 0; i < msgs; i++ {
		for r := 0; r < n; r++ {
			payload := binary.LittleEndian.AppendUint32(nil, uint32(i))
			if err := trs[r].Send(r, 1-r, payload); err != nil {
				t.Fatalf("rank %d send %d: %v", r, i, err)
			}
		}
	}
	for r := 0; r < n; r++ {
		for i := 0; i < msgs; i++ {
			from, payload, err := trs[r].Recv(r)
			if err != nil {
				t.Fatalf("rank %d recv %d: %v", r, i, err)
			}
			if from != 1-r || binary.LittleEndian.Uint32(payload) != uint32(i) {
				t.Fatalf("rank %d message %d: got (%d, %d)", r, i, from, binary.LittleEndian.Uint32(payload))
			}
		}
	}

	breakConn(t, trs[0], 1)
	for r := 0; r < n; r++ {
		_, err := within(t, func() ([]byte, error) { _, _, err := trs[r].Recv(r); return nil, err })
		if !errors.Is(err, ErrPeerLost) {
			t.Fatalf("rank %d after reset: %v, want ErrPeerLost", r, err)
		}
		if lost := trs[r].LostPeers(); len(lost) != 1 || lost[0] != 1-r {
			t.Fatalf("rank %d LostPeers = %v, want [%d]", r, lost, 1-r)
		}
	}
}

// TestSessionRetransmitLimit: the retransmit limit refuses a backlog
// the peer is not acknowledging, never a single frame — a lone payload
// larger than the limit is accepted into an empty stash and delivered,
// while a second unacknowledged frame past the limit escalates to
// ErrPeerLost. A rank that does not heal keeps no stash, so no limit
// applies: a frame past it that follows an unacknowledged one is
// delivered too.
func TestSessionRetransmitLimit(t *testing.T) {
	big := make([]byte, 4096)
	big[4095] = 7
	chunk := make([]byte, 600)
	recvBig := func(tr *TCPTransport) {
		t.Helper()
		if _, p, err := tr.Recv(1); err != nil || len(p) != len(big) || p[4095] != 7 {
			t.Fatalf("Recv = (%d bytes, %v), want the %d-byte frame", len(p), err, len(big))
		}
	}

	t.Run("heal", func(t *testing.T) {
		trs, err := NewTCPClusterOpts(2, TCPOptions{Session: SessionOptions{Heal: true, RetransmitLimit: 1024}})
		if err != nil {
			t.Fatal(err)
		}
		defer closeAll(trs)
		if err := trs[0].Send(0, 1, big); err != nil {
			t.Fatalf("lone frame over the limit refused: %v", err)
		}
		recvBig(trs[1])
		// Host 1's reply acknowledges the big frame, emptying host 0's stash.
		if err := trs[1].Send(1, 0, []byte("ack")); err != nil {
			t.Fatal(err)
		}
		if _, p, err := trs[0].Recv(0); err != nil || string(p) != "ack" {
			t.Fatalf("Recv = (%q, %v)", p, err)
		}
		// Host 1 now stays silent, so nothing acknowledges host 0's frames.
		if err := trs[0].Send(0, 1, chunk); err != nil {
			t.Fatalf("first frame of the backlog: %v", err)
		}
		if err := trs[0].Send(0, 1, chunk); !errors.Is(err, ErrPeerLost) {
			t.Fatalf("backlog past the limit = %v, want ErrPeerLost", err)
		}
		if lost := trs[0].LostPeers(); len(lost) != 1 || lost[0] != 1 {
			t.Fatalf("LostPeers = %v, want [1]", lost)
		}
	})

	t.Run("no-heal", func(t *testing.T) {
		trs, err := NewTCPClusterOpts(2, TCPOptions{Session: SessionOptions{RetransmitLimit: 1024}})
		if err != nil {
			t.Fatal(err)
		}
		defer closeAll(trs)
		// Host 1 never replies, so the chunk stays unacknowledged.
		if err := trs[0].Send(0, 1, chunk); err != nil {
			t.Fatal(err)
		}
		if err := trs[0].Send(0, 1, big); err != nil {
			t.Fatalf("frame past the limit after an unacked one: %v", err)
		}
		if _, p, err := trs[1].Recv(1); err != nil || len(p) != len(chunk) {
			t.Fatalf("Recv = (%d bytes, %v), want the %d-byte chunk", len(p), err, len(chunk))
		}
		recvBig(trs[1])
		ps := trs[0].sess[1]
		ps.mu.Lock()
		stashed := len(ps.stash)
		ps.mu.Unlock()
		if stashed != 0 || len(trs[0].LostPeers()) != 0 {
			t.Fatalf("stash = %d frames, LostPeers = %v; want none", stashed, trs[0].LostPeers())
		}
	})
}

// TestDialMeshSessionHealsReset: the multi-process bootstrap path wires
// the same healing machinery — persistent listener, resume tokens —
// so a reset between DialMesh-built transports heals too.
func TestDialMeshSessionHealsReset(t *testing.T) {
	const n = 2
	addrs := meshAddrs(t, n)
	trs := make([]*TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = DialMesh(MeshConfig{
				Rank: r, Peers: addrs, Checksum: 99, Timeout: 10 * time.Second,
				TCP: sessionTestOpts(),
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer closeAll(trs)

	const msgs = 100
	for i := 0; i < msgs; i++ {
		payload := make([]byte, 4)
		binary.LittleEndian.PutUint32(payload, uint32(i))
		if err := trs[1].Send(1, 0, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if i == msgs/2 {
			breakConn(t, trs[0], 1) // rank 0 redials rank 1's kept listener
		}
	}
	for i := 0; i < msgs; i++ {
		_, payload, err := trs[0].Recv(0)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint32(payload); got != uint32(i) {
			t.Fatalf("message %d arrived as %d", i, got)
		}
	}
	if heals := trs[0].SessionStats().Heals + trs[1].SessionStats().Heals; heals == 0 {
		t.Fatal("forced reset on a mesh session produced zero heals")
	}
}

// TestJitterBackoffBounds: the backoff must stay within [lo/2, hi],
// grow with the attempt number, and never overflow into a negative or
// zero sleep on absurd attempts.
func TestJitterBackoffBounds(t *testing.T) {
	lo, hi := 10*time.Millisecond, 500*time.Millisecond
	for attempt := 0; attempt <= 64; attempt++ {
		d := jitterBackoff(attempt, lo, hi)
		if d < lo/2 || d > hi {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo/2, hi)
		}
	}
	// High attempts saturate at the cap (within jitter).
	if d := jitterBackoff(40, lo, hi); d < hi/2 {
		t.Fatalf("saturated backoff %v below half the cap %v", d, hi)
	}
	// Degenerate inputs still return something positive.
	if d := jitterBackoff(0, 0, 0); d <= 0 {
		t.Fatalf("zero-config backoff = %v", d)
	}
}
