package gluon

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Multi-process bootstrap: DialMesh turns N independent OS processes
// into a fully connected TCPTransport mesh. Every rank listens on its
// published address; for each unordered pair the lower rank dials the
// higher one (the same convention NewTCPCluster uses), and the two ends
// exchange a hello frame carrying the protocol version, the dialer's
// rank, the cluster size, a caller-supplied configuration checksum, and
// the wire codec. A mismatch in any of these aborts the bootstrap on
// both sides, so a worker started with the wrong flags — or built at a
// different wire-format version — fails loudly at connect time instead
// of training a silently divergent model.
//
// Hello frame, all little-endian: magic "GW2VMESH" (8 bytes),
// version (uint32), sender rank (uint32), cluster size (uint32),
// checksum (uint64), wire codec (1 byte), flags (1 byte, v6: bit 0 =
// session healing enabled), session token (uint64, v6; zero when
// sessions are off). See PROTOCOL.md §6.

const (
	meshMagic = "GW2VMESH"
	// meshVersion is the wire protocol version. Version 2 introduced the
	// payload codec layer (codec byte in vector frames, varint-delta
	// indices, half suppression, optional fp16) and added the codec byte
	// to this hello. Version 3 added the heartbeat and resume frame
	// kinds for failure detection and checkpoint recovery (PROTOCOL.md
	// §8); a v2 peer would misparse them, so the hello check is what
	// keeps mixed-version meshes from forming. Version 4 added the
	// membership and transfer frame kinds for elastic membership
	// changes (PROTOCOL.md §10). Version 5 added the touched frame
	// kind for compute/sync overlap announcements (PROTOCOL.md §11).
	// Version 6 added the session layer (sequenced, CRC-protected,
	// acknowledged frames with transparent reconnect; PROTOCOL.md §12)
	// and extended this hello with a flags byte and a session token.
	// Version 7 retired the resume frame kind (7): every resume runs
	// the membership negotiation, and a v6 peer would still send kind 7.
	// See PROTOCOL.md §7 for the bump policy.
	meshVersion = 7
	// meshHelloBytes is the encoded hello size.
	meshHelloBytes = len(meshMagic) + 4 + 4 + 4 + 8 + 1 + 1 + 8
	// meshFlagSession marks a rank running the self-healing session
	// layer; mixed meshes are rejected at the handshake (a session
	// frame would be gibberish to a legacy peer and vice versa).
	meshFlagSession = byte(1)
	// meshDialRetryMin/Max bound the jittered exponential backoff
	// between connection attempts while a peer's listener is not up
	// yet. Jitter keeps a mass restart of N workers from hammering the
	// slowest listener in lockstep.
	meshDialRetryMin = 50 * time.Millisecond
	meshDialRetryMax = time.Second
)

// MeshConfig describes one rank's view of a multi-process cluster.
type MeshConfig struct {
	// Rank is this process's host id in [0, len(Peers)).
	Rank int
	// Peers[r] is the address rank r publishes (host:port). Cluster
	// size is len(Peers); every rank must pass the same list in the
	// same order.
	Peers []string
	// Listen optionally overrides the address this rank binds
	// (e.g. ":7000" to bind all interfaces while Peers advertises a
	// routable name). Empty means Peers[Rank].
	Listen string
	// Checksum fingerprints the training configuration; all ranks must
	// agree (see core.Config.Checksum).
	Checksum uint64
	// Wire is the payload codec this rank will apply to sync traffic;
	// all ranks must agree (the codec changes the bytes on the wire, so
	// a mixed mesh could not even parse its peers' frames).
	Wire Codec
	// Timeout bounds the whole bootstrap — listening, dialing every
	// peer (with retries while peers start up), and handshakes.
	// Zero means 30 seconds.
	Timeout time.Duration
	// TCP configures failure detection (heartbeats, read/write
	// deadlines, peer-loss grace) on the resulting transport. It is
	// not part of the hello — every rank should still run the same
	// settings, since a heartbeat-less rank looks dead to a rank with
	// a read deadline.
	TCP TCPOptions
}

// DialMesh bootstraps this rank's transport for a multi-process
// cluster, blocking until the full mesh is connected and verified or
// the timeout elapses.
func DialMesh(cfg MeshConfig) (*TCPTransport, error) {
	n := len(cfg.Peers)
	if n == 0 {
		return nil, fmt.Errorf("gluon: mesh needs at least one peer address")
	}
	if err := cfg.Wire.Validate(); err != nil {
		return nil, err
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("gluon: mesh rank %d out of range [0,%d)", cfg.Rank, n)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)

	t := newTCPTransport(cfg.Rank, n)
	t.opts = cfg.TCP
	session := cfg.TCP.Session.Heal
	if session {
		// The token identifies this transport incarnation in session
		// resume hellos; peers learn it from the mesh hello below.
		t.sessToken = newSessionToken()
		t.resumeAddrs = append([]string(nil), cfg.Peers...)
		t.peerTokens = make([]uint64, n)
	}
	if n == 1 {
		return t, nil
	}

	// Ranks below us dial us; bind before dialing upward so no ordering
	// of process startup can deadlock the bootstrap. In session mode
	// the listener outlives the bootstrap: broken lower-rank peers
	// redial it to resume their sessions (session.go).
	var ln net.Listener
	keepLn := false
	if cfg.Rank > 0 {
		addr := cfg.Listen
		if addr == "" {
			addr = cfg.Peers[cfg.Rank]
		}
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("gluon: mesh rank %d listen %s: %w", cfg.Rank, addr, err)
		}
		defer func() {
			if !keepLn {
				ln.Close()
			}
		}()
	}

	type wired struct {
		peer  int
		conn  net.Conn
		token uint64
		err   error
	}
	results := make(chan wired, n)
	var producers sync.WaitGroup

	// Accept one connection from every lower rank.
	if cfg.Rank > 0 {
		producers.Add(1)
		go func() {
			defer producers.Done()
			seen := make(map[int]bool)
			for len(seen) < cfg.Rank {
				if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
					d.SetDeadline(deadline)
				}
				conn, err := ln.Accept()
				if err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						err = fmt.Errorf("%w: %v", ErrMeshTimeout, err)
					}
					results <- wired{err: fmt.Errorf("gluon: mesh rank %d accept: %w", cfg.Rank, err)}
					return
				}
				peer, token, err := acceptHello(conn, cfg, t.sessToken, deadline)
				if err != nil {
					conn.Close()
					results <- wired{err: err}
					return
				}
				if peer >= cfg.Rank || seen[peer] {
					conn.Close()
					results <- wired{err: fmt.Errorf("gluon: mesh rank %d: unexpected or duplicate hello from rank %d", cfg.Rank, peer)}
					return
				}
				seen[peer] = true
				results <- wired{peer: peer, conn: conn, token: token}
			}
		}()
	}

	// Dial every higher rank, retrying while its listener comes up.
	for peer := cfg.Rank + 1; peer < n; peer++ {
		producers.Add(1)
		go func(peer int) {
			defer producers.Done()
			conn, token, err := dialHello(cfg, peer, t.sessToken, deadline)
			results <- wired{peer: peer, conn: conn, token: token, err: err}
		}(peer)
	}

	for need := n - 1; need > 0; need-- {
		w := <-results
		if w.err != nil {
			t.Close()
			// Close stray connections from producers still in flight
			// (they all terminate by the bootstrap deadline; the
			// deferred listener close unblocks the acceptor).
			go func() {
				producers.Wait()
				close(results)
				for w := range results {
					if w.conn != nil {
						w.conn.Close()
					}
				}
			}()
			return nil, w.err
		}
		t.conns[w.peer] = w.conn
		if session {
			t.peerTokens[w.peer] = w.token
		}
	}
	if session && cfg.Rank > 0 {
		t.ln = ln
		keepLn = true
	}
	t.startReaders()
	return t, nil
}

// ErrMeshTimeout marks a mesh bootstrap that gave up waiting for a
// peer. Degrading callers (gw2v-worker -min-hosts) match it with
// errors.Is to distinguish "a peer never came back" — grounds for
// degrading to a smaller cluster — from handshake rejections, which
// mean misconfiguration and must stay fatal.
var ErrMeshTimeout = fmt.Errorf("gluon: mesh bootstrap timed out")

// dialHello connects to peer (a higher rank), retrying with jittered
// exponential backoff until deadline, and runs the hello exchange from
// the dialer side.
func dialHello(cfg MeshConfig, peer int, sessToken uint64, deadline time.Time) (net.Conn, uint64, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = ErrMeshTimeout
			} else {
				lastErr = fmt.Errorf("%w: %v", ErrMeshTimeout, lastErr)
			}
			return nil, 0, fmt.Errorf("gluon: mesh rank %d dial rank %d (%s): %w", cfg.Rank, peer, cfg.Peers[peer], lastErr)
		}
		conn, err := net.DialTimeout("tcp", cfg.Peers[peer], remain)
		if err != nil {
			lastErr = err
			time.Sleep(jitterBackoff(attempt, meshDialRetryMin, meshDialRetryMax))
			continue
		}
		if err := writeHello(conn, cfg, sessToken, deadline); err != nil {
			conn.Close()
			return nil, 0, err
		}
		got, token, err := readHello(conn, cfg, deadline)
		if err != nil {
			conn.Close()
			return nil, 0, err
		}
		if got != peer {
			conn.Close()
			return nil, 0, fmt.Errorf("gluon: mesh rank %d dialed %s expecting rank %d, got rank %d", cfg.Rank, cfg.Peers[peer], peer, got)
		}
		conn.SetDeadline(time.Time{})
		return conn, token, nil
	}
}

// acceptHello runs the hello exchange from the acceptor side and returns
// the dialer's rank and session token.
func acceptHello(conn net.Conn, cfg MeshConfig, sessToken uint64, deadline time.Time) (int, uint64, error) {
	peer, token, err := readHello(conn, cfg, deadline)
	if err != nil {
		return 0, 0, err
	}
	if err := writeHello(conn, cfg, sessToken, deadline); err != nil {
		return 0, 0, err
	}
	conn.SetDeadline(time.Time{})
	return peer, token, nil
}

// writeHello sends this rank's hello frame.
func writeHello(conn net.Conn, cfg MeshConfig, sessToken uint64, deadline time.Time) error {
	conn.SetDeadline(deadline)
	buf := make([]byte, meshHelloBytes)
	off := copy(buf, meshMagic)
	binary.LittleEndian.PutUint32(buf[off:], meshVersion)
	binary.LittleEndian.PutUint32(buf[off+4:], uint32(cfg.Rank))
	binary.LittleEndian.PutUint32(buf[off+8:], uint32(len(cfg.Peers)))
	binary.LittleEndian.PutUint64(buf[off+12:], cfg.Checksum)
	buf[off+20] = byte(cfg.Wire)
	if cfg.TCP.Session.Heal {
		buf[off+21] = meshFlagSession
	}
	binary.LittleEndian.PutUint64(buf[off+22:], sessToken)
	if _, err := conn.Write(buf); err != nil {
		return fmt.Errorf("gluon: mesh rank %d hello write: %w", cfg.Rank, err)
	}
	return nil
}

// readHello reads and validates a peer's hello frame, returning the
// peer's rank and session token. The magic and version are read (and
// checked) before the version-dependent remainder, so a peer speaking a
// different protocol version — whose hello may be a different length —
// fails fast instead of stalling both sides until the bootstrap
// deadline.
func readHello(conn net.Conn, cfg MeshConfig, deadline time.Time) (int, uint64, error) {
	conn.SetDeadline(deadline)
	buf := make([]byte, meshHelloBytes)
	off := len(meshMagic)
	if _, err := io.ReadFull(conn, buf[:off+4]); err != nil {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d hello read: %w", cfg.Rank, err)
	}
	if string(buf[:off]) != meshMagic {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: peer is not a gw2v worker (bad magic)", cfg.Rank)
	}
	version := binary.LittleEndian.Uint32(buf[off:])
	if version != meshVersion {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: peer protocol version %d, want %d — all workers must run the same build (PROTOCOL.md §7)", cfg.Rank, version, meshVersion)
	}
	if _, err := io.ReadFull(conn, buf[off+4:]); err != nil {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d hello read: %w", cfg.Rank, err)
	}
	rank := binary.LittleEndian.Uint32(buf[off+4:])
	size := binary.LittleEndian.Uint32(buf[off+8:])
	sum := binary.LittleEndian.Uint64(buf[off+12:])
	wire := Codec(buf[off+20])
	flags := buf[off+21]
	token := binary.LittleEndian.Uint64(buf[off+22:])
	if int(size) != len(cfg.Peers) {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: peer cluster size %d, ours %d", cfg.Rank, size, len(cfg.Peers))
	}
	// The codec is checked before the checksum: core.Config.Checksum
	// folds the codec too, so a -wire mismatch would otherwise always
	// surface as the generic checksum error instead of this named one.
	if wire != cfg.Wire {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: peer rank %d wire codec %v, ours %v — all workers must pass the same -wire", cfg.Rank, rank, wire, cfg.Wire)
	}
	// The session flag is checked before the checksum for the same
	// reason as the codec: healing knobs are deliberately excluded from
	// the checksum (they do not change the trained bits), so a -heal
	// mismatch needs its own named rejection.
	if peerSess := flags&meshFlagSession != 0; peerSess != cfg.TCP.Session.Heal {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: peer rank %d session healing %v, ours %v — all workers must pass the same -heal", cfg.Rank, rank, peerSess, cfg.TCP.Session.Heal)
	}
	if sum != cfg.Checksum {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: peer rank %d config checksum %#x, ours %#x — workers must share identical corpus and flags", cfg.Rank, rank, sum, cfg.Checksum)
	}
	if int(rank) >= len(cfg.Peers) {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: peer claims rank %d of %d", cfg.Rank, rank, size)
	}
	return int(rank), token, nil
}
