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
// rank, the cluster size and a caller-supplied configuration checksum.
// A mismatch in any of these aborts the bootstrap on both sides, so a
// worker started with the wrong flags — or built at a different
// wire-format version — fails loudly at connect time instead of
// training a silently divergent model.
//
// Hello frame, all little-endian: magic "GW2VMESH" (8 bytes),
// version (uint32), sender rank (uint32), cluster size (uint32),
// checksum (uint64), session token (uint64).
// See PROTOCOL.md §6.

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
	// Version 8 made session framing the only TCP framing and dropped
	// the hello's flags byte: healing is a per-rank policy, and every
	// hello carries a session token. Version 9 retired the touched
	// frame kind (10): overlapped rounds gate by master range only, and
	// a v8 peer overlapping in RepModel-Opt would still send kind 10.
	// Version 10 retired the raw and fp16 codecs: one vector-frame
	// encoding remains, so the hello lost its codec byte and a frame
	// with a retired flag byte fails with ErrRetiredCodec.
	// See PROTOCOL.md §7 for the bump policy.
	meshVersion = 10
	// meshPreambleBytes is the magic plus version, read and checked
	// before the version-dependent remainder of a hello.
	meshPreambleBytes = len(meshMagic) + 4
	// meshHelloBytes is the encoded hello size.
	meshHelloBytes = meshPreambleBytes + 4 + 4 + 8 + 8
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
	// Timeout bounds the whole bootstrap — listening, dialing every
	// peer (with retries while peers start up), and handshakes.
	// Zero means 30 seconds.
	Timeout time.Duration
	// TCP configures failure detection (heartbeats, read/write
	// deadlines, the healing policy and budget) on the resulting
	// transport. It is not part of the hello — ranks may differ in
	// Session, but should run the same heartbeat and deadline
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
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("gluon: mesh rank %d out of range [0,%d)", cfg.Rank, n)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)

	// The transport's session token identifies this incarnation in
	// resume hellos; peers learn it from the mesh hello below.
	t := newTCPTransport(cfg.Rank, n, cfg.TCP)
	t.resumeAddrs = append([]string(nil), cfg.Peers...)
	if n == 1 {
		return t, nil
	}

	// Ranks below us dial us; bind before dialing upward so no ordering
	// of process startup can deadlock the bootstrap. On a healing rank
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
		t.sess[w.peer].conn = w.conn
		t.peerTokens[w.peer] = w.token
	}
	if cfg.TCP.Session.Heal && cfg.Rank > 0 {
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

// meshHello is the decoded content of a hello frame.
type meshHello struct {
	Rank, Size int
	Checksum   uint64
	Token      uint64
}

// encodeMeshHello encodes hello h.
func encodeMeshHello(h meshHello) []byte {
	buf := make([]byte, 0, meshHelloBytes)
	buf = append(buf, meshMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, meshVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Size))
	buf = binary.LittleEndian.AppendUint64(buf, h.Checksum)
	return binary.LittleEndian.AppendUint64(buf, h.Token)
}

// checkMeshPreamble validates a hello's magic and version, which
// precede the version-dependent remainder.
func checkMeshPreamble(buf []byte) error {
	if len(buf) < meshPreambleBytes || string(buf[:len(meshMagic)]) != meshMagic {
		return fmt.Errorf("peer is not a gw2v worker (bad magic)")
	}
	if version := binary.LittleEndian.Uint32(buf[len(meshMagic):]); version != meshVersion {
		return fmt.Errorf("peer protocol version %d, want %d — all workers must run the same build (PROTOCOL.md §7)", version, meshVersion)
	}
	return nil
}

// parseMeshHello decodes one complete hello frame. It checks the
// framing only; agreement with this rank's configuration is readHello's
// job.
func parseMeshHello(buf []byte) (meshHello, error) {
	if err := checkMeshPreamble(buf); err != nil {
		return meshHello{}, err
	}
	if len(buf) != meshHelloBytes {
		return meshHello{}, fmt.Errorf("hello of %d bytes, want %d", len(buf), meshHelloBytes)
	}
	off := meshPreambleBytes
	return meshHello{
		Rank:     int(binary.LittleEndian.Uint32(buf[off:])),
		Size:     int(binary.LittleEndian.Uint32(buf[off+4:])),
		Checksum: binary.LittleEndian.Uint64(buf[off+8:]),
		Token:    binary.LittleEndian.Uint64(buf[off+16:]),
	}, nil
}

// writeHello sends this rank's hello frame.
func writeHello(conn net.Conn, cfg MeshConfig, sessToken uint64, deadline time.Time) error {
	conn.SetDeadline(deadline)
	buf := encodeMeshHello(meshHello{
		Rank: cfg.Rank, Size: len(cfg.Peers), Checksum: cfg.Checksum, Token: sessToken,
	})
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
	if _, err := io.ReadFull(conn, buf[:meshPreambleBytes]); err != nil {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d hello read: %w", cfg.Rank, err)
	}
	if err := checkMeshPreamble(buf); err != nil {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: %w", cfg.Rank, err)
	}
	if _, err := io.ReadFull(conn, buf[meshPreambleBytes:]); err != nil {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d hello read: %w", cfg.Rank, err)
	}
	h, err := parseMeshHello(buf)
	if err != nil {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: %w", cfg.Rank, err)
	}
	if h.Size != len(cfg.Peers) {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: peer cluster size %d, ours %d", cfg.Rank, h.Size, len(cfg.Peers))
	}
	if h.Checksum != cfg.Checksum {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: peer rank %d config checksum %#x, ours %#x — workers must share identical corpus and flags", cfg.Rank, h.Rank, h.Checksum, cfg.Checksum)
	}
	if h.Rank >= len(cfg.Peers) {
		return 0, 0, fmt.Errorf("gluon: mesh rank %d: peer claims rank %d of %d", cfg.Rank, h.Rank, h.Size)
	}
	return h.Rank, h.Token, nil
}
