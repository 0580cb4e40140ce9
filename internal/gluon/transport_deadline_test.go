package gluon

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// pipeTransport runs host 0 of an n-host transport whose only wired
// connection is an in-memory pipe to peer, so tests can hand-craft the
// bytes that peer sends (and refuse to read what host 0 writes).
func pipeTransport(t *testing.T, n, peer int, opts TCPOptions) (*TCPTransport, net.Conn) {
	t.Helper()
	tr := newTCPTransport(0, n, opts)
	ours, theirs := net.Pipe()
	tr.sess[peer].conn = ours
	tr.startReaders()
	t.Cleanup(func() { tr.Close(); theirs.Close() })
	return tr, theirs
}

// failingWrites is a connection whose writes fail the way writes to a
// peer that has just closed do, while its reads stay open.
type failingWrites struct{ net.Conn }

func (failingWrites) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// racedWrites fails its writes to host 1 just after the reader has
// torn the same connection down on a dropped read.
type racedWrites struct {
	net.Conn
	tr *TCPTransport
}

func (c racedWrites) Write([]byte) (int, error) {
	ps := c.tr.sess[1]
	ps.mu.Lock()
	gen := ps.gen
	ps.mu.Unlock()
	c.tr.sessionBroken(1, gen, linkDrop{io.EOF})
	return 0, io.ErrClosedPipe
}

// within runs a blocking transport call off the test goroutine and
// fails the test if it has not returned within 10s.
func within(t *testing.T, call func() ([]byte, error)) ([]byte, error) {
	t.Helper()
	type result struct {
		payload []byte
		err     error
	}
	done := make(chan result, 1)
	go func() {
		p, err := call()
		done <- result{p, err}
	}()
	select {
	case r := <-done:
		return r.payload, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("transport call hung")
		return nil, nil
	}
}

// TestTCPDeadlineTable is the heal-off error-class contract: with
// Session.Heal off every way a link can fail surfaces as exactly one
// class. A slow peer (sends late, or nothing but heartbeats) trips
// nothing. A hung peer — silent past the read deadline, or not reading
// past the write deadline — and a dead peer (connection dropped and
// the transport still open past the budget) are ErrPeerLost with the
// peer in LostPeers. A drop that the transport's own Close follows
// within the budget is a clean shutdown: ErrTransportClosed, nobody
// lost. A malformed frame poisons the transport with its framing
// error, which is not ErrPeerLost and condemns no peer.
func TestTCPDeadlineTable(t *testing.T) {
	payload := []byte("round-data")
	valid := sessionFrameAppend(nil, 1, 1, 0, barrierMessage(3))
	// cluster runs a 2-host loopback cluster: peer drives host 1 (and
	// may close host 0 too) while host 0 blocks in Recv.
	cluster := func(opts TCPOptions, peer func(trs []*TCPTransport)) func(*testing.T) (*TCPTransport, []byte, error) {
		return func(t *testing.T) (*TCPTransport, []byte, error) {
			trs, err := NewTCPClusterOpts(2, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { closeAll(trs) })
			go peer(trs)
			p, err := within(t, func() ([]byte, error) { _, p, err := trs[0].Recv(0); return p, err })
			return trs[0], p, err
		}
	}
	// inject feeds raw bytes to host 0 of 3 as if host 1 sent them.
	inject := func(frame []byte) func(*testing.T) (*TCPTransport, []byte, error) {
		return func(t *testing.T) (*TCPTransport, []byte, error) {
			tr, raw := pipeTransport(t, 3, 1, TCPOptions{})
			go raw.Write(frame)
			p, err := within(t, func() ([]byte, error) { _, p, err := tr.Recv(0); return p, err })
			return tr, p, err
		}
	}
	cases := []struct {
		name string
		run  func(*testing.T) (*TCPTransport, []byte, error)
		// want: "" = payload delivered, "lost" = ErrPeerLost,
		// "closed" = clean shutdown, else a framing-error substring.
		want string
	}{
		{
			name: "slow-peer-within-deadline",
			run: cluster(TCPOptions{ReadTimeout: 2 * time.Second}, func(trs []*TCPTransport) {
				time.Sleep(100 * time.Millisecond)
				trs[1].Send(1, 0, payload)
			}),
		},
		{
			// The peer is silent far past the read deadline, but its
			// heartbeats keep the connection visibly alive — the long
			// compute phase of a real run.
			name: "slow-peer-kept-alive-by-heartbeats",
			run: cluster(TCPOptions{ReadTimeout: 250 * time.Millisecond, HeartbeatInterval: 50 * time.Millisecond}, func(trs []*TCPTransport) {
				time.Sleep(700 * time.Millisecond)
				trs[1].Send(1, 0, payload)
			}),
		},
		{
			// Open connection, eternal silence. Both ends hear nothing;
			// if host 1's deadline fires first, host 0 sees its close
			// instead, a drop the budget turns into the same verdict.
			name: "hung-peer-trips-read-deadline",
			run:  cluster(TCPOptions{ReadTimeout: 200 * time.Millisecond}, func([]*TCPTransport) {}),
			want: "lost",
		},
		{
			// Host 0 leaves its inbox full for far longer than the
			// ack-stall timeout, so host 1's frames go unacknowledged;
			// its heartbeats still flow, and without healing a stalled
			// ack is no verdict (the write deadline covers a reader that
			// never drains).
			name: "slow-consumer-kept-alive-by-heartbeats",
			run: func(t *testing.T) (*TCPTransport, []byte, error) {
				trs, err := NewTCPClusterOpts(2, TCPOptions{
					HeartbeatInterval: 10 * time.Millisecond,
					ReadTimeout:       200 * time.Millisecond,
					Session:           SessionOptions{HealBudget: time.Second},
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { closeAll(trs) })
				const backlog = 100 // past host 0's 32-message inbox
				for i := 0; i < backlog; i++ {
					if err := trs[1].Send(1, 0, []byte{byte(i)}); err != nil {
						t.Fatalf("send %d: %v", i, err)
					}
				}
				time.Sleep(time.Second)
				if err := trs[1].Send(1, 0, payload); err != nil {
					t.Fatalf("send after the stall: %v", err)
				}
				p, err := within(t, func() ([]byte, error) {
					for i := 0; i < backlog; i++ {
						if _, _, err := trs[0].Recv(0); err != nil {
							return nil, err
						}
					}
					_, p, err := trs[0].Recv(0)
					return p, err
				})
				return trs[0], p, err
			},
		},
		{
			// Host 1 never reads: the unbuffered pipe blocks the very
			// first write until the deadline expires.
			name: "hung-reader-trips-write-deadline",
			run: func(t *testing.T) (*TCPTransport, []byte, error) {
				tr, _ := pipeTransport(t, 2, 1, TCPOptions{WriteTimeout: 200 * time.Millisecond})
				_, err := within(t, func() ([]byte, error) { return nil, tr.Send(0, 1, payload) })
				return tr, nil, err
			},
			want: "lost",
		},
		{
			name: "dead-peer-trips-grace",
			run: cluster(TCPOptions{Session: SessionOptions{HealBudget: 100 * time.Millisecond}}, func(trs []*TCPTransport) {
				trs[1].Close()
			}),
			want: "lost",
		},
		{
			name: "clean-close-within-budget",
			run: cluster(TCPOptions{Session: SessionOptions{HealBudget: 5 * time.Second}}, func(trs []*TCPTransport) {
				trs[1].Close()
				time.Sleep(50 * time.Millisecond)
				trs[0].Close()
			}),
			want: "closed",
		},
		{
			// A failed heartbeat write may be a peer mid clean shutdown,
			// so like a failed read it gets the budget, not a verdict.
			name: "failed-heartbeat-within-budget",
			run: func(t *testing.T) (*TCPTransport, []byte, error) {
				tr := newTCPTransport(0, 2, TCPOptions{HeartbeatInterval: 5 * time.Millisecond})
				ours, theirs := net.Pipe()
				t.Cleanup(func() { tr.Close(); theirs.Close() })
				ps := tr.sess[1]
				ps.conn = failingWrites{ours}
				tr.startReaders()
				for torn := false; !torn; time.Sleep(time.Millisecond) {
					ps.mu.Lock()
					torn = ps.conn == nil
					ps.mu.Unlock()
				}
				tr.Close()
				_, err := within(t, func() ([]byte, error) { _, _, err := tr.Recv(0); return nil, err })
				return tr, nil, err
			},
			want: "closed",
		},
		{
			// The reader reported the drop first, so the failed data
			// write is a stale break — the frame is still lost, and
			// Send must say so rather than succeed.
			name: "write-fails-after-reader-drop",
			run: func(t *testing.T) (*TCPTransport, []byte, error) {
				tr := newTCPTransport(0, 2, TCPOptions{})
				ours, theirs := net.Pipe()
				t.Cleanup(func() { tr.Close(); theirs.Close() })
				tr.sess[1].conn = racedWrites{ours, tr}
				tr.startReaders()
				_, err := within(t, func() ([]byte, error) { return nil, tr.Send(0, 1, payload) })
				return tr, nil, err
			},
			want: "lost",
		},
		{
			name: "oversized-frame",
			run: inject(func() []byte {
				f := append([]byte(nil), valid...)
				binary.LittleEndian.PutUint32(f[4:], 0xFFFFFFF0)
				return f
			}()),
			want: "exceeds limit",
		},
		{
			name: "sender-mismatch",
			run:  inject(sessionFrameAppend(nil, 2, 1, 0, barrierMessage(3))), // host 2's frame on host 1's conn
			want: "claims sender",
		},
		{
			name: "crc-mismatch",
			run: inject(func() []byte {
				f := append([]byte(nil), valid...)
				f[len(f)-1] ^= 0x10
				return f
			}()),
			want: "fails CRC",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, got, err := tc.run(t)
			lost := tr.LostPeers()
			switch tc.want {
			case "":
				if err != nil || string(got) != string(payload) {
					t.Fatalf("Recv = (%q, %v), want %q", got, err, payload)
				}
			case "lost":
				if !errors.Is(err, ErrPeerLost) {
					t.Fatalf("error = %v, want ErrPeerLost", err)
				}
				if len(lost) != 1 || lost[0] != 1 {
					t.Fatalf("LostPeers = %v, want [1]", lost)
				}
				// The verdict poisons the transport: every caller sees it.
				if _, _, err := tr.Recv(0); !errors.Is(err, ErrPeerLost) {
					t.Fatalf("Recv on poisoned transport = %v, want ErrPeerLost", err)
				}
			case "closed":
				if !errors.Is(err, ErrTransportClosed) {
					t.Fatalf("Recv = %v, want ErrTransportClosed", err)
				}
				if len(lost) != 0 {
					t.Fatalf("clean close left LostPeers = %v", lost)
				}
			default:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Recv = %v, want framing error mentioning %q", err, tc.want)
				}
				if errors.Is(err, ErrPeerLost) || len(lost) != 0 {
					t.Fatalf("malformed frame reported as peer loss: %v, LostPeers %v", err, lost)
				}
				// Send on the poisoned transport reports the same failure.
				if err := tr.Send(0, 1, []byte("x")); err == nil {
					t.Fatal("send on poisoned transport accepted")
				}
			}
		})
	}
}

// TestTCPWriteDeadlineHungReader: a peer that stops draining its
// socket eventually blocks senders on a full TCP window; the write
// deadline must convert that into ErrPeerLost for everyone instead of
// a permanent stall.
func TestTCPWriteDeadlineHungReader(t *testing.T) {
	trs, err := NewTCPClusterOpts(2, TCPOptions{WriteTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(trs)

	// Host 1 never calls Recv: its read loop parks once the inbox
	// fills, then the kernel buffers fill, then host 0's writes stall.
	big := make([]byte, 1<<20)
	var sendErr error
	for i := 0; i < 256; i++ {
		if sendErr = trs[0].Send(0, 1, big); sendErr != nil {
			break
		}
	}
	if !errors.Is(sendErr, ErrPeerLost) {
		t.Fatalf("send to hung reader = %v, want ErrPeerLost", sendErr)
	}
	// The stall poisons the transport: peers blocked elsewhere see it too.
	if _, _, err := trs[0].Recv(0); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("Recv on poisoned transport = %v, want ErrPeerLost", err)
	}
}
