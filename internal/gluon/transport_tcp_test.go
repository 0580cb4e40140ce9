package gluon

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTCPPerPairOrdering: the BSP protocol depends on per-(sender,
// receiver) FIFO ordering even when many goroutines send concurrently.
// Two hosts blast interleaved sequences at a third; each sender's
// stream must arrive monotonically.
func TestTCPPerPairOrdering(t *testing.T) {
	trs, err := NewTCPCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(trs)

	const msgs = 200
	var wg sync.WaitGroup
	for _, sender := range []int{1, 2} {
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
	next := map[int]uint32{1: 0, 2: 0}
	for got := 0; got < 2*msgs; got++ {
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

// TestTCPCloseWhileRecv: a Recv blocked on an idle transport must
// unblock with ErrTransportClosed when the transport closes under it,
// after draining anything already queued.
func TestTCPCloseWhileRecv(t *testing.T) {
	trs, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := trs[1].Send(1, 0, []byte("queued")); err != nil {
		t.Fatal(err)
	}
	// Wait for the frame to cross the socket so close cannot race it.
	from, payload, err := trs[0].Recv(0)
	if err != nil || from != 1 || string(payload) != "queued" {
		t.Fatalf("Recv = (%d, %q, %v)", from, payload, err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := trs[0].Recv(0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	closeAll(trs)
	select {
	case err := <-done:
		if !errors.Is(err, ErrTransportClosed) {
			t.Fatalf("Recv after close = %v, want ErrTransportClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock after Close")
	}
}

// TestTCPSendRejectsOversizedPayload: the sender refuses to emit a frame
// larger than the protocol limit instead of poisoning the peer.
func TestTCPSendRejectsOversizedPayload(t *testing.T) {
	old := maxFrameBytes
	maxFrameBytes = 1024
	defer func() { maxFrameBytes = old }()

	trs, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(trs)
	if err := trs[0].Send(0, 1, make([]byte, 2048)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	// The transport stays usable for legal frames.
	if err := trs[0].Send(0, 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, p, err := trs[1].Recv(1); err != nil || string(p) != "ok" {
		t.Fatalf("Recv after rejected send = (%q, %v)", p, err)
	}
}

// TestTCPPeerLossPoisonsAfterGrace: a peer that crashes and never comes
// back outlasts the heal budget, so a blocked Recv returns ErrPeerLost
// instead of hanging, and the dead peer is the one recorded as lost.
func TestTCPPeerLossPoisonsAfterGrace(t *testing.T) {
	trs, err := NewTCPClusterOpts(2, TCPOptions{Session: SessionOptions{HealBudget: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(trs)

	done := make(chan error, 1)
	go func() {
		_, _, err := trs[0].Recv(0)
		done <- err
	}()
	trs[1].Close() // peer "crashes"
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerLost) || !strings.Contains(err.Error(), "lost") {
			t.Fatalf("Recv after peer loss = %v, want ErrPeerLost", err)
		}
		if lost := trs[0].LostPeers(); len(lost) != 1 || lost[0] != 1 {
			t.Fatalf("LostPeers = %v, want [1]", lost)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv hung after peer loss")
	}
}

// meshAddrs reserves n distinct loopback addresses. The listeners are
// closed before DialMesh rebinds them; the race window is negligible in
// practice and the test retries are DialMesh's own.
func meshAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestDialMeshConnectsAndRoutes: a 3-rank mesh bootstrapped from
// separate goroutines (standing in for separate processes) must deliver
// every pairwise message.
func TestDialMeshConnectsAndRoutes(t *testing.T) {
	const n = 3
	addrs := meshAddrs(t, n)
	trs := make([]*TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = DialMesh(MeshConfig{Rank: r, Peers: addrs, Checksum: 99, Timeout: 10 * time.Second})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer closeAll(trs)

	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			if err := trs[from].Send(from, to, []byte{byte(10*from + to)}); err != nil {
				t.Fatalf("send %d→%d: %v", from, to, err)
			}
		}
	}
	for to := 0; to < n; to++ {
		got := map[int]byte{}
		for i := 0; i < n-1; i++ {
			from, payload, err := trs[to].Recv(to)
			if err != nil {
				t.Fatalf("recv at %d: %v", to, err)
			}
			got[from] = payload[0]
		}
		for from := 0; from < n; from++ {
			if from == to {
				continue
			}
			if got[from] != byte(10*from+to) {
				t.Fatalf("host %d got %v from %d", to, got[from], from)
			}
		}
	}
}

// TestDialMeshChecksumMismatch: a worker whose configuration fingerprint
// disagrees must be refused during the handshake.
func TestDialMeshChecksumMismatch(t *testing.T) {
	addrs := meshAddrs(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	trs := make([]*TCPTransport, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = DialMesh(MeshConfig{Rank: r, Peers: addrs, Checksum: uint64(r), Timeout: 5 * time.Second})
		}(r)
	}
	wg.Wait()
	closeAll(trs)
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("mismatched checksums accepted by both ranks")
	}
	// The side that detects the mismatch names it; the other side may
	// only observe the resulting hangup.
	mentioned := false
	for _, err := range errs {
		if err != nil && strings.Contains(err.Error(), "checksum") {
			mentioned = true
		}
	}
	if !mentioned {
		t.Errorf("neither error mentions checksum: %v / %v", errs[0], errs[1])
	}
}

// TestDialMeshValidation: bad configurations fail fast.
func TestDialMeshValidation(t *testing.T) {
	if _, err := DialMesh(MeshConfig{Rank: 0, Peers: nil}); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := DialMesh(MeshConfig{Rank: 5, Peers: []string{"a", "b"}}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	// Single-rank mesh needs no sockets at all.
	tr, err := DialMesh(MeshConfig{Rank: 0, Peers: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatalf("single-rank mesh: %v", err)
	}
	if tr.NumHosts() != 1 {
		t.Errorf("NumHosts = %d", tr.NumHosts())
	}
	tr.Close()
}

// TestDialMeshTimeout: a rank whose peers never come up must give up
// with a dial error rather than blocking forever.
func TestDialMeshTimeout(t *testing.T) {
	addrs := meshAddrs(t, 2)
	start := time.Now()
	_, err := DialMesh(MeshConfig{Rank: 0, Peers: addrs, Timeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("mesh with absent peer connected")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Errorf("error %v does not mention dialing", err)
	}
}
