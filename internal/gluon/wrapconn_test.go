package gluon

import (
	"net"
	"sync"
	"testing"
	"time"
)

// countedConn marks a connection that went through wrapCounter.wrap,
// with the (host, peer) the hook was given.
type countedConn struct {
	net.Conn
	host, peer int
}

// wrapCounter is a TCPOptions.WrapConn hook counting its calls per
// (host, peer).
type wrapCounter struct {
	mu    sync.Mutex
	calls map[[2]int]int
}

func (w *wrapCounter) wrap(host, peer int, c net.Conn) net.Conn {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.calls == nil {
		w.calls = make(map[[2]int]int)
	}
	w.calls[[2]int{host, peer}]++
	return &countedConn{Conn: c, host: host, peer: peer}
}

// expect checks that every ordered pair of the n hosts was wrapped want
// times, and nothing else was.
func (w *wrapCounter) expect(t *testing.T, n, want int) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.calls) != n*(n-1) {
		t.Errorf("hook saw %d (host, peer) pairs, want %d: %v", len(w.calls), n*(n-1), w.calls)
	}
	for h := 0; h < n; h++ {
		for g := 0; g < n; g++ {
			if got := w.calls[[2]int{h, g}]; h != g && got != want {
				t.Errorf("hook saw (host %d, peer %d) %d times, want %d", h, g, got, want)
			}
		}
	}
}

// installedWrapped checks that every session of tr runs on a connection
// the hook wrapped for (tr's host, that peer).
func installedWrapped(t *testing.T, tr *TCPTransport) {
	t.Helper()
	for g, ps := range tr.sess {
		if ps == nil {
			continue
		}
		ps.mu.Lock()
		c, ok := ps.conn.(*countedConn)
		ps.mu.Unlock()
		if !ok || c.host != tr.host || c.peer != g {
			t.Errorf("host %d: session with peer %d runs on %T %+v, want a connection wrapped for (%d, %d)",
				tr.host, g, ps.conn, c, tr.host, g)
		}
	}
}

// waitHeals waits until every transport has healed want times.
func waitHeals(t *testing.T, trs []*TCPTransport, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, tr := range trs {
		for tr.SessionStats().Heals < want {
			if time.Now().After(deadline) {
				t.Fatalf("host %d healed %d times, want %d", tr.host, tr.SessionStats().Heals, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWrapConnSeesEveryInstall: the WrapConn hook wraps every
// connection a session installs, with the right (host, peer) — the
// bootstrap connections of NewTCPClusterOpts and DialMesh, and the
// reconnect of a heal on both its dial and its accept side.
func TestWrapConnSeesEveryInstall(t *testing.T) {
	t.Run("cluster", func(t *testing.T) {
		var w wrapCounter
		opts := TCPOptions{WrapConn: w.wrap}
		trs, err := NewTCPClusterOpts(3, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer closeAll(trs)
		w.expect(t, 3, 1)
		for _, tr := range trs {
			installedWrapped(t, tr)
		}
	})

	t.Run("mesh", func(t *testing.T) {
		const n = 3
		var w wrapCounter
		addrs := meshAddrs(t, n)
		trs := make([]*TCPTransport, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				cfg := MeshConfig{Rank: r, Peers: addrs, Checksum: 7, Timeout: 10 * time.Second}
				cfg.TCP.WrapConn = w.wrap
				trs[r], errs[r] = DialMesh(cfg)
			}(r)
		}
		wg.Wait()
		defer closeAll(trs)
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		w.expect(t, n, 1)
		for _, tr := range trs {
			installedWrapped(t, tr)
		}
	})

	t.Run("heal", func(t *testing.T) {
		var w wrapCounter
		opts := sessionTestOpts()
		opts.WrapConn = w.wrap
		trs, err := NewTCPClusterOpts(2, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer closeAll(trs)
		// Reset the link from host 0, the side that redials, then from
		// host 1, the side that accepts the redial: each heal installs
		// one new connection at both ends.
		for i, breaker := range []int{0, 1} {
			breakConn(t, trs[breaker], 1-breaker)
			if err := trs[0].Send(0, 1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if _, p, err := trs[1].Recv(1); err != nil || len(p) != 1 || p[0] != byte(i) {
				t.Fatalf("after reset %d: Recv = (%v, %v)", i, p, err)
			}
			waitHeals(t, trs, i+1)
			w.expect(t, 2, i+2)
			for _, tr := range trs {
				installedWrapped(t, tr)
			}
		}
	})
}

// TestRedialBoundsFromBudget: the redial backoff derives from the
// healing budget — a twentieth of it, capped at 500ms, with a floor of
// a fiftieth of the cap — so the 10s default keeps 10ms / 500ms.
func TestRedialBoundsFromBudget(t *testing.T) {
	for _, tc := range []struct{ budget, lo, hi time.Duration }{
		{10 * time.Second, 10 * time.Millisecond, 500 * time.Millisecond},
		{3 * time.Second, 3 * time.Millisecond, 150 * time.Millisecond},
		{300 * time.Millisecond, 300 * time.Microsecond, 15 * time.Millisecond},
	} {
		if lo, hi := redialBounds(tc.budget); lo != tc.lo || hi != tc.hi {
			t.Errorf("redialBounds(%v) = %v / %v, want %v / %v", tc.budget, lo, hi, tc.lo, tc.hi)
		}
	}
}
