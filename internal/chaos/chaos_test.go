package chaos

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/combine"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/graph"
	"graphword2vec/internal/model"
)

// TestChaosScheduleDeterministic: the injection schedule is a pure
// function of (seed, sender, receiver, frame ordinal). Two directions
// built from the same coordinates classify a frame stream identically,
// action and argument alike. The counters fire at the same ordinals in
// every direction, so the reverse direction differs only in its rng:
// the corrupt bit positions.
func TestChaosScheduleDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, DropEvery: 3, DupEvery: 5, CorruptEvery: 7, ReorderEvery: 11}
	type step struct {
		act action
		arg int
	}
	run := func(from, to int) []step {
		d := newDirection(plan, from, to)
		steps := make([]step, 100)
		for i := range steps {
			steps[i].act, steps[i].arg = d.next(nil)
		}
		return steps
	}
	corruptBits := func(steps []step) []int {
		var bits []int
		for _, s := range steps {
			if s.act == corrupt {
				bits = append(bits, s.arg)
			}
		}
		return bits
	}
	a, b := run(0, 1), run(0, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d: same direction classified %v then %v", i+1, a[i], b[i])
		}
	}
	fwd, rev := corruptBits(a), corruptBits(run(1, 0))
	if len(fwd) == 0 || len(fwd) != len(rev) {
		t.Fatalf("corrupt frames: %d forward, %d reverse, want the same nonzero count", len(fwd), len(rev))
	}
	for i := range fwd {
		if fwd[i] != rev[i] {
			return
		}
	}
	t.Fatalf("both directions drew the corrupt bit stream %v", fwd)
}

// recorder is a Transport that keeps a copy of every frame host 0 sends.
type recorder struct {
	gluon.Transport
	mu   sync.Mutex
	sent [][]byte
}

func (r *recorder) Send(from, to int, payload []byte) error {
	if from == 0 {
		r.mu.Lock()
		r.sent = append(r.sent, append([]byte(nil), payload...))
		r.mu.Unlock()
	}
	return r.Transport.Send(from, to, payload)
}

// hostZeroFrames runs sync rounds 0–3 and a barrier tagged 5 on a
// 2-host in-process cluster and returns the wire frames host 0 sent.
func hostZeroFrames(t *testing.T) [][]byte {
	t.Helper()
	const hosts, nodes, dim = 2, 8, 2
	tr, err := gluon.NewInProcTransport(hosts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rec := &recorder{Transport: tr}
	part, err := graph.NewPartition(nodes, hosts)
	if err != nil {
		t.Fatal(err)
	}
	init := model.New(nodes, dim)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		var ht gluon.Transport = tr
		if h == 0 {
			ht = rec
		}
		hs, err := gluon.NewHostSync(h, part, ht, dim, gluon.RepModelOpt, combine.Sum{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			local, base := init.Clone(), init.Clone()
			touched := bitset.New(nodes)
			touched.Set(h)
			for round := uint32(0); round < 4 && errs[h] == nil; round++ {
				if errs[h] = hs.SyncStart(round, local, base, touched, nil); errs[h] == nil {
					errs[h] = hs.SyncFinish()
				}
			}
			if errs[h] == nil {
				errs[h] = hs.Barrier(5)
			}
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
	return rec.sent
}

// TestChaosStormTrigger: the storm arms on the first reduce frame at or
// past StormRound and then resets every write, unconditionally.
func TestChaosStormTrigger(t *testing.T) {
	frames := hostZeroFrames(t)
	frame := func(kind byte, round uint32) []byte {
		t.Helper()
		for _, f := range frames {
			if k, r := gluon.InspectFrame(f); k == kind && r == round {
				return f
			}
		}
		t.Fatalf("host 0 sent no frame of kind %d for round %d", kind, round)
		return nil
	}
	d := newDirection(Plan{StormRound: 3}, 0, 1)
	if a, _ := d.next(frame(gluon.FrameReduce, 2)); a != pass {
		t.Fatalf("round-2 reduce classified %v, want pass", a)
	}
	if a, _ := d.next(frame(gluon.FrameBarrier, 5)); a != pass {
		t.Fatalf("barrier classified %v, want pass", a)
	}
	if a, _ := d.next(frame(gluon.FrameReduce, 3)); a != reset {
		t.Fatal("round-3 reduce did not arm the storm")
	}
	for i := 0; i < 5; i++ {
		if a, _ := d.next(frame(gluon.FrameBarrier, 5)); a != reset {
			t.Fatalf("post-storm frame %d classified %v, want reset", i, a)
		}
	}
}

// clusterTest sends 200 numbered messages from host 1 to host 0 of a
// 2-host healing TCP cluster whose connections the plan's Injector
// wraps, and asserts exactly-once in-order delivery plus the expected
// healing evidence.
func clusterTest(t *testing.T, plan Plan, wantHeals bool) {
	t.Helper()
	const msgs = 200
	inj := New(plan)
	trs, err := gluon.NewTCPClusterOpts(2, gluon.TCPOptions{
		HeartbeatInterval: 10 * time.Millisecond,
		ReadTimeout:       250 * time.Millisecond,
		WriteTimeout:      2 * time.Second,
		Session:           gluon.SessionOptions{Heal: true, HealBudget: 5 * time.Second},
		WrapConn:          inj.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := trs[1].Send(1, 0, binary.LittleEndian.AppendUint32(nil, uint32(i))); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	for i := 0; i < msgs; i++ {
		from, payload, err := trs[0].Recv(0)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint32(payload); from != 1 || got != uint32(i) {
			t.Fatalf("message %d arrived as (host %d, seq %d)", i, from, got)
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}
	injections := inj.Injections()
	if injections == 0 {
		t.Fatal("chaos plan injected nothing")
	}
	if wantHeals {
		if heals := trs[0].SessionStats().Heals + trs[1].SessionStats().Heals; heals == 0 {
			t.Fatalf("%d injections healed zero times", injections)
		}
	}
}

// Every fault class the injector fires must be invisible above the
// transport: the 200-message FIFO blast still delivers exactly once, in
// order. Classes that structurally force a reconnect (corruption,
// resets, delays past the read deadline, blackholes) must also show
// heals; drops/dups/reorders may be absorbed by retransmission alone
// when they hit heartbeats.
func TestChaosDropsHeal(t *testing.T)    { clusterTest(t, Plan{Seed: 1, DropEvery: 6}, false) }
func TestChaosDupsAbsorbed(t *testing.T) { clusterTest(t, Plan{Seed: 2, DupEvery: 6}, false) }
func TestChaosReorderHeals(t *testing.T) {
	clusterTest(t, Plan{Seed: 3, ReorderEvery: 8}, false)
}
func TestChaosCorruptionHeals(t *testing.T) {
	clusterTest(t, Plan{Seed: 4, CorruptEvery: 10}, true)
}
func TestChaosResetsHeal(t *testing.T) {
	clusterTest(t, Plan{Seed: 5, ResetEvery: 25}, true)
}
func TestChaosSlowLinkHeals(t *testing.T) {
	clusterTest(t, Plan{Seed: 6, DelayEvery: 40, Delay: 400 * time.Millisecond}, true)
}
func TestChaosBlackholeHeals(t *testing.T) {
	clusterTest(t, Plan{Seed: 7, BlackholeAfter: 30, BlackholeFrames: 20}, true)
}

// TestChaosCombined: several fault classes at once — the worst network
// in the matrix — must still deliver the blast exactly once, in order.
func TestChaosCombined(t *testing.T) {
	clusterTest(t, Plan{
		Seed: 8, DropEvery: 13, DupEvery: 17, ReorderEvery: 19, CorruptEvery: 23, ResetEvery: 61,
	}, false)
}
