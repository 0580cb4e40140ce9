package gluon

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/combine"
	"graphword2vec/internal/graph"
	"graphword2vec/internal/model"
	"graphword2vec/internal/xrand"
)

// cluster is a test harness: H hosts with identical initial replicas.
type cluster struct {
	hosts int
	nodes int
	dim   int
	part  *graph.Partition
	tr    Transport
	syncs []*HostSync
	local []*model.Model
	base  []*model.Model
}

func newCluster(t testing.TB, hosts, nodes, dim int, mode Mode, combName string) *cluster {
	t.Helper()
	part, err := graph.NewPartition(nodes, hosts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewInProcTransport(hosts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	c := &cluster{hosts: hosts, nodes: nodes, dim: dim, part: part, tr: tr}
	init := model.New(nodes, dim)
	init.InitRandom(1234)
	for h := 0; h < hosts; h++ {
		hs, err := NewHostSync(h, part, tr, dim, mode, combine.ByName(combName, 2*dim))
		if err != nil {
			t.Fatal(err)
		}
		c.syncs = append(c.syncs, hs)
		c.local = append(c.local, init.Clone())
		c.base = append(c.base, init.Clone())
	}
	return c
}

// perturb applies a deterministic pseudo-update on host h: each listed
// node's labels get +delta (distinct per host and node).
func (c *cluster) perturb(h int, nodes []int, scale float32) *bitset.Bitset {
	touched := bitset.New(c.nodes)
	for _, n := range nodes {
		touched.Set(n)
		emb := c.local[h].EmbRow(int32(n))
		ctx := c.local[h].CtxRow(int32(n))
		for d := 0; d < c.dim; d++ {
			emb[d] += scale * float32(h+1) * float32(n+1) / float32(d+1)
			ctx[d] -= scale * float32(h+1) / float32(n+d+1)
		}
	}
	return touched
}

// Sync runs one whole synchronisation round, SyncStart then SyncFinish
// with nothing computed in between: the serialized round of the engine.
func (hs *HostSync) Sync(round uint32, local, base *model.Model, touched *bitset.Bitset, nextAccess *bitset.Bitset) error {
	if err := hs.SyncStart(round, local, base, touched, nextAccess); err != nil {
		return err
	}
	return hs.SyncFinish()
}

// syncAll runs one synchronisation round on every host concurrently.
func (c *cluster) syncAll(t testing.TB, round uint32, touched []*bitset.Bitset, access []*bitset.Bitset) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, c.hosts)
	for h := 0; h < c.hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			var acc *bitset.Bitset
			if access != nil {
				acc = access[h]
			}
			errs[h] = c.syncs[h].Sync(round, c.local[h], c.base[h], touched[h], acc)
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d sync: %v", h, err)
		}
	}
}

// replicasEqual verifies all hosts hold identical replicas.
func (c *cluster) replicasEqual(t testing.TB) {
	t.Helper()
	ref := c.local[0]
	for h := 1; h < c.hosts; h++ {
		for i := range ref.Emb.Data {
			if c.local[h].Emb.Data[i] != ref.Emb.Data[i] {
				t.Fatalf("host %d Emb[%d] = %v, host 0 has %v", h, i, c.local[h].Emb.Data[i], ref.Emb.Data[i])
			}
			if c.local[h].Ctx.Data[i] != ref.Ctx.Data[i] {
				t.Fatalf("host %d Ctx[%d] differs", h, i)
			}
		}
	}
}

func allNodesBitset(n int) *bitset.Bitset {
	b := bitset.New(n)
	for i := 0; i < n; i++ {
		b.Set(i)
	}
	return b
}

func TestSyncSingleHostNoTraffic(t *testing.T) {
	c := newCluster(t, 1, 10, 4, RepModelOpt, "MC")
	touched := c.perturb(0, []int{2, 5}, 0.1)
	c.syncAll(t, 0, []*bitset.Bitset{touched}, nil)
	st := c.syncs[0].Stats()
	if st.TotalBytes() != 0 || st.Messages != 0 {
		t.Errorf("single host sent traffic: %+v", st)
	}
	// local must equal base after sync (canonical committed).
	for i := range c.local[0].Emb.Data {
		if c.local[0].Emb.Data[i] != c.base[0].Emb.Data[i] {
			t.Fatal("local != base after single-host sync")
		}
	}
}

func TestSyncReplicasConvergeAllModes(t *testing.T) {
	for _, mode := range []Mode{RepModelNaive, RepModelOpt} {
		for _, comb := range []string{"SUM", "AVG", "MC"} {
			t.Run(fmt.Sprintf("%v/%s", mode, comb), func(t *testing.T) {
				c := newCluster(t, 4, 40, 6, mode, comb)
				touched := make([]*bitset.Bitset, 4)
				for h := 0; h < 4; h++ {
					// Overlapping node sets across hosts.
					touched[h] = c.perturb(h, []int{h, h + 1, 20, 30 + h}, 0.05)
				}
				c.syncAll(t, 0, touched, nil)
				c.replicasEqual(t)
			})
		}
	}
}

func TestSyncNaiveAndOptSameResult(t *testing.T) {
	// Dense and sparse communication must produce bit-identical models.
	run := func(mode Mode) *model.Model {
		c := newCluster(t, 3, 30, 4, mode, "MC")
		touched := make([]*bitset.Bitset, 3)
		for h := 0; h < 3; h++ {
			touched[h] = c.perturb(h, []int{h * 3, h*3 + 1, 15}, 0.1)
		}
		c.syncAll(t, 0, touched, nil)
		return c.local[0]
	}
	a, b := run(RepModelNaive), run(RepModelOpt)
	for i := range a.Emb.Data {
		if a.Emb.Data[i] != b.Emb.Data[i] || a.Ctx.Data[i] != b.Ctx.Data[i] {
			t.Fatalf("Naive and Opt diverge at %d", i)
		}
	}
}

func TestSyncOptCheaperThanNaive(t *testing.T) {
	// Measured in entries shipped: the scheme comparison is about which
	// entries ship at all, and byte counts would blur it by collapsing
	// Naive's untouched entries to two mask bits each.
	volume := func(mode Mode) int64 {
		c := newCluster(t, 4, 400, 8, mode, "MC")
		touched := make([]*bitset.Bitset, 4)
		for h := 0; h < 4; h++ {
			touched[h] = c.perturb(h, []int{h, 100 + h}, 0.1) // sparse updates
		}
		acc := make([]*bitset.Bitset, 4)
		for h := range acc {
			acc[h] = allNodesBitset(400)
		}
		c.syncAll(t, 0, touched, acc)
		var total int64
		for _, hs := range c.syncs {
			total += hs.Stats().ReduceEntries + hs.Stats().BroadcastEntries
		}
		return total
	}
	naive, opt := volume(RepModelNaive), volume(RepModelOpt)
	if opt*4 > naive {
		t.Errorf("sparse updates: opt volume %d should be ≪ naive %d", opt, naive)
	}
}

// TestSyncPackedCheaperThanRaw: on sparse rounds the vector-frame
// encoding must cut volume substantially versus the uncompressed v1
// format's arithmetic size (Stats.RawBytes). The update pattern mirrors
// SGNS sparse rounds: most touched nodes are negatives/contexts whose
// delta lives in one half only.
func TestSyncPackedCheaperThanRaw(t *testing.T) {
	const hosts, dim = 4, 8
	c := newCluster(t, hosts, 400, dim, RepModelOpt, "MC")
	touched := make([]*bitset.Bitset, hosts)
	for h := 0; h < hosts; h++ {
		touched[h] = bitset.New(400)
		for i := 0; i < 12; i++ {
			n := 30*i + h
			touched[h].Set(n)
			if i == 0 {
				// One "center word": both halves move.
				c.local[h].EmbRow(int32(n))[0] += 0.5
				c.local[h].CtxRow(int32(n))[1] -= 0.25
			} else {
				// Context/negative updates: training half only.
				c.local[h].CtxRow(int32(n))[2] += float32(h+i) * 0.01
			}
		}
	}
	c.syncAll(t, 0, touched, nil)
	var raw, packed int64
	for _, hs := range c.syncs {
		st := hs.Stats()
		rawReduce, rawBcast := st.RawBytes(hosts, dim)
		raw += rawReduce + rawBcast + st.ControlBytes
		packed += st.TotalBytes()
	}
	if packed >= raw {
		t.Fatalf("packed volume %d not below raw %d", packed, raw)
	}
	if float64(packed) > 0.7*float64(raw) {
		t.Errorf("packed volume %d saves less than 30%% of raw %d on sparse rounds", packed, raw)
	}
}

func TestSyncAvgMatchesManualComputation(t *testing.T) {
	// Two hosts, one shared node, AVG combiner: canonical must be
	// base + (d0+d1)/2.
	c := newCluster(t, 2, 4, 2, RepModelOpt, "AVG")
	before := c.base[0].Clone()
	t0 := c.perturb(0, []int{1}, 0.5)
	t1 := c.perturb(1, []int{1}, 0.25)
	d0 := make([]float32, 2)
	d1 := make([]float32, 2)
	for d := 0; d < 2; d++ {
		d0[d] = c.local[0].EmbRow(1)[d] - before.EmbRow(1)[d]
		d1[d] = c.local[1].EmbRow(1)[d] - before.EmbRow(1)[d]
	}
	c.syncAll(t, 0, []*bitset.Bitset{t0, t1}, nil)
	for d := 0; d < 2; d++ {
		want := before.EmbRow(1)[d] + (d0[d]+d1[d])/2
		got := c.local[0].EmbRow(1)[d]
		if math.Abs(float64(got-want)) > 1e-6 {
			t.Errorf("dim %d: canonical %v, want %v", d, got, want)
		}
	}
}

func TestSyncDisjointUpdatesIdenticalForMCAndSum(t *testing.T) {
	// When hosts touch disjoint nodes, every node has exactly one delta,
	// so MC, AVG and SUM must agree.
	run := func(comb string) *model.Model {
		c := newCluster(t, 3, 30, 4, RepModelOpt, comb)
		touched := make([]*bitset.Bitset, 3)
		for h := 0; h < 3; h++ {
			touched[h] = c.perturb(h, []int{h * 10, h*10 + 1}, 0.2)
		}
		c.syncAll(t, 0, touched, nil)
		return c.local[0]
	}
	mc, sum, avg := run("MC"), run("SUM"), run("AVG")
	for i := range mc.Emb.Data {
		if mc.Emb.Data[i] != sum.Emb.Data[i] || mc.Emb.Data[i] != avg.Emb.Data[i] {
			t.Fatalf("disjoint updates: combiners disagree at %d", i)
		}
	}
}

func TestSyncMultipleRounds(t *testing.T) {
	c := newCluster(t, 3, 24, 4, RepModelOpt, "MC")
	for round := uint32(0); round < 5; round++ {
		touched := make([]*bitset.Bitset, 3)
		for h := 0; h < 3; h++ {
			touched[h] = c.perturb(h, []int{int(round) + h, 12}, 0.02)
		}
		c.syncAll(t, round, touched, nil)
		c.replicasEqual(t)
	}
	st := c.syncs[0].Stats()
	if st.Rounds != 5 {
		t.Errorf("Rounds = %d, want 5", st.Rounds)
	}
}

func TestSyncPullModelFreshWhereAccessed(t *testing.T) {
	const hosts, nodes, dim = 3, 30, 4
	c := newCluster(t, hosts, nodes, dim, PullModel, "MC")
	// Round 0: host h touches node h; all hosts will access {0,1,2,15}
	// next round.
	touched := make([]*bitset.Bitset, hosts)
	access := make([]*bitset.Bitset, hosts)
	for h := 0; h < hosts; h++ {
		touched[h] = c.perturb(h, []int{h}, 0.1)
		access[h] = bitset.New(nodes)
		for _, n := range []int{0, 1, 2, 15} {
			access[h].Set(n)
		}
	}
	c.syncAll(t, 0, touched, access)
	// Every host must now agree on nodes 0,1,2 (accessed → pulled).
	for _, n := range []int32{0, 1, 2} {
		ref := c.local[0].EmbRow(n)
		for h := 1; h < hosts; h++ {
			got := c.local[h].EmbRow(n)
			for d := range ref {
				if got[d] != ref[d] {
					t.Fatalf("host %d node %d not fresh after pull", h, n)
				}
			}
		}
	}
}

func TestSyncPullModelCanonicalMatchesOpt(t *testing.T) {
	// The canonical (master-range) state after a pull sync must match the
	// Opt scheme: the communication mode changes traffic, not math.
	canonical := func(mode Mode) []float32 {
		c := newCluster(t, 3, 30, 4, mode, "MC")
		touched := make([]*bitset.Bitset, 3)
		access := make([]*bitset.Bitset, 3)
		for h := 0; h < 3; h++ {
			touched[h] = c.perturb(h, []int{h, h + 10, 25}, 0.1)
			access[h] = allNodesBitset(30)
		}
		c.syncAll(t, 0, touched, access)
		// Assemble canonical from each owner's range.
		out := make([]float32, 0, 30*4)
		for h := 0; h < 3; h++ {
			lo, hi := c.part.MasterRange(h)
			for n := lo; n < hi; n++ {
				out = append(out, c.local[h].EmbRow(int32(n))...)
			}
		}
		return out
	}
	pull, opt := canonical(PullModel), canonical(RepModelOpt)
	for i := range pull {
		if pull[i] != opt[i] {
			t.Fatalf("pull canonical differs from opt at %d", i)
		}
	}
}

func TestSyncPullRequiresAccessSet(t *testing.T) {
	c := newCluster(t, 2, 10, 2, PullModel, "MC")
	touched := c.perturb(0, []int{1}, 0.1)
	err := c.syncs[0].Sync(0, c.local[0], c.base[0], touched, nil)
	if err == nil {
		t.Error("PullModel without access set accepted")
	}
}

func TestSyncStatsAccounting(t *testing.T) {
	c := newCluster(t, 2, 20, 4, RepModelOpt, "MC")
	touched := make([]*bitset.Bitset, 2)
	touched[0] = c.perturb(0, []int{0, 15}, 0.1) // node 0 owned by host 0, 15 by host 1
	touched[1] = c.perturb(1, []int{3, 15}, 0.1)
	c.syncAll(t, 0, touched, nil)
	st0 := c.syncs[0].Stats()
	// Host 0 must reduce node 15 to host 1: a 9-byte header, the flag
	// byte, one varint index (15 → 1 byte), a 1-byte half mask, and the
	// dense 2×4-float payload (perturb touches both halves) = 44 bytes.
	if st0.ReduceEntries != 1 {
		t.Errorf("host 0 ReduceEntries = %d, want 1", st0.ReduceEntries)
	}
	if want := int64(headerBytes + 1 + 1 + 1 + 2*4*4); st0.ReduceBytes != want {
		t.Errorf("host 0 ReduceBytes = %d, want %d", st0.ReduceBytes, want)
	}
	// Host 0 owns nodes 0..9; nodes 0 and 3 were updated → broadcast 2.
	if st0.BroadcastEntries != 2 {
		t.Errorf("host 0 BroadcastEntries = %d, want 2", st0.BroadcastEntries)
	}
	if st0.Messages != 2 {
		t.Errorf("host 0 Messages = %d, want 2 (1 reduce + 1 broadcast)", st0.Messages)
	}
}

func TestNewHostSyncValidation(t *testing.T) {
	part, _ := graph.NewPartition(10, 2)
	tr, _ := NewInProcTransport(2)
	defer tr.Close()
	if _, err := NewHostSync(5, part, tr, 4, RepModelOpt, combine.Sum{}); err == nil {
		t.Error("out-of-range host accepted")
	}
	if _, err := NewHostSync(0, part, tr, 0, RepModelOpt, combine.Sum{}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewHostSync(0, part, tr, 4, RepModelOpt, nil); err == nil {
		t.Error("nil combiner accepted")
	}
	tr3, _ := NewInProcTransport(3)
	defer tr3.Close()
	if _, err := NewHostSync(0, part, tr3, 4, RepModelOpt, combine.Sum{}); err == nil {
		t.Error("host-count mismatch accepted")
	}
}

func TestInProcTransportBasics(t *testing.T) {
	tr, err := NewInProcTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumHosts() != 2 {
		t.Fatal("NumHosts wrong")
	}
	if err := tr.Send(0, 1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	from, payload, err := tr.Recv(1)
	if err != nil || from != 0 || string(payload) != "hi" {
		t.Fatalf("Recv = (%d, %q, %v)", from, payload, err)
	}
	if err := tr.Send(0, 5, nil); err == nil {
		t.Error("out-of-range send accepted")
	}
	if _, _, err := tr.Recv(9); err == nil {
		t.Error("out-of-range recv accepted")
	}
	// Close unblocks receivers after drain.
	if err := tr.Send(0, 1, []byte("queued")); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if _, p, err := tr.Recv(1); err != nil || string(p) != "queued" {
		t.Errorf("queued message lost after close: %q %v", p, err)
	}
	if _, _, err := tr.Recv(1); err != ErrTransportClosed {
		t.Errorf("Recv after drain = %v, want ErrTransportClosed", err)
	}
	if _, err := NewInProcTransport(0); err == nil {
		t.Error("zero-host transport accepted")
	}
}

func TestInProcTransportOrderPreserved(t *testing.T) {
	tr, _ := NewInProcTransport(2)
	defer tr.Close()
	go func() {
		for i := 0; i < 100; i++ {
			if err := tr.Send(0, 1, []byte{byte(i)}); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		_, p, err := tr.Recv(1)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != byte(i) {
			t.Fatalf("message %d out of order (got %d)", i, p[0])
		}
	}
}

func TestTCPTransportSyncMatchesInProc(t *testing.T) {
	// Run the identical 3-host sync over TCP loopback and in-proc; the
	// resulting replicas must be bit-identical.
	const hosts, nodes, dim = 3, 18, 4
	run := func(mk func() ([]Transport, func())) *model.Model {
		trs, cleanup := mk()
		defer cleanup()
		part, err := graph.NewPartition(nodes, hosts)
		if err != nil {
			t.Fatal(err)
		}
		init := model.New(nodes, dim)
		init.InitRandom(77)
		locals := make([]*model.Model, hosts)
		bases := make([]*model.Model, hosts)
		syncs := make([]*HostSync, hosts)
		touched := make([]*bitset.Bitset, hosts)
		for h := 0; h < hosts; h++ {
			locals[h] = init.Clone()
			bases[h] = init.Clone()
			hs, err := NewHostSync(h, part, trs[h], dim, RepModelOpt, combine.NewModelCombiner(2*dim))
			if err != nil {
				t.Fatal(err)
			}
			syncs[h] = hs
			touched[h] = bitset.New(nodes)
			touched[h].Set(h * 5)
			touched[h].Set(10)
			emb := locals[h].EmbRow(int32(h * 5))
			emb[0] += float32(h+1) * 0.25
			emb2 := locals[h].EmbRow(10)
			emb2[1] -= float32(h+1) * 0.125
		}
		var wg sync.WaitGroup
		errs := make([]error, hosts)
		for h := 0; h < hosts; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				errs[h] = syncs[h].Sync(0, locals[h], bases[h], touched[h], nil)
			}(h)
		}
		wg.Wait()
		for h, err := range errs {
			if err != nil {
				t.Fatalf("host %d: %v", h, err)
			}
		}
		return locals[0]
	}

	inproc := run(func() ([]Transport, func()) {
		tr, err := NewInProcTransport(hosts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Transport, hosts)
		for h := range out {
			out[h] = tr
		}
		return out, func() { tr.Close() }
	})
	tcp := run(func() ([]Transport, func()) {
		trs, err := NewTCPCluster(hosts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Transport, hosts)
		for h := range out {
			out[h] = trs[h]
		}
		return out, func() { closeAll(trs) }
	})
	for i := range inproc.Emb.Data {
		if inproc.Emb.Data[i] != tcp.Emb.Data[i] {
			t.Fatalf("TCP and in-proc models differ at %d", i)
		}
	}
}

func TestTCPTransportValidation(t *testing.T) {
	trs, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(trs)
	if err := trs[0].Send(1, 0, []byte("x")); err == nil {
		t.Error("wrong-host send accepted")
	}
	if err := trs[0].Send(0, 0, []byte("x")); err == nil {
		t.Error("self send accepted")
	}
	if _, _, err := trs[0].Recv(1); err == nil {
		t.Error("wrong-host recv accepted")
	}
	if _, err := NewTCPCluster(0); err == nil {
		t.Error("zero-host TCP cluster accepted")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{ReduceBytes: 1, BroadcastBytes: 2, ControlBytes: 3, Messages: 4, ReduceEntries: 5, BroadcastEntries: 6, Rounds: 7}
	b := a
	a.Add(b)
	if a.ReduceBytes != 2 || a.Rounds != 14 || a.TotalBytes() != 12 {
		t.Errorf("Add result: %+v", a)
	}
}

func BenchmarkSyncRound8Hosts(b *testing.B) {
	c := newCluster(b, 8, 1000, 32, RepModelOpt, "MC")
	touched := make([]*bitset.Bitset, 8)
	r := xrand.New(1)
	for h := 0; h < 8; h++ {
		nodes := make([]int, 50)
		for i := range nodes {
			nodes[i] = r.Intn(1000)
		}
		touched[h] = c.perturb(h, nodes, 0.01)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.syncAll(b, uint32(i), touched, nil)
	}
}
