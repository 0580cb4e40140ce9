package gluon

import (
	"sync"
	"testing"
	"time"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/combine"
	"graphword2vec/internal/graph"
	"graphword2vec/internal/model"
)

// newBootstrapCluster builds n HostSyncs over one in-process transport.
func newBootstrapCluster(t *testing.T, n, nodes, dim int) (*InProcTransport, []*HostSync, *graph.Partition) {
	t.Helper()
	part, err := graph.NewPartition(nodes, n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewInProcTransport(n)
	if err != nil {
		t.Fatal(err)
	}
	syncs := make([]*HostSync, n)
	for h := 0; h < n; h++ {
		syncs[h], err = NewHostSync(h, part, tr, dim, RepModelOpt, combine.NewModelCombiner(2*dim))
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { tr.Close() })
	return tr, syncs, part
}

// TestBarrierHoldsUntilAllArrive: no host may leave the barrier before
// the slowest host has entered it.
func TestBarrierHoldsUntilAllArrive(t *testing.T) {
	const n = 4
	_, syncs, _ := newBootstrapCluster(t, n, 16, 2)

	var mu sync.Mutex
	arrived := 0
	released := make(chan int, n)
	var wg sync.WaitGroup
	for h := 0; h < n; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			if h == n-1 {
				time.Sleep(50 * time.Millisecond) // straggler
			}
			mu.Lock()
			arrived++
			mu.Unlock()
			if err := syncs[h].Barrier(7); err != nil {
				t.Errorf("host %d barrier: %v", h, err)
				return
			}
			mu.Lock()
			if arrived != n {
				t.Errorf("host %d released with only %d/%d arrived", h, arrived, n)
			}
			mu.Unlock()
			released <- h
		}(h)
	}
	wg.Wait()
	if len(released) != n {
		t.Fatalf("%d hosts released, want %d", len(released), n)
	}
}

// TestBarrierSingleHost is a no-op.
func TestBarrierSingleHost(t *testing.T) {
	_, syncs, _ := newBootstrapCluster(t, 1, 4, 2)
	if err := syncs[0].Barrier(1); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierBuffersEarlySyncTraffic: a fast host's round-0 reduce may
// land while a slow host is still in the start barrier; the slow host
// must hold it in the pending queue and consume it in Sync, not trip
// over it.
func TestBarrierBuffersEarlySyncTraffic(t *testing.T) {
	const n, nodes, dim = 2, 10, 2
	tr, syncs, _ := newBootstrapCluster(t, n, nodes, dim)

	init := model.New(nodes, dim)
	init.InitRandom(5)

	// Host 1's whole round-0 sync traffic arrives at host 0 before host
	// 0 has even entered the barrier.
	local1, base1 := init.Clone(), init.Clone()
	touched1 := bitset.New(nodes)
	touched1.Set(1) // node 1 is owned by host 0
	local1.EmbRow(1)[0] += 1.5

	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if errs[1] = syncs[1].Barrier(1); errs[1] != nil {
			return
		}
		errs[1] = syncs[1].Sync(0, local1, base1, touched1, nil)
	}()

	time.Sleep(30 * time.Millisecond) // let host 1's messages queue up
	local0, base0 := init.Clone(), init.Clone()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if errs[0] = syncs[0].Barrier(1); errs[0] != nil {
			return
		}
		errs[0] = syncs[0].Sync(0, local0, base0, bitset.New(nodes), nil)
	}()
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
	want := init.EmbRow(1)[0] + 1.5
	if got := local0.EmbRow(1)[0]; got != want {
		t.Errorf("host 0 node 1 = %v, want %v (delta lost in barrier)", got, want)
	}
	if got := local1.EmbRow(1)[0]; got != want {
		t.Errorf("host 1 node 1 = %v, want %v", got, want)
	}
	_ = tr
}

// TestGatherMastersAssembles: rank 0 must stitch every owner's master
// range into the canonical model, and reject rows a host does not own.
func TestGatherMastersAssembles(t *testing.T) {
	const n, nodes, dim = 3, 12, 2
	_, syncs, part := newBootstrapCluster(t, n, nodes, dim)

	// Each host's replica marks its own master range with its id+1.
	locals := make([]*model.Model, n)
	for h := 0; h < n; h++ {
		locals[h] = model.New(nodes, dim)
		lo, hi := part.MasterRange(h)
		for nd := lo; nd < hi; nd++ {
			locals[h].EmbRow(int32(nd))[0] = float32(h + 1)
			locals[h].CtxRow(int32(nd))[1] = float32(h + 1)
		}
	}

	var wg sync.WaitGroup
	outs := make([]*model.Model, n)
	errs := make([]error, n)
	for h := 0; h < n; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			outs[h], errs[h] = syncs[h].GatherMasters(locals[h])
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
	for h := 1; h < n; h++ {
		if outs[h] != nil {
			t.Errorf("host %d returned a model; only rank 0 assembles", h)
		}
	}
	got := outs[0]
	if got == nil {
		t.Fatal("rank 0 returned nil")
	}
	for nd := 0; nd < nodes; nd++ {
		owner := float32(part.MasterOf(nd) + 1)
		if got.EmbRow(int32(nd))[0] != owner || got.CtxRow(int32(nd))[1] != owner {
			t.Errorf("node %d = (%v, %v), want owner mark %v", nd,
				got.EmbRow(int32(nd))[0], got.CtxRow(int32(nd))[1], owner)
		}
	}
}

// TestGatherMastersRejectsForeignRows mirrors the sync-phase ownership
// checks for the gather path.
func TestGatherMastersRejectsForeignRows(t *testing.T) {
	const n, nodes, dim = 2, 10, 2
	tr, syncs, _ := newBootstrapCluster(t, n, nodes, dim)

	// Host 1 claims node 0, owned by host 0.
	bad := testVectorFrame(kindGather, 0, dim, []int32{0}, func(_ int32, dst []float32) { dst[0] = 9 })
	if err := tr.Send(1, 0, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := syncs[0].GatherMasters(model.New(nodes, dim)); err == nil {
		t.Fatal("foreign gather row accepted")
	}
}

// TestGatherMastersSingleHost returns the host's own masters — the
// whole model.
func TestGatherMastersSingleHost(t *testing.T) {
	_, syncs, _ := newBootstrapCluster(t, 1, 6, 2)
	local := model.New(6, 2)
	local.InitRandom(9)
	got, err := syncs[0].GatherMasters(local)
	if err != nil {
		t.Fatal(err)
	}
	for i := range local.Emb.Data {
		if got.Emb.Data[i] != local.Emb.Data[i] {
			t.Fatalf("single-host gather diverges at %d", i)
		}
	}
}
