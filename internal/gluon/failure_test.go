package gluon

import (
	"errors"
	"sync"
	"testing"
	"time"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/combine"
	"graphword2vec/internal/graph"
	"graphword2vec/internal/model"
)

// TestSyncFailsCleanlyOnClosedTransport injects a transport failure in
// the middle of a synchronisation: the surviving host must return an
// error rather than deadlock.
func TestSyncFailsCleanlyOnClosedTransport(t *testing.T) {
	part, err := graph.NewPartition(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewInProcTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	init := model.New(10, 4)
	init.InitRandom(3)
	hs, err := NewHostSync(0, part, tr, 4, RepModelOpt, combine.NewModelCombiner(8), CodecPacked)
	if err != nil {
		t.Fatal(err)
	}
	touched := bitset.New(10)
	touched.Set(1)

	done := make(chan error, 1)
	go func() {
		// Host 1 never participates; host 0 will block in gatherReduces
		// until the transport is closed under it.
		done <- hs.Sync(0, init.Clone(), init.Clone(), touched, nil)
	}()
	time.Sleep(20 * time.Millisecond)
	tr.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Sync returned nil after transport closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sync deadlocked after transport close")
	}
}

// TestSyncRejectsForeignRangeMessages: a malformed peer that reduces a
// node outside the receiver's master range must produce an error, not
// corruption.
func TestSyncRejectsForeignRangeMessages(t *testing.T) {
	part, err := graph.NewPartition(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewInProcTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	init := model.New(10, 2)
	hs0, err := NewHostSync(0, part, tr, 2, RepModelOpt, combine.Sum{}, CodecPacked)
	if err != nil {
		t.Fatal(err)
	}
	// Host 1 sends a reduce entry for node 9 — owned by host 1 itself,
	// not host 0 (host 0 owns [0,5)).
	msg := testVectorFrame(kindReduce, 0, 2, []int32{9}, func(_ int32, dst []float32) {
		dst[0] = 1
	})
	if err := tr.Send(1, 0, msg); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var syncErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		syncErr = hs0.Sync(0, init.Clone(), init.Clone(), bitset.New(10), nil)
	}()
	wg.Wait()
	if syncErr == nil {
		t.Fatal("out-of-range reduce accepted")
	}
}

// TestSyncRejectsForeignBroadcast mirrors the reduce check for the
// broadcast phase.
func TestSyncRejectsForeignBroadcast(t *testing.T) {
	part, err := graph.NewPartition(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewInProcTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	init := model.New(10, 2)
	hs0, err := NewHostSync(0, part, tr, 2, RepModelOpt, combine.Sum{}, CodecPacked)
	if err != nil {
		t.Fatal(err)
	}
	// Valid empty reduce, then a broadcast claiming a node host 1 does
	// not own (node 0 is host 0's).
	if err := tr.Send(1, 0, testVectorFrame(kindReduce, 0, 2, nil, nil)); err != nil {
		t.Fatal(err)
	}
	bad := testVectorFrame(kindBroadcast, 0, 2, []int32{0}, func(_ int32, dst []float32) { dst[0] = 42 })
	if err := tr.Send(1, 0, bad); err != nil {
		t.Fatal(err)
	}
	err = hs0.Sync(0, init.Clone(), init.Clone(), bitset.New(10), nil)
	if err == nil {
		t.Fatal("foreign broadcast accepted")
	}
}

// TestSyncRejectsUnexpectedAccessMessage: access announcements are only
// legal in PullModel.
func TestSyncRejectsUnexpectedAccessMessage(t *testing.T) {
	part, err := graph.NewPartition(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewInProcTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	init := model.New(10, 2)
	hs0, err := NewHostSync(0, part, tr, 2, RepModelOpt, combine.Sum{}, CodecPacked)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, 0, appendAccessMessage(nil, 0, 0, 5, allNodesBitset(10))); err != nil {
		t.Fatal(err)
	}
	err = hs0.Sync(0, init.Clone(), init.Clone(), bitset.New(10), nil)
	if err == nil {
		t.Fatal("access message accepted outside PullModel")
	}
}

// TestSyncStartOverlapHostCap: an overlapped round on a cluster past
// OverlapHostCap is refused by name, not run with a truncated mask.
func TestSyncStartOverlapHostCap(t *testing.T) {
	const hosts = OverlapHostCap + 1
	part, err := graph.NewPartition(2*hosts, hosts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewInProcTransport(hosts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	hs, err := NewHostSync(0, part, tr, 2, RepModelOpt, combine.Sum{}, CodecPacked)
	if err != nil {
		t.Fatal(err)
	}
	init := model.New(2*hosts, 2)
	if err := hs.SyncStart(0, init.Clone(), init.Clone(), bitset.New(2*hosts), nil); !errors.Is(err, ErrOverlapHostCap) {
		t.Fatalf("SyncStart on %d hosts = %v, want ErrOverlapHostCap", hosts, err)
	}
}

// TestSyncRejectsCorruptPayload: a garbage frame must error out.
func TestSyncRejectsCorruptPayload(t *testing.T) {
	part, err := graph.NewPartition(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewInProcTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	init := model.New(10, 2)
	hs0, err := NewHostSync(0, part, tr, 2, RepModelOpt, combine.Sum{}, CodecPacked)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, 0, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := hs0.Sync(0, init.Clone(), init.Clone(), bitset.New(10), nil); err == nil {
		t.Fatal("corrupt payload accepted")
	}
}

// TestSyncModelSizeMismatch: replicas must match the partition.
func TestSyncModelSizeMismatch(t *testing.T) {
	part, err := graph.NewPartition(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewInProcTransport(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	hs, err := NewHostSync(0, part, tr, 2, RepModelOpt, combine.Sum{}, CodecPacked)
	if err != nil {
		t.Fatal(err)
	}
	wrong := model.New(5, 2)
	if err := hs.Sync(0, wrong, wrong.Clone(), bitset.New(10), nil); err == nil {
		t.Fatal("model size mismatch accepted")
	}
}

// splitFaultTransport fails Send with sendErr and Recv with recvErr: the
// shape of a dying link, where one side sees the real fault and the
// other only sees the transport torn down under it.
type splitFaultTransport struct {
	hosts            int
	sendErr, recvErr error
}

func (f splitFaultTransport) NumHosts() int                 { return f.hosts }
func (f splitFaultTransport) Send(int, int, []byte) error   { return f.sendErr }
func (f splitFaultTransport) Recv(int) (int, []byte, error) { return 0, nil, f.recvErr }
func (f splitFaultTransport) Close() error                  { return nil }

// TestRoundErrorNamesCause: a round whose receive fails with a real
// fault while its send workers fail with ErrTransportClosed must report
// the fault — and vice versa — whatever order the workers finished in.
// The closed transport is only the verdict when nothing else failed.
func TestRoundErrorNamesCause(t *testing.T) {
	fault := errors.New("injected fault")
	cases := []struct {
		name             string
		sendErr, recvErr error
		want             error
	}{
		{"recv fault, send closed", ErrTransportClosed, fault, fault},
		{"send fault, recv closed", fault, ErrTransportClosed, fault},
		{"both closed", ErrTransportClosed, ErrTransportClosed, ErrTransportClosed},
	}
	part, err := graph.NewPartition(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	init := model.New(12, 4)
	touched := allNodesBitset(12)
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			tr := splitFaultTransport{hosts: 4, sendErr: tc.sendErr, recvErr: tc.recvErr}
			hs, err := NewHostSync(0, part, tr, 4, RepModelOpt, combine.Sum{}, CodecPacked)
			if err != nil {
				t.Fatal(err)
			}
			hs.workers = workers
			err = hs.Sync(0, init.Clone(), init.Clone(), touched, nil)
			if !errors.Is(err, tc.want) || tc.want != ErrTransportClosed && errors.Is(err, ErrTransportClosed) {
				t.Errorf("%s, %d workers: Sync = %v, want %v", tc.name, workers, err, tc.want)
			}
		}
	}
}
