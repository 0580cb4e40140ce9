package gluon

import (
	"fmt"
	"testing"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/combine"
	"graphword2vec/internal/graph"
	"graphword2vec/internal/model"
	"graphword2vec/internal/xrand"
)

// clusterOverTransports builds the test cluster over caller-supplied
// per-host transports (in-proc shared or one TCP transport per host).
func clusterOverTransports(t testing.TB, trs []Transport, nodes, dim int, mode Mode, combName string, codec Codec) *cluster {
	t.Helper()
	hosts := len(trs)
	part, err := graph.NewPartition(nodes, hosts)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{hosts: hosts, nodes: nodes, dim: dim, part: part, tr: trs[0]}
	init := model.New(nodes, dim)
	init.InitRandom(1234)
	for h := 0; h < hosts; h++ {
		hs, err := NewHostSync(h, part, trs[h], dim, mode, combine.ByName(combName, 2*dim), codec)
		if err != nil {
			t.Fatal(err)
		}
		c.syncs = append(c.syncs, hs)
		c.local = append(c.local, init.Clone())
		c.base = append(c.base, init.Clone())
	}
	return c
}

// lockstepDriver runs each host's Sync calls on a persistent goroutine,
// so a test (or AllocsPerRun measurement) can drive whole-cluster rounds
// without allocating anything itself: round numbers flow through
// pre-made channels, errors land in fixed slots.
type lockstepDriver struct {
	c       *cluster
	touched []*bitset.Bitset
	access  []*bitset.Bitset
	rounds  []chan uint32
	done    chan int
	errs    []error
}

func newLockstepDriver(c *cluster, touched, access []*bitset.Bitset) *lockstepDriver {
	d := &lockstepDriver{
		c:       c,
		touched: touched,
		access:  access,
		rounds:  make([]chan uint32, c.hosts),
		done:    make(chan int, c.hosts),
		errs:    make([]error, c.hosts),
	}
	for h := 0; h < c.hosts; h++ {
		d.rounds[h] = make(chan uint32)
		go func(h int) {
			var acc *bitset.Bitset
			if d.access != nil {
				acc = d.access[h]
			}
			for r := range d.rounds[h] {
				d.errs[h] = c.syncs[h].Sync(r, c.local[h], c.base[h], d.touched[h], acc)
				d.done <- h
			}
		}(h)
	}
	return d
}

// round drives one whole-cluster synchronisation round.
func (d *lockstepDriver) round(r uint32) {
	for h := 0; h < d.c.hosts; h++ {
		d.rounds[h] <- r
	}
	for h := 0; h < d.c.hosts; h++ {
		<-d.done
	}
}

func (d *lockstepDriver) stop(t testing.TB) {
	t.Helper()
	for h := 0; h < d.c.hosts; h++ {
		close(d.rounds[h])
		if d.errs[h] != nil {
			t.Fatalf("host %d sync: %v", h, d.errs[h])
		}
	}
}

// fixedTouched builds a deterministic sparse touched pattern that stays
// identical across rounds — the steady-state regime the allocation pin
// measures.
func fixedTouched(c *cluster, perHost int, seed uint64) []*bitset.Bitset {
	r := xrand.New(seed)
	touched := make([]*bitset.Bitset, c.hosts)
	for h := 0; h < c.hosts; h++ {
		nodes := make([]int, perHost)
		for i := range nodes {
			nodes[i] = r.Intn(c.nodes)
		}
		touched[h] = c.perturb(h, nodes, 0.005)
	}
	return touched
}

// TestSyncRoundZeroAllocs pins the tentpole claim: after warm-up, a
// steady-state synchronisation round performs zero heap allocations on
// every host — across all three modes, all three codecs, and both the
// serial and the concurrent worker setting. The measurement covers the
// whole cluster (AllocsPerRun counts process-wide mallocs), so the pin
// also proves the in-process transport, the pending queues and the
// accumulator allocate nothing per round.
func TestSyncRoundZeroAllocs(t *testing.T) {
	const hosts, nodes, dim, perHost = 4, 2048, 16, 40
	for _, workers := range []int{1, 4} {
		for _, mode := range []Mode{RepModelNaive, RepModelOpt, PullModel} {
			for _, codec := range []Codec{CodecRaw, CodecPacked, CodecFP16} {
				t.Run(fmt.Sprintf("workers=%d/%v/%v", workers, mode, codec), func(t *testing.T) {
					c := newClusterCodec(t, hosts, nodes, dim, mode, "MC", codec)
					for _, hs := range c.syncs {
						hs.workers = workers
					}
					touched := fixedTouched(c, perHost, 11)
					var access []*bitset.Bitset
					if mode == PullModel {
						access = make([]*bitset.Bitset, hosts)
						for h := range access {
							access[h] = touched[h].Clone()
							access[h].Or(touched[(h+1)%hosts])
						}
					}
					d := newLockstepDriver(c, touched, access)
					defer d.stop(t)

					round := uint32(0)
					// Warm up: grow every reusable buffer and lazily
					// allocated accumulator slot to the working set.
					for ; round < 3; round++ {
						d.round(round)
					}
					avg := testing.AllocsPerRun(10, func() {
						d.round(round)
						round++
					})
					if avg != 0 {
						t.Errorf("steady-state sync round allocates %.1f times, want 0", avg)
					}
				})
			}
		}
	}
}

// TestSyncConcurrentHammer drives many rounds with per-round-changing
// sparse updates, free-running hosts (no lockstep between rounds, so
// out-of-phase frames exercise the pending queues) and the concurrent
// worker pipeline forced on. Replicas must agree after every host
// finishes. Under -race this is the data-race proof for the parallel
// encode/decode overlap and the send-buffer reuse contract.
func TestSyncConcurrentHammer(t *testing.T) {
	const hosts, nodes, dim, roundsN = 4, 513, 9, 30
	for _, mode := range []Mode{RepModelNaive, RepModelOpt, PullModel} {
		for _, codec := range []Codec{CodecPacked, CodecFP16} {
			t.Run(fmt.Sprintf("%v/%v", mode, codec), func(t *testing.T) {
				c := newClusterCodec(t, hosts, nodes, dim, mode, "MC", codec)
				for _, hs := range c.syncs {
					hs.workers = 8
				}
				// Per-host free-running drivers: each host performs its
				// compute perturbation and Sync for all rounds with no
				// cross-host coordination beyond the protocol itself.
				errs := make([]error, hosts)
				done := make(chan int, hosts)
				for h := 0; h < hosts; h++ {
					go func(h int) {
						r := xrand.New(uint64(h)*77 + 1)
						touched := bitset.New(nodes)
						access := bitset.New(nodes)
						for round := 0; round < roundsN; round++ {
							touched.Reset()
							for i := 0; i < 20; i++ {
								n := r.Intn(nodes)
								touched.Set(n)
								c.local[h].EmbRow(int32(n))[round%dim] += 0.001 * float32(h+1)
								if i%3 == 0 {
									c.local[h].CtxRow(int32(n))[(round+1)%dim] -= 0.002
								}
							}
							var acc *bitset.Bitset
							if mode == PullModel {
								access.Reset()
								for i := 0; i < 40; i++ {
									access.Set(r.Intn(nodes))
								}
								acc = access
							}
							if err := c.syncs[h].Sync(uint32(round), c.local[h], c.base[h], touched, acc); err != nil {
								errs[h] = err
								break
							}
						}
						done <- h
					}(h)
				}
				for h := 0; h < hosts; h++ {
					<-done
				}
				for h, err := range errs {
					if err != nil {
						t.Fatalf("host %d: %v", h, err)
					}
				}
				if mode != PullModel {
					c.replicasEqual(t)
				}
			})
		}
	}
}

// TestSyncWorkersBitIdentical: the worker count must not change a single
// bit of any replica — the deterministic host-ordered fold is the only
// order-sensitive step in a round. (The end-to-end hash-pinned version
// of this contract lives in the harness package.)
func TestSyncWorkersBitIdentical(t *testing.T) {
	run := func(workers int) *cluster {
		c := newCluster(t, 3, 100, 8, RepModelOpt, "MC")
		for _, hs := range c.syncs {
			hs.workers = workers
		}
		for round := uint32(0); round < 4; round++ {
			touched := make([]*bitset.Bitset, 3)
			for h := 0; h < 3; h++ {
				touched[h] = c.perturb(h, []int{h, 40 + h*2, 77, int(round) * 9}, 0.05)
			}
			c.syncAll(t, round, touched, nil)
		}
		return c
	}
	serial, parallel := run(1), run(8)
	for i := range serial.local[0].Emb.Data {
		if serial.local[0].Emb.Data[i] != parallel.local[0].Emb.Data[i] ||
			serial.local[0].Ctx.Data[i] != parallel.local[0].Ctx.Data[i] {
			t.Fatalf("serial and parallel sync diverge at %d", i)
		}
	}
}

// TestSyncPendingQueueBounded is the regression test for the pending-map
// leak: (kind, round) keys used to accumulate forever (drained queues
// were never deleted, and the re-sliced backing arrays stranded their
// consumed prefixes). After many rounds with out-of-phase traffic, the
// map must hold at most the keys of frames that can still legally be in
// flight.
func TestSyncPendingQueueBounded(t *testing.T) {
	const hosts, nodes, dim, roundsN = 3, 60, 4, 50
	c := newCluster(t, hosts, nodes, dim, RepModelOpt, "MC")
	for _, hs := range c.syncs {
		hs.workers = 4
	}
	// Free-running hosts maximise out-of-phase arrivals.
	errs := make([]error, hosts)
	done := make(chan int, hosts)
	for h := 0; h < hosts; h++ {
		go func(h int) {
			touched := bitset.New(nodes)
			for round := 0; round < roundsN; round++ {
				touched.Reset()
				n := (round + h*7) % nodes
				touched.Set(n)
				c.local[h].EmbRow(int32(n))[0] += 0.01
				if err := c.syncs[h].Sync(uint32(round), c.local[h], c.base[h], touched, nil); err != nil {
					errs[h] = err
					break
				}
			}
			done <- h
		}(h)
	}
	for h := 0; h < hosts; h++ {
		<-done
	}
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
	// At quiescence every frame of every finished round was consumed:
	// only frames of rounds a slower host had not reached yet may have
	// been buffered, and those rounds completed too. The map must be
	// fully drained — with the leak, it held O(rounds) dead keys.
	for h, hs := range c.syncs {
		if n := hs.pendingCount(); n != 0 {
			t.Errorf("host %d: %d pending keys after quiescence, want 0", h, n)
		}
	}
	c.replicasEqual(t)
}

// TestSyncDuplicateFrameRejected: a peer resending a frame kind it
// already delivered this round must poison the round, not silently race
// two decoders into one accumulator column.
func TestSyncDuplicateFrameRejected(t *testing.T) {
	// Three hosts: host 0 receives host 1's reduce frame twice. Its
	// receive loop wants two reduce frames (one per peer), so the
	// duplicate is consumed in place of host 2's and must be rejected
	// instead of racing two decoders into one accumulator column.
	const hosts, nodes, dim = 3, 30, 4
	c := newCluster(t, hosts, nodes, dim, RepModelOpt, "MC")
	lo, _ := c.part.MasterRange(0)
	frame := encodeVectorFrame(kindReduce, 0, c.syncs[0].frameFlags(kindReduce), dim, []int32{int32(lo)}, nil, func(n int32, dst []float32) {
		for i := range dst {
			dst[i] = 1
		}
	})
	if err := c.tr.Send(1, 0, frame); err != nil {
		t.Fatal(err)
	}
	if err := c.tr.Send(1, 0, frame); err != nil {
		t.Fatal(err)
	}
	touched := bitset.New(nodes)
	err := c.syncs[0].Sync(0, c.local[0], c.base[0], touched, nil)
	if err == nil {
		t.Fatal("duplicate reduce frame accepted")
	}
}

// TestSyncBufferReuseAcrossTransports: the same multi-round workload
// over the zero-copy in-process transport and the copying TCP transport
// must produce identical replicas — the cross-check that per-peer frame
// buffer reuse never rewrites bytes a receiver still references (the
// in-process transport shares the buffer; TCP snapshots it at send).
func TestSyncBufferReuseAcrossTransports(t *testing.T) {
	const hosts, nodes, dim, roundsN = 3, 48, 6, 6
	run := func(mk func() ([]Transport, func())) *model.Model {
		trs, cleanup := mk()
		defer cleanup()
		c := clusterOverTransports(t, trs, nodes, dim, RepModelOpt, "MC", CodecPacked)
		for _, hs := range c.syncs {
			hs.workers = 6
		}
		for round := uint32(0); round < roundsN; round++ {
			touched := make([]*bitset.Bitset, hosts)
			for h := 0; h < hosts; h++ {
				touched[h] = c.perturb(h, []int{h, int(round) % nodes, 30 + h}, 0.02)
			}
			c.syncAll(t, round, touched, nil)
		}
		return c.local[0]
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
		if inproc.Emb.Data[i] != tcp.Emb.Data[i] || inproc.Ctx.Data[i] != tcp.Ctx.Data[i] {
			t.Fatalf("in-proc and TCP replicas differ at %d", i)
		}
	}
}
