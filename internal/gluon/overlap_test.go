package gluon

import (
	"bytes"
	"sync"
	"testing"

	"graphword2vec/internal/bitset"
)

// recordingTransport copies every frame a host sends, keyed by
// (sender, receiver). Per pair the sends of one round are sequential
// (the reduce worker, then the broadcast), so each list is in a
// deterministic order even when a host's peer workers run concurrently.
type recordingTransport struct {
	Transport
	mu   sync.Mutex
	sent map[[2]int][][]byte
}

func (r *recordingTransport) Send(from, to int, payload []byte) error {
	r.mu.Lock()
	r.sent[[2]int{from, to}] = append(r.sent[[2]int{from, to}], bytes.Clone(payload))
	r.mu.Unlock()
	return r.Transport.Send(from, to, payload)
}

// TestSyncOverlapSameFrames: a round's frames are byte-identical whether
// it runs via Sync or via SyncStart/SyncFinish — overlap decides only
// which goroutine runs the round, never what goes on the wire.
func TestSyncOverlapSameFrames(t *testing.T) {
	const hosts, nodes, dim, rounds = 3, 40, 4, 3
	for _, mode := range []Mode{RepModelNaive, RepModelOpt, PullModel} {
		run := func(overlap bool) map[[2]int][][]byte {
			c := newCluster(t, hosts, nodes, dim, mode, "MC")
			rec := &recordingTransport{Transport: c.tr, sent: map[[2]int][][]byte{}}
			for h := range c.syncs {
				c.syncs[h].tr = rec
			}
			errs := make([]error, hosts)
			var wg sync.WaitGroup
			for h := 0; h < hosts; h++ {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					access := allNodesBitset(nodes)
					for round := uint32(0); round < rounds; round++ {
						touched := c.perturb(h, []int{h, 7 + h, 20 + int(round), 33}, 0.05)
						if overlap {
							if errs[h] = c.syncs[h].SyncStart(round, c.local[h], c.base[h], touched, access); errs[h] == nil {
								errs[h] = c.syncs[h].SyncFinish()
							}
						} else {
							errs[h] = c.syncs[h].Sync(round, c.local[h], c.base[h], touched, access)
						}
						if errs[h] != nil {
							return
						}
					}
				}(h)
			}
			wg.Wait()
			for h, err := range errs {
				if err != nil {
					t.Fatalf("%v overlap=%v host %d: %v", mode, overlap, h, err)
				}
			}
			return rec.sent
		}
		serial, overlapped := run(false), run(true)
		if len(serial) != len(overlapped) {
			t.Fatalf("%v: %d sending pairs serialized, %d overlapped", mode, len(serial), len(overlapped))
		}
		for pair, want := range serial {
			got := overlapped[pair]
			if len(got) != len(want) {
				t.Fatalf("%v: host %d → %d sent %d frames overlapped, %d serialized", mode, pair[0], pair[1], len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%v: host %d → %d frame %d differs: overlapped kind %d, serialized kind %d", mode, pair[0], pair[1], i, got[i][0], want[i][0])
				}
			}
		}
	}
}

// TestSyncSerializedPastOverlapCap: every round posts its progress
// events, but a serialized round is not bound by OverlapHostCap — on a
// cluster one past the cap, Sync completes and the replicas agree.
func TestSyncSerializedPastOverlapCap(t *testing.T) {
	const hosts = OverlapHostCap + 1
	const nodes = 2 * hosts
	c := newCluster(t, hosts, nodes, 2, RepModelOpt, "SUM")
	touched := make([]*bitset.Bitset, hosts)
	for h := 0; h < hosts; h++ {
		touched[h] = c.perturb(h, []int{2 * h, nodes - 1}, 0.1)
	}
	c.syncAll(t, 0, touched, nil)
	c.replicasEqual(t)
}
