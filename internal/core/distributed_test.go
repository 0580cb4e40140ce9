package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"graphword2vec/internal/gluon"
)

// TestRunDistributedTCPCleanCloseLosesNoPeer: a clean run over loopback
// TCP, healing or not, matches the in-process run bit for bit, and each
// rank closing its transport as soon as it finishes — as gw2v-worker
// does before reading LostPeers — condemns no peer. Heartbeats stay on
// through the shutdown, so a heartbeat hitting a peer that has already
// closed must count as a drop within the budget, not as peer loss.
func TestRunDistributedTCPCleanCloseLosesNoPeer(t *testing.T) {
	cfg := smallConfig(3)
	_, want := runCluster(t, cfg, func(int) RunOptions { return RunOptions{} })
	v, neg, c := testData(t, repeatedText(4))
	for _, heal := range []bool{false, true} {
		t.Run(fmt.Sprintf("heal=%v", heal), func(t *testing.T) {
			trs, err := gluon.NewTCPClusterOpts(cfg.Hosts, gluon.TCPOptions{
				HeartbeatInterval: 2 * time.Millisecond,
				ReadTimeout:       2 * time.Second,
				Session:           gluon.SessionOptions{Heal: heal, HealBudget: 5 * time.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			results := make([]*DistributedResult, cfg.Hosts)
			errs := make([]error, cfg.Hosts)
			var wg sync.WaitGroup
			for h := range trs {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					defer trs[h].Close()
					results[h], errs[h] = RunDistributedOpts(cfg, h, trs[h], v, neg, c, 16, RunOptions{})
				}(h)
			}
			wg.Wait()
			for h, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", h, err)
				}
				if lost := trs[h].LostPeers(); len(lost) != 0 {
					t.Fatalf("rank %d LostPeers = %v after a clean run", h, lost)
				}
			}
			if got := hashModel(t, results[0].Canonical); got != want {
				t.Fatalf("TCP model hash %s, in-process %s", got, want)
			}
		})
	}
}
