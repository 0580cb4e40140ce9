package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"testing"

	"graphword2vec/internal/checkpoint"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
)

func hashModel(t *testing.T, m *model.Model) string {
	t.Helper()
	h := sha256.New()
	if err := m.Save(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runCluster drives a cfg.Hosts-wide in-process cluster through
// RunDistributedOpts (one goroutine per rank over a shared transport)
// and returns the per-rank results plus rank 0's canonical model hash.
func runCluster(t *testing.T, cfg Config, opts func(rank int) RunOptions) ([]*DistributedResult, string) {
	t.Helper()
	v, neg, c := testData(t, repeatedText(4))
	tr, err := gluon.NewInProcTransport(cfg.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	results := make([]*DistributedResult, cfg.Hosts)
	errs := make([]error, cfg.Hosts)
	var wg sync.WaitGroup
	for h := 0; h < cfg.Hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			results[h], errs[h] = RunDistributedOpts(cfg, h, tr, v, neg, c, 16, opts(h))
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", h, err)
		}
	}
	return results, hashModel(t, results[0].Canonical)
}

// TestEngineCheckpointRoundTripModes is the core resume contract
// (referenced from internal/checkpoint): for every sync mode, a run
// that checkpoints, crashes away its progress, and resumes from a
// snapshot must reproduce the uninterrupted run bit for bit — model
// hash AND training counters. Three resume cuts are exercised per
// mode: the final round (pure skip), a mid-epoch boundary, and an
// exact epoch boundary (the pending-stats fold in Engine.Restore).
func TestEngineCheckpointRoundTripModes(t *testing.T) {
	for _, mode := range []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel} {
		mode := mode
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			cfg := smallConfig(2) // 2 epochs × 3 rounds = 6 global rounds
			cfg.Mode = mode

			// The uninterrupted reference.
			refRes, refHash := runCluster(t, cfg, func(int) RunOptions { return RunOptions{} })

			// every=2 leaves generations {4, 6}: a mid-epoch prev cut.
			// every=3 leaves generations {3, 6}: an epoch-boundary prev cut.
			for _, tc := range []struct {
				every      int
				prevRound  uint32
				finalRound uint32
			}{
				{every: 2, prevRound: 4, finalRound: 6},
				{every: 3, prevRound: 3, finalRound: 6},
			} {
				t.Run(fmt.Sprintf("every=%d", tc.every), func(t *testing.T) {
					dir := t.TempDir()
					pol := func(resume bool) func(int) RunOptions {
						return func(h int) RunOptions {
							return RunOptions{Checkpoint: &CheckpointPolicy{Dir: dir, Every: tc.every, Resume: resume, OldRank: h}}
						}
					}

					// Checkpointing must not perturb the training bits.
					_, ckptHash := runCluster(t, cfg, pol(false))
					if ckptHash != refHash {
						t.Fatalf("checkpointed run hash %s, want %s", ckptHash, refHash)
					}

					// Resume with the final-round snapshot intact: the
					// whole run is skipped, the model comes straight
					// from disk.
					res, hash := runCluster(t, cfg, pol(true))
					if hash != refHash {
						t.Fatalf("resume-from-final hash %s, want %s", hash, refHash)
					}
					for h, r := range res {
						if r.ResumedFrom != tc.finalRound {
							t.Fatalf("rank %d resumed from %d, want %d", h, r.ResumedFrom, tc.finalRound)
						}
					}

					// Crash away the newest generation on every rank:
					// the cluster must fall back to the prev snapshot
					// and recompute the missing rounds identically.
					for h := 0; h < cfg.Hosts; h++ {
						if err := os.Remove(checkpoint.NewStore(dir, h).Path()); err != nil {
							t.Fatal(err)
						}
					}
					res, hash = runCluster(t, cfg, pol(true))
					if hash != refHash {
						t.Fatalf("resume-from-round-%d hash %s, want %s", tc.prevRound, hash, refHash)
					}
					for h, r := range res {
						if r.ResumedFrom != tc.prevRound {
							t.Fatalf("rank %d resumed from %d, want %d", h, r.ResumedFrom, tc.prevRound)
						}
						if r.Engine.Train != refRes[h].Engine.Train {
							t.Fatalf("rank %d resumed counters %+v, want %+v", h, r.Engine.Train, refRes[h].Engine.Train)
						}
					}
				})
			}
		})
	}
}

// TestRunOptionsNoCheckpointDir: a resume request with an empty store
// must degrade to a fresh start, never error.
func TestRunOptionsNoCheckpointDir(t *testing.T) {
	cfg := smallConfig(2)
	_, refHash := runCluster(t, cfg, func(int) RunOptions { return RunOptions{} })
	dir := t.TempDir()
	res, hash := runCluster(t, cfg, func(h int) RunOptions {
		return RunOptions{Checkpoint: &CheckpointPolicy{Dir: dir, Every: 2, Resume: true, OldRank: h}}
	})
	if hash != refHash {
		t.Fatalf("fresh-start resume hash %s, want %s", hash, refHash)
	}
	for h, r := range res {
		if r.ResumedFrom != 0 {
			t.Fatalf("rank %d resumed from %d, want 0", h, r.ResumedFrom)
		}
	}
}
