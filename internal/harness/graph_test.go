package harness

import (
	"fmt"
	"sync"
	"testing"

	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
)

// graphTestOpts are the fast graph-workload options shared by the tests.
func graphTestOpts() Options {
	o := tinyOpts()
	o.Epochs = 4
	o.Hosts = 4
	return o
}

func TestGraphWorkloadLearnsCommunities(t *testing.T) {
	opts := graphTestOpts()
	d, err := LoadGraphDataset(opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Vocab.Size() != d.Cfg.NumVertices() {
		t.Fatalf("vocabulary %d, want one node per vertex (%d)", d.Vocab.Size(), d.Cfg.NumVertices())
	}
	_, acc, err := TrainGraph(d, opts, "MC", gluon.RepModelOpt)
	if err != nil {
		t.Fatal(err)
	}
	base := 1 / float64(d.Cfg.Communities)
	if acc.Purity < 2*base {
		t.Errorf("community purity %.3f barely beats the %.3f base rate", acc.Purity, base)
	}
	if acc.AUC < 0.75 {
		t.Errorf("link AUC %.3f, want well above the 0.5 chance level", acc.AUC)
	}
}

// TestGraphDatasetDeterministic guards the distributed contract: every
// rank regenerates the dataset locally, so generation must be a pure
// function of the options.
func TestGraphDatasetDeterministic(t *testing.T) {
	opts := graphTestOpts()
	a, err := LoadGraphDataset(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadGraphDataset(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Vocab.Size() != b.Vocab.Size() || a.Walker.Len() != b.Walker.Len() {
		t.Fatal("dataset shape not deterministic")
	}
	for i := range a.TestEdges {
		if a.TestEdges[i] != b.TestEdges[i] || a.NegPairs[i] != b.NegPairs[i] {
			t.Fatal("held-out edge sets not deterministic")
		}
	}
}

// TestGraphWorkloadTCPMatchesSimulation is the Any2Vec counterpart of
// TestEnginesOverTCPMatchSimulation: the walk workload trained by four
// free-running engines over real TCP sockets must be bit-identical to
// the lockstep simulation at ThreadsPerHost = 1, with the overlap
// pipeline off and on (the walk-workload half of
// TestOverlapTCPFreeRunning).
func TestGraphWorkloadTCPMatchesSimulation(t *testing.T) {
	opts := graphTestOpts()
	d, err := LoadGraphDataset(opts)
	if err != nil {
		t.Fatal(err)
	}
	modes := []gluon.Mode{gluon.RepModelOpt, gluon.PullModel, gluon.RepModelNaive}
	if raceEnabled {
		modes = modes[:1]
	}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := GraphTrainConfig(opts, opts.Hosts, mode)
			tr, err := core.NewTrainer(cfg, d.Vocab, d.Neg, d.Walker, opts.Dim)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := tr.Run()
			if err != nil {
				t.Fatal(err)
			}

			for _, overlap := range []bool{false, true} {
				cfg.SyncOverlap = overlap
				trs, err := gluon.NewTCPCluster(cfg.Hosts)
				if err != nil {
					t.Fatal(err)
				}
				results := make([]*core.DistributedResult, cfg.Hosts)
				errs := make([]error, cfg.Hosts)
				var wg sync.WaitGroup
				for h := 0; h < cfg.Hosts; h++ {
					wg.Add(1)
					go func(h int) {
						defer wg.Done()
						defer trs[h].Close()
						results[h], errs[h] = core.RunDistributed(cfg, h, trs[h], d.Vocab, d.Neg, d.Walker, opts.Dim, nil)
					}(h)
				}
				wg.Wait()
				for h, err := range errs {
					if err != nil {
						t.Fatalf("overlap=%v host %d: %v", overlap, h, err)
					}
				}
				assertModelsIdentical(t, fmt.Sprintf("%v/overlap=%v", mode, overlap), sim.Canonical, results[0].Canonical)
			}
		})
	}
}

func TestGraphSyncExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-mode training; skipped in short mode")
	}
	opts := graphTestOpts()
	rows, err := GraphSync(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ScalingModes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(ScalingModes))
	}
	var naive, opt GraphSyncRow
	for _, r := range rows {
		switch r.Mode {
		case gluon.RepModelNaive:
			naive = r
		case gluon.RepModelOpt:
			opt = r
		}
	}
	// The schemes must agree on the trained model (identical quality).
	for _, r := range rows[1:] {
		if r.Acc != rows[0].Acc {
			t.Errorf("mode %v quality %+v differs from %v's %+v — schemes must not change results",
				r.Mode, r.Acc, rows[0].Mode, rows[0].Acc)
		}
	}
	// At tiny scale the 120-vertex model is touched almost entirely every
	// round, so the sparse scheme legitimately degenerates to dense — it
	// must never be *worse* than Naive, and the separation regime (small
	// scale, 32 hosts) is exercised by EXPERIMENTS.md's recorded runs.
	if naive.TotalBytes == 0 || opt.TotalBytes > naive.TotalBytes {
		t.Errorf("RepModel-Opt volume %d vs Naive's %d; want 0 < opt <= naive", opt.TotalBytes, naive.TotalBytes)
	}
}
