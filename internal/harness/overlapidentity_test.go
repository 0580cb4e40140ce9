package harness

import (
	"fmt"
	"sync"
	"testing"

	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
)

// overlapTweak returns a trainForIdentity tweak that turns on the
// double-buffered sync overlap pipeline, and (when tcp is set) drives
// the lockstep trainer over a loopback TCP cluster.
func overlapTweak(tcp bool) func(*core.Trainer, *core.Config) {
	return func(tr *core.Trainer, cfg *core.Config) {
		if cfg != nil {
			cfg.SyncOverlap = true
		}
		if tr != nil && tcp {
			tr.TransportFactory = tcpTransportFactory
		}
	}
}

// TestOverlapBitIdentityPinned is the tentpole contract of the overlap
// pipeline, pinned to the same seed-state hashes as the serialized
// engine (TestSyncBitIdentityPinned): turning on Config.SyncOverlap must
// be invisible in the trained bits across modes × transports. Gating
// only delays row accesses until the in-flight round finalises them;
// the fold order and every RNG stream are untouched, so the overlapped
// run must land on the identical hash — not merely match a fresh
// serialized twin. The -short lane runs a reduced slice.
func TestOverlapBitIdentityPinned(t *testing.T) {
	type cell struct {
		workload string
		mode     gluon.Mode
		tcp      bool
	}
	var cells []cell
	if testing.Short() {
		cells = []cell{
			{"text", gluon.RepModelNaive, false},
			{"text", gluon.RepModelOpt, false},
			{"text", gluon.RepModelOpt, true},
			{"text", gluon.PullModel, false},
			{"graph", gluon.RepModelOpt, true},
			{"graph", gluon.RepModelNaive, true},
		}
	} else {
		// Full mode × transport diagonal on text; graph pins the
		// walk-workload slice on the dense scheme and on the sparse one
		// the paper's rounds use.
		for _, mode := range []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel} {
			for _, tcp := range []bool{false, true} {
				cells = append(cells, cell{"text", mode, tcp})
			}
		}
		for _, mode := range []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt} {
			for _, tcp := range []bool{false, true} {
				cells = append(cells, cell{"graph", mode, tcp})
			}
		}
	}
	for _, c := range cells {
		c := c
		transport := "inproc"
		if c.tcp {
			transport = "tcp"
		}
		t.Run(fmt.Sprintf("%s/%v/packed/%s", c.workload, c.mode, transport), func(t *testing.T) {
			got := trainForIdentity(t, c.workload, c.mode, overlapTweak(c.tcp))
			if want := wantHash(c.workload); got != want {
				t.Errorf("overlap: model hash %s, want seed hash %s", got, want)
			}
		})
	}
}

// TestOverlapTCPFreeRunning is the overlap race hammer: four
// free-running engines over localhost TCP — each on its own goroutine,
// out of phase with its peers, with the double-buffered pipeline's
// background sync and gated compute racing against real socket decode
// workers — must still produce a model byte-identical to the serialized
// in-process simulation. Run under -race this exercises every
// cross-goroutine edge of the overlap path: progress snapshots, gate
// wake-ups, the touched double buffer, and buffer-generation reuse. The
// mixed row turns overlap on for even ranks only: SyncOverlap is a
// per-host knob outside the config checksum, so ranks may disagree on
// it, and a cluster mixing overlapped and serialized rounds must not
// change a bit.
func TestOverlapTCPFreeRunning(t *testing.T) {
	opts := distTestOpts()
	d, err := LoadDataset("1-billion", opts)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		mode  gluon.Mode
		mixed bool
	}
	rows := []row{{gluon.RepModelOpt, true}, {gluon.RepModelOpt, false}, {gluon.PullModel, false}, {gluon.RepModelNaive, false}}
	if raceEnabled {
		// Keep the slow race lane focused on the sparse mode; the gate
		// and progress concurrency under test is identical in all three.
		rows = rows[:2]
	}
	for _, r := range rows {
		r := r
		name := r.mode.String()
		if r.mixed {
			name += "-mixed"
		}
		t.Run(name, func(t *testing.T) {
			cfg := distTestConfig(opts, r.mode)
			want := simulatedCanonical(t, d, opts, cfg) // serialized reference

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
					c := cfg
					c.SyncOverlap = !r.mixed || h%2 == 0
					results[h], errs[h] = core.RunDistributed(c, h, trs[h], d.Vocab, d.Neg, d.Corp, opts.Dim, nil)
				}(h)
			}
			wg.Wait()
			for h, err := range errs {
				if err != nil {
					t.Fatalf("host %d: %v", h, err)
				}
			}
			assertModelsIdentical(t, "overlap/"+name, want, results[0].Canonical)
			var hidden float64
			for _, res := range results {
				hidden += res.Engine.OverlapSeconds
			}
			if hidden <= 0 {
				t.Error("free-running overlapped cluster hid no sync time")
			}
		})
	}
}
