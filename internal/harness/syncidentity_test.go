package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
	"graphword2vec/internal/synth"
	"graphword2vec/internal/vecmath"
)

// Seed-state model hashes, recorded from the pre-concurrency serial sync
// engine (PR 4 tree) on the tiny presets: 2 hosts, 2 epochs, MC, seed 1.
// The concurrent zero-allocation sync engine must reproduce them bit for
// bit — across all three modes, both transports and every worker
// setting. If a deliberate math change ever invalidates these,
// regenerate them with the recipe in DESIGN.md §8.
const (
	seedHashText  = "62469cbd1607912fc663b57176682cf19993851d336011f2002d7b11570f2b9b"
	seedHashGraph = "ebc7c794022664bcbb989ff4d777a84db7d3365181b2a7514634280c72cf6336"
)

// Subtest names of the identity grids end in "packed", the name
// comm-volume reports the one vector-frame encoding under.

// syncIdentityOpts is the fixed tiny-scale configuration behind the
// pinned hashes.
func syncIdentityOpts() Options {
	opts := Defaults(synth.ScaleTiny)
	opts.Epochs = 2
	opts.Hosts = 2
	return opts.WithDefaults()
}

// trainForIdentity runs one tiny distributed training and returns the
// canonical model hash. tweak edits the config (overlap, transport
// factory) before the run.
func trainForIdentity(t *testing.T, workload string, mode gluon.Mode, tweak func(*core.Trainer, *core.Config)) string {
	t.Helper()
	opts := syncIdentityOpts()
	var cfg core.Config
	var tr *core.Trainer
	var err error
	if workload == "text" {
		d, derr := LoadDataset("1-billion", opts)
		if derr != nil {
			t.Fatal(derr)
		}
		cfg = distConfig(opts, opts.Hosts, 3, "MC", mode, opts.BaseAlpha)
		if tweak != nil {
			tweak(nil, &cfg)
		}
		tr, err = core.NewTrainer(cfg, d.Vocab, d.Neg, d.Corp, opts.Dim)
	} else {
		d, derr := LoadGraphDataset(opts)
		if derr != nil {
			t.Fatal(derr)
		}
		cfg = GraphTrainConfig(opts, opts.Hosts, mode)
		cfg.Epochs = 2
		if tweak != nil {
			tweak(nil, &cfg)
		}
		tr, err = core.NewTrainer(cfg, d.Vocab, d.Neg, d.Walker, opts.Dim)
	}
	if err != nil {
		t.Fatal(err)
	}
	tr.SequentialCompute = true
	if tweak != nil {
		tweak(tr, nil)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return modelHash(t, res.Canonical)
}

// tcpTransportFactory builds a loopback TCP cluster as a
// core.Trainer transport factory.
func tcpTransportFactory(hosts int) ([]gluon.Transport, func(), error) {
	trs, err := gluon.NewTCPCluster(hosts)
	if err != nil {
		return nil, nil, err
	}
	out := make([]gluon.Transport, hosts)
	for h := range out {
		out[h] = trs[h]
	}
	return out, func() {
		for _, tr := range trs {
			tr.Close()
		}
	}, nil
}

// wantHash returns the pinned hash for a workload.
func wantHash(workload string) string {
	if workload == "text" {
		return seedHashText
	}
	return seedHashGraph
}

// TestSyncBitIdentityPinned is the end-to-end bit-identity contract of
// the concurrent sync engine: full tiny-scale training must reproduce
// the seed-state hashes across workloads × modes, in the -short lane
// too.
func TestSyncBitIdentityPinned(t *testing.T) {
	for _, wl := range []string{"text", "graph"} {
		for _, mode := range []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel} {
			wl, mode := wl, mode
			t.Run(fmt.Sprintf("%s/%v/packed", wl, mode), func(t *testing.T) {
				got := trainForIdentity(t, wl, mode, nil)
				if want := wantHash(wl); got != want {
					t.Errorf("model hash %s, want seed hash %s", got, want)
				}
			})
		}
	}
}

// TestSyncBitIdentityWorkers pins the sync pipeline to the seed hash at
// GOMAXPROCS 1, where its per-peer workers take turns on one CPU, and
// at 4, where they interleave: scheduling must be invisible in the
// trained bits.
func TestSyncBitIdentityWorkers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		for _, wl := range []string{"text", "graph"} {
			wl := wl
			t.Run(fmt.Sprintf("%s/workers=%d", wl, workers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				got := trainForIdentity(t, wl, gluon.RepModelOpt, nil)
				if want := wantHash(wl); got != want {
					t.Errorf("workers=%d: model hash %s, want seed hash %s", workers, got, want)
				}
			})
		}
	}
}

// TestSyncBitIdentityTCP pins the TCP execution path to the same seed
// hashes: the lockstep trainer over a loopback TCP cluster (the
// transport-factory seam) must train the identical model the in-process
// transport does — reduce frames, broadcast frames, buffer reuse and
// concurrent decode included.
func TestSyncBitIdentityTCP(t *testing.T) {
	for _, wl := range []string{"text", "graph"} {
		wl := wl
		t.Run(wl+"/packed", func(t *testing.T) {
			got := trainForIdentity(t, wl, gluon.RepModelOpt, func(tr *core.Trainer, _ *core.Config) {
				if tr != nil {
					tr.TransportFactory = tcpTransportFactory
				}
			})
			if want := wantHash(wl); got != want {
				t.Errorf("tcp: model hash %s, want seed hash %s", got, want)
			}
		})
	}
}

// modelHash returns a hex digest over a model's serialised bytes.
func modelHash(t *testing.T, m *model.Model) string {
	t.Helper()
	h := sha256.New()
	if err := m.Save(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelHashSIMDOnOff is the end-to-end half of the kernel
// bit-identity contract: a full tiny-scale distributed training run —
// text and graph presets, the sync stack included — must produce
// byte-identical models with the SIMD kernels forced on and forced off.
// This is what guarantees GW2V_NOSIMD=1 (and non-amd64 builds) stay in
// the same bit-identity class as the SSE2 path that trains CI's models.
func TestModelHashSIMDOnOff(t *testing.T) {
	if !vecmath.SIMDAvailable() {
		t.Skip("no SIMD kernels on this build; nothing to compare")
	}
	wasOn := vecmath.SIMDEnabled()
	defer vecmath.SetSIMD(wasOn)

	opts := Defaults(synth.ScaleTiny)
	opts.Epochs = 2
	opts.Hosts = 2
	opts = opts.WithDefaults()

	trainText := func() string {
		d, err := LoadDataset("1-billion", opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := distConfig(opts, opts.Hosts, 3, "MC", gluon.RepModelOpt, opts.BaseAlpha)
		res, _, err := runDistributed(d, opts, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return modelHash(t, res.Canonical)
	}
	trainGraph := func() string {
		d, err := LoadGraphDataset(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := TrainGraph(d, opts, "MC", gluon.RepModelOpt)
		if err != nil {
			t.Fatal(err)
		}
		return modelHash(t, res.Canonical)
	}

	vecmath.SetSIMD(true)
	textOn, graphOn := trainText(), trainGraph()
	vecmath.SetSIMD(false)
	textOff, graphOff := trainText(), trainGraph()

	if textOn != textOff {
		t.Errorf("text model hash differs: simd %s vs generic %s", textOn, textOff)
	}
	if graphOn != graphOff {
		t.Errorf("graph model hash differs: simd %s vs generic %s", graphOn, graphOff)
	}
}
