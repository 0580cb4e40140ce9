// Distributed: the Figure 6 convergence race in miniature — the same
// corpus trained three ways on a simulated 8-host cluster, printing the
// per-epoch analogy accuracy of each reduction strategy side by side:
//
//	MC   — the paper's model combiner at the sequential learning rate
//	AVG  — bulk-synchronous averaging at the same rate (slow)
//	AVG* — averaging at the 32×-scaled rate (collapses)
//
// It closes by re-running the MC configuration as four free-running
// single-host engines over real TCP sockets (the same execution path
// cmd/gw2v-worker uses across processes) and checking the result is
// byte-identical to the simulation.
package main

import (
	"fmt"
	"log"
	"sync"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/harness"
	"graphword2vec/internal/synth"
)

func main() {
	log.SetFlags(0)
	opts := harness.Defaults(synth.ScaleTiny)
	opts.Hosts = 8
	opts.Epochs = 8
	opts = opts.WithDefaults()

	d, err := harness.LoadDataset("1-billion", opts)
	if err != nil {
		log.Fatal(err)
	}

	type series struct {
		label    string
		combiner string
		alpha    float32
		accs     []float64
	}
	runs := []*series{
		{label: "MC", combiner: "MC", alpha: opts.BaseAlpha},
		{label: "AVG", combiner: "AVG", alpha: opts.BaseAlpha},
		{label: "AVG*32", combiner: "AVG", alpha: opts.BaseAlpha * 32},
	}
	for _, s := range runs {
		cfg := core.DefaultConfig(opts.Hosts)
		cfg.Epochs = opts.Epochs
		cfg.Alpha = s.alpha
		cfg.CombinerName = s.combiner
		cfg.Mode = gluon.RepModelOpt
		cfg.Seed = opts.Seed
		cfg.OnEpoch = func(_ int, mv core.ModelView, _ core.EpochResult) {
			acc, err := d.Evaluate(mv.Model)
			if err != nil {
				log.Fatal(err)
			}
			s.accs = append(s.accs, acc.Total)
		}
		tr, err := core.NewTrainer(cfg, d.Vocab, d.Neg, d.Corp, opts.Dim)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tr.Run(); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("total analogy accuracy (%%) per epoch, %d hosts:\n", opts.Hosts)
	fmt.Printf("%-6s", "epoch")
	for _, s := range runs {
		fmt.Printf("%9s", s.label)
	}
	fmt.Println()
	for e := 0; e < opts.Epochs; e++ {
		fmt.Printf("%-6d", e+1)
		for _, s := range runs {
			fmt.Printf("%9.1f", s.accs[e])
		}
		fmt.Println()
	}

	tcpParityCheck(d, opts)
}

// tcpParityCheck reruns the MC configuration on a 4-host cluster twice —
// once simulated in lockstep, once as free-running engines over real
// loopback TCP sockets — and verifies the canonical embeddings agree
// bit-for-bit.
func tcpParityCheck(d *harness.Dataset, opts harness.Options) {
	cfg := core.DefaultConfig(4)
	cfg.Epochs = 2
	cfg.Alpha = opts.BaseAlpha
	cfg.Seed = opts.Seed

	tr, err := core.NewTrainer(cfg, d.Vocab, d.Neg, d.Corp, opts.Dim)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := tr.Run()
	if err != nil {
		log.Fatal(err)
	}

	trs, err := gluon.NewTCPCluster(cfg.Hosts)
	if err != nil {
		log.Fatal(err)
	}
	results := make([]*core.DistributedResult, cfg.Hosts)
	errs := make([]error, cfg.Hosts)
	var wg sync.WaitGroup
	for h := 0; h < cfg.Hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			// Closing on exit lets an errored host's peers fail via
			// connection loss instead of blocking forever.
			defer trs[h].Close()
			results[h], errs[h] = core.RunDistributed(cfg, h, trs[h], d.Vocab, d.Neg, d.Corp, opts.Dim, nil)
		}(h)
	}
	wg.Wait()
	for h := range trs {
		if errs[h] != nil {
			log.Fatalf("host %d: %v", h, errs[h])
		}
	}
	got := results[0].Canonical
	for i := range sim.Canonical.Emb.Data {
		if sim.Canonical.Emb.Data[i] != got.Emb.Data[i] {
			log.Fatalf("TCP engines diverge from simulation (embedding layer, %d)", i)
		}
	}
	for i := range sim.Canonical.Ctx.Data {
		if sim.Canonical.Ctx.Data[i] != got.Ctx.Data[i] {
			log.Fatalf("TCP engines diverge from simulation (training layer, %d)", i)
		}
	}
	fmt.Printf("\n%d engines over localhost TCP reproduced the simulated cluster bit-for-bit (%s sent on the wire by rank 0)\n",
		cfg.Hosts, cliutil.FormatBytes(float64(results[0].Engine.Comm.TotalBytes())))
}
