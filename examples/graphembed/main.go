// Graphembed: the Any2Vec demo — DeepWalk-style vertex embeddings
// trained on a synthetic planted-community graph by the exact engine
// that trains word embeddings, first on a simulated 4-host cluster and
// then as four free-running engines over real loopback TCP sockets (the
// execution path cmd/gw2v-worker uses across processes), verifying the
// two produce a bit-identical model. It closes by scoring the embedding
// against the planted structure: community nearest-neighbour purity,
// held-out link-prediction AUC, and a vertex's nearest neighbours.
package main

import (
	"fmt"
	"log"
	"sync"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/core"
	"graphword2vec/internal/eval"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/harness"
	"graphword2vec/internal/synth"
)

func main() {
	log.SetFlags(0)
	opts := harness.Defaults(synth.ScaleTiny)
	opts.Hosts = 4
	opts = opts.WithDefaults()

	// 1. A community graph with ground truth: vertices named v<id>_c<community>,
	//    ~12 intra-community neighbours vs ~2 cross-community ones.
	d, err := harness.LoadGraphDataset(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices in %d communities, %d training edges, %d held out\n",
		d.Cfg.NumVertices(), d.Cfg.Communities, d.Walker.Graph().NumEdges(), len(d.TestEdges))

	// 2. Simulated cluster: 4 hosts walk their own start-vertex ranges and
	//    synchronise with the paper's model combiner.
	cfg := harness.GraphTrainConfig(opts, opts.Hosts, gluon.RepModelOpt)
	tr, err := core.NewTrainer(cfg, d.Vocab, d.Neg, d.Walker, opts.Dim)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := tr.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated cluster: %d training pairs on %d hosts, %s communicated\n",
		sim.Train.Pairs, opts.Hosts, cliutil.FormatBytes(float64(sim.Comm.TotalBytes())))

	// 3. The same training as free-running engines over real TCP sockets.
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
			results[h], errs[h] = core.RunDistributed(cfg, h, trs[h], d.Vocab, d.Neg, d.Walker, opts.Dim, nil)
		}(h)
	}
	wg.Wait()
	for h := range errs {
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
	fmt.Printf("%d engines over localhost TCP reproduced the simulation bit-for-bit (%s on the wire from rank 0)\n",
		cfg.Hosts, cliutil.FormatBytes(float64(results[0].Engine.Comm.TotalBytes())))

	// 4. The planted communities are recoverable from the embedding.
	acc, err := d.Evaluate(sim.Canonical)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("community neighbour purity %.3f (base rate %.3f), link-prediction AUC %.3f\n",
		acc.Purity, 1/float64(d.Cfg.Communities), acc.AUC)

	query := d.Cfg.VertexName(0)
	nn, err := eval.NearestNeighbors(sim.Canonical, d.Vocab, query, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nearest neighbours of %s:\n", query)
	for _, n := range nn {
		fmt.Printf("  %-14s %.3f\n", n.Word, n.Similarity)
	}
}
