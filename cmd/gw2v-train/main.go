// Command gw2v-train trains embeddings on a simulated cluster, with all
// three synchronisation schemes available: Skip-Gram word vectors from a
// whitespace-tokenised text corpus (-workload text, the default), or
// DeepWalk vertex vectors from truncated random walks over a graph
// (-workload graph) — the two instances of the Any2Vec pattern
// (DESIGN.md §6) on the same distributed SGNS engine. Text at -hosts 1
// runs the shared-memory Hogwild baseline instead.
//
// Usage:
//
//	gw2v-train -corpus corpus.txt -model model.bin -hosts 8 -epochs 16
//	gw2v-train -workload graph -preset tiny -hosts 4 -model vertices.bin
//	gw2v-train -workload graph -graph edges.txt -hosts 8
//
// A preset is a synthetic planted-community graph, and its runs also
// report neighbour purity and link-prediction AUC against the planted
// structure. gw2v-eval -neighbors lists a trained vertex's neighbours.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/core"
	"graphword2vec/internal/corpus"
	"graphword2vec/internal/model"
	"graphword2vec/internal/sgns"
	"graphword2vec/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gw2v-train: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run trains per the command-line args, reporting progress to out.
// Every flag is checked before any input is read.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("gw2v-train", flag.ContinueOnError)
	var (
		wf        = workload.Register(fs, "")
		modelPath = fs.String("model", "model.bin", "output model path")
		hosts     = fs.Int("hosts", 1, "simulated hosts (1 = shared-memory training for text)")
		sgnsTier  = fs.String("sgns", "pairwise",
			"shared-memory SGNS schedule: pairwise (word2vec.c Hogwild), or batched (Gensim-style jobs whose pair groups share one negative-sample set and score through GEMM kernels; lossy-but-deterministic like -wire fp16 — a coarser SGD schedule, but the same seed always yields the same model, independent of -threads)")
		sgnsWindow = fs.Int("sgns-window", 8, "batched SGNS tier: pairs per shared-negative GEMM group")
		profiles   = cliutil.RegisterProfiles(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	shared := wf.Name == "text" && *hosts <= 1
	if *sgnsTier != "pairwise" && *sgnsTier != "batched" {
		return fmt.Errorf("unknown -sgns schedule %q (want pairwise or batched)", *sgnsTier)
	}
	if *sgnsTier == "batched" && !shared {
		return errors.New("-sgns batched is the shared-memory text tier; distributed hosts and graphs train pairwise (use -hosts 1)")
	}
	if err := wf.Validate(); err != nil {
		return err
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	wl, err := wf.Load(*hosts)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, wl.Summary)
	cfg := wl.Config
	start := time.Now()
	var trained *model.Model
	if shared {
		trained = model.New(wl.Vocab.Size(), wl.Dim)
		trained.InitRandom(cfg.Seed)
		tr, err := sgns.NewTrainer(trained, wl.Vocab, wl.Neg, cfg.Params)
		if err != nil {
			return err
		}
		tokens := wl.Source.(*corpus.Corpus).Tokens
		var st sgns.Stats
		if *sgnsTier == "batched" {
			st = tr.TrainBatched(tokens, sgns.BatchedConfig{
				Threads:         cfg.ThreadsPerHost,
				Epochs:          cfg.Epochs,
				Alpha:           cfg.Alpha,
				Seed:            cfg.Seed,
				SharedNegWindow: *sgnsWindow,
			})
		} else {
			st = tr.TrainHogwild(tokens, sgns.HogwildConfig{
				Threads: cfg.ThreadsPerHost,
				Epochs:  cfg.Epochs,
				Alpha:   cfg.Alpha,
				Seed:    cfg.Seed,
			})
		}
		fmt.Fprintf(out, "trained %d pairs in %s\n", st.Pairs, time.Since(start).Round(time.Millisecond))
	} else {
		cfg.OnEpoch = func(epoch int, _ core.ModelView, er core.EpochResult) {
			fmt.Fprintf(out, "epoch %d: alpha %.5f, %d pairs, %s communicated\n",
				epoch+1, er.Alpha, er.Train.Pairs, cliutil.FormatBytes(er.Comm.TotalBytes()))
		}
		tr, err := core.NewTrainer(cfg, wl.Vocab, wl.Neg, wl.Source, wl.Dim)
		if err != nil {
			return err
		}
		res, err := tr.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trained %d pairs on %d hosts (%s, %s) in %s; total volume %s\n",
			res.Train.Pairs, *hosts, cfg.CombinerName, cfg.Mode, time.Since(start).Round(time.Millisecond),
			cliutil.FormatBytes(res.Comm.TotalBytes()))
		trained = res.Canonical
	}
	if d := wl.Dataset; d != nil {
		acc, err := d.Evaluate(trained)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "community neighbour purity %.3f (base rate %.3f), link-prediction AUC %.3f\n",
			acc.Purity, 1/float64(d.Cfg.Communities), acc.AUC)
	}

	if err := trained.SaveFile(*modelPath); err != nil {
		return err
	}
	if err := cliutil.SaveVocabSidecar(*modelPath, wl.Vocab); err != nil {
		return err
	}
	fmt.Fprintf(out, "saved model to %s\n", *modelPath)
	return nil
}
