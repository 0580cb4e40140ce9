// Command gw2v-worker runs one host of a real multi-process
// GraphWord2Vec cluster over TCP. Launch one worker per host with the
// same workload, the same flags, and the same -peers list; each worker's
// -rank selects its position. Rank 0 gathers the canonical model at the
// end and writes it to -model.
//
// Two workloads share the engine (the Any2Vec seam, DESIGN.md §6):
// "text" trains word embeddings from a shared corpus file, "graph"
// trains DeepWalk-style vertex embeddings from random walks over a
// shared edge list (-graph) or a synthetic community graph (-preset).
//
// A 4-process text cluster on one machine:
//
//	PEERS=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	for r in 0 1 2 3; do
//	  gw2v-worker -corpus corpus.txt -rank $r -peers $PEERS -model model.bin &
//	done
//	wait
//
// The same cluster on the graph workload:
//
//	for r in 0 1 2 3; do
//	  gw2v-worker -workload graph -preset tiny -rank $r -peers $PEERS -model vertices.bin &
//	done
//	wait
//
// With ThreadsPerHost (-threads) left at 1 the result is bit-identical
// to the simulated-cluster run gw2v-train -hosts N at the same workload,
// seed and flags: both commands derive their workload through
// internal/workload.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/sgns"
	"graphword2vec/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gw2v-worker: ")
	if err := run(os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run drives this rank per the command-line args, logging progress to
// out. Every flag is checked before any input is read or any peer is
// dialed.
func run(args []string, out io.Writer) error {
	logger := log.New(out, "gw2v-worker: ", 0)
	fs := flag.NewFlagSet("gw2v-worker", flag.ContinueOnError)
	var (
		wf          = workload.Register(fs, ", identical on every rank")
		rank        = fs.Int("rank", -1, "this worker's host id in [0, hosts) (required)")
		peersCSV    = fs.String("peers", "", "comma-separated host:port list, one per rank (required)")
		listenAddr  = fs.String("listen", "", "bind address override (default: the -peers entry for this rank)")
		modelPath   = fs.String("model", "model.bin", "output model path (written by rank 0)")
		healFlags   = cliutil.RegisterHeal(fs)
		dialTimeout = fs.Duration("dial-timeout", 30*time.Second, "how long to wait for peers during bootstrap")
		quiet       = fs.Bool("quiet", false, "suppress per-epoch progress")

		ckptDir     = fs.String("checkpoint-dir", "", "directory for round-boundary checkpoints (empty = checkpointing off; at most 64 hosts)")
		ckptEvery   = fs.Int("checkpoint-every", 0, "checkpoint cadence in sync rounds (0 = once per epoch)")
		resumeFlag  = fs.Bool("resume", false, "resume from the newest cluster-wide checkpoint in -checkpoint-dir (fresh start if none)")
		maxRestarts = fs.Int("max-restarts", 0, "after losing a peer, re-dial the mesh and resume up to this many times (0 = exit on peer loss)")
		peerTimeout = fs.Duration("peer-timeout", 0, "read and write deadline: a peer silent or not draining its socket for this long is dead (healed instead with -heal); heartbeats are sent every third of it (0 = no deadlines). With -heal off and -heal-budget unset, a peer whose connection drops is also declared dead once it stays down this long (5s when 0)")
		minHosts    = fs.Int("min-hosts", 0, "when a lost peer never re-dials within -dial-timeout, the survivors re-form a smaller mesh and re-shard its master range, but never below this many hosts (0 = never degrade: exit instead; identical on every rank)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peersCSV == "" {
		return errors.New("-peers is required")
	}
	peers := strings.Split(*peersCSV, ",")
	if *rank < 0 || *rank >= len(peers) {
		return fmt.Errorf("-rank %d out of range for %d peers", *rank, len(peers))
	}
	hosts := len(peers)
	switch {
	case *resumeFlag && *ckptDir == "":
		return errors.New("-resume requires -checkpoint-dir")
	case *maxRestarts > 0 && *ckptDir == "":
		return errors.New("-max-restarts requires -checkpoint-dir (recovery resumes from checkpoints)")
	case *minHosts > 0 && *ckptDir == "":
		return errors.New("-min-hosts requires -checkpoint-dir (membership changes migrate state via checkpoints)")
	case *minHosts < 0 || *minHosts > hosts:
		return fmt.Errorf("-min-hosts %d out of range [0,%d]", *minHosts, hosts)
	case *ckptDir != "" && hosts > gluon.MembershipHostCap:
		return fmt.Errorf("-checkpoint-dir on %d peers: %w", hosts, gluon.ErrMembershipHostCap)
	}
	if err := wf.Validate(); err != nil {
		return err
	}

	wl, err := wf.Load(hosts)
	if err != nil {
		return err
	}
	if !*quiet {
		logger.Printf("rank %d/%d: %s", *rank, hosts, wl.Summary)
	}
	cfg := wl.Config
	cfg.Heal = healFlags.Heal
	cfg.HealBudget = healFlags.Budget
	budgetSet := false
	fs.Visit(func(f *flag.Flag) { budgetSet = budgetSet || f.Name == "heal-budget" })
	if !cfg.Heal && !budgetSet {
		// Without healing a dropped connection is a dead peer once it
		// outlasts -peer-timeout, like a silent one (0: the library's 5s).
		cfg.HealBudget = *peerTimeout
	}

	sum := cfg.Checksum(wl.Vocab.Size(), wl.Source.Len(), wl.Dim, wl.Extra...)
	var tcpOpts gluon.TCPOptions
	if *peerTimeout > 0 {
		tcpOpts = gluon.TCPOptions{
			HeartbeatInterval: *peerTimeout / 3,
			ReadTimeout:       *peerTimeout,
			WriteTimeout:      *peerTimeout,
		}
	}
	tcpOpts.Session = cfg.HealOptions()
	var onEpoch func(int, float32, sgns.Stats, gluon.Stats)
	if !*quiet {
		onEpoch = func(epoch int, alpha float32, train sgns.Stats, comm gluon.Stats) {
			logger.Printf("rank %d epoch %d: alpha %.5f, %d pairs, %s sent", *rank, epoch+1, alpha, train.Pairs, cliutil.FormatBytes(float64(comm.TotalBytes())))
		}
	}

	// Membership state across attempts. addrs/members shrink when the
	// cluster degrades: members[i] is the ORIGINAL rank of the host now
	// running as rank i (the membership fingerprint folded into the
	// degraded mesh checksum, so two survivors with different views of
	// who died refuse to form a mesh). prevRank is this worker's
	// identity in the cluster that wrote the current snapshots; a
	// re-shard restamps them, so it tracks the rank of the last attempt
	// that got past dialing.
	addrs := peers
	members := make([]int, hosts)
	for i := range members {
		members[i] = i
	}
	curRank, prevRank := *rank, *rank

	// runOnce dials a fresh mesh and drives one full training attempt.
	// On resume the membership negotiation happens inside
	// RunDistributedOpts, before the start barrier, so a re-formed mesh
	// agrees on a common cut first. lost is filled from the transport's
	// failure detector after the attempt ends.
	runOnce := func(resume bool) (res *core.DistributedResult, lost []int, err error) {
		meshSum := sum
		if len(members) != hosts {
			meshSum = core.MembershipChecksum(sum, members)
		}
		tr, err := gluon.DialMesh(gluon.MeshConfig{
			Rank:     curRank,
			Peers:    addrs,
			Listen:   *listenAddr,
			Checksum: meshSum,
			Timeout:  *dialTimeout,
			TCP:      tcpOpts,
		})
		if err != nil {
			return nil, nil, err
		}
		defer func() { tr.Close(); lost = tr.LostPeers() }()
		if !*quiet {
			logger.Printf("rank %d: mesh of %d hosts connected", curRank, len(addrs))
		}
		c := cfg
		c.Hosts = len(addrs) // SyncRounds stays pinned to the launch value
		opts := core.RunOptions{OnEpoch: onEpoch, Checksum: sum, Warnf: logger.Printf}
		if *ckptDir != "" {
			opts.Checkpoint = &core.CheckpointPolicy{
				Dir: *ckptDir, Every: *ckptEvery,
				Resume:  resume,
				OldRank: prevRank,
			}
		}
		res, err = core.RunDistributedOpts(c, curRank, tr, wl.Vocab, wl.Neg, wl.Source, wl.Dim, opts)
		return res, nil, err
	}

	start := time.Now()
	resume := *resumeFlag
	var res *core.DistributedResult
	var lostNow []int // current-rank ids declared dead in failed attempts
	for attempt := 0; ; attempt++ {
		var lost []int
		res, lost, err = runOnce(resume)
		if err == nil {
			break
		}
		prevRank = curRank // the attempt ran; a re-shard restamps snapshots
		switch {
		case errors.Is(err, gluon.ErrPeerLost) && attempt < *maxRestarts:
			// Recovery: every survivor lands here, and the dead rank's
			// supervisor is expected to relaunch it with the same
			// flags. The re-dial window (-dial-timeout) absorbs the
			// skew; the brief pause lets peers finish tearing down
			// their old listeners before the mesh re-forms.
			for _, p := range lost {
				if !slices.Contains(lostNow, p) {
					lostNow = append(lostNow, p)
				}
			}
			logger.Printf("rank %d: %v — re-forming mesh and resuming (restart %d/%d)", curRank, err, attempt+1, *maxRestarts)
			time.Sleep(500 * time.Millisecond)
			resume = true
		case errors.Is(err, gluon.ErrMeshTimeout) && *minHosts > 0 && attempt < *maxRestarts &&
			len(lostNow) > 0 && len(members)-len(lostNow) >= *minHosts:
			// The dead peers never came back: drop them and continue
			// degraded. Surviving ranks shift down, preserving order,
			// so every survivor derives the same new mesh.
			var nextAddrs []string
			var nextMembers []int
			nextRank := -1
			for i := range members {
				if slices.Contains(lostNow, i) {
					continue
				}
				if i == curRank {
					nextRank = len(nextMembers)
				}
				nextAddrs = append(nextAddrs, addrs[i])
				nextMembers = append(nextMembers, members[i])
			}
			logger.Printf("rank %d: peers %v never re-dialed — continuing as rank %d of a %d-host cluster (original ranks %v)",
				curRank, lostNow, nextRank, len(nextMembers), nextMembers)
			addrs, members, curRank = nextAddrs, nextMembers, nextRank
			lostNow = nil
			resume = true
		default:
			return err
		}
	}
	if res.ResumedFrom > 0 {
		logger.Printf("rank %d: resumed from checkpoint round %d", curRank, res.ResumedFrom)
	}
	logger.Printf("rank %d: trained %d pairs in %s (%s sent)", curRank,
		res.Engine.Train.Pairs, time.Since(start).Round(time.Millisecond), cliutil.FormatBytes(float64(res.Engine.Comm.TotalBytes())))

	if res.Canonical != nil {
		if err := res.Canonical.SaveFile(*modelPath); err != nil {
			return err
		}
		if err := cliutil.SaveVocabSidecar(*modelPath, wl.Vocab); err != nil {
			return err
		}
		logger.Printf("rank 0: saved canonical model to %s", *modelPath)
	}
	return nil
}
