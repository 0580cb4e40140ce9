package core

import (
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/checkpoint"
	"graphword2vec/internal/combine"
	"graphword2vec/internal/corpus"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/graph"
	"graphword2vec/internal/model"
	"graphword2vec/internal/sgns"
	"graphword2vec/internal/vocab"
	"graphword2vec/internal/xrand"
)

// Engine drives one host of a GraphWord2Vec cluster: the per-host slice
// of Algorithm 1 — compute rounds on the host's worklist chunk
// alternating with bulk-synchronous model synchronisation — talking to
// the rest of the cluster only through a gluon.Transport.
//
// Run is the one BSP round schedule, and both execution modes execute
// it:
//
//   - the real distributed mode (RunDistributed, cmd/gw2v-worker) runs
//     a single Engine per OS process over a TCP transport and lets Run
//     free-run; the BSP protocol's round-tagged messages keep hosts
//     aligned, and
//   - the simulated cluster (core.Trainer) runs one Engine per host,
//     each on its own goroutine, through the same schedule, with a
//     lockstep coordinator hooked into every phase so per-phase timings
//     can be aggregated across hosts.
//
// With ThreadsPerHost == 1 every random choice is derived from
// (Seed, epoch, round, host, thread), so the two modes produce
// bit-identical models.
type Engine struct {
	cfg  Config
	host int
	dim  int

	voc     *vocab.Vocabulary
	src     corpus.SequenceSource
	part    *graph.Partition
	local   *model.Model
	base    *model.Model
	sync    *gluon.HostSync
	trainer *sgns.Trainer

	// epochTokens caches the (possibly shuffled) worklist per epoch;
	// only the current and next epoch are retained.
	epochTokens map[int][]int32

	touched *bitset.Bitset
	access  *bitset.Bitset

	// Compute/sync overlap state (DESIGN.md §12). touchedNext is the
	// second half of the double buffer: while an in-flight sync reads
	// touched (round r), the gated compute of round r+1 records into
	// touchedNext; syncFinishRound swaps them. gates hold one
	// sgns.NodeGate per compute thread; inFlight marks the window
	// between syncStartRound and syncFinishRound, in which
	// computeRound runs gated.
	touchedNext    *bitset.Bitset
	gates          []*overlapGate
	inFlight       bool
	syncStartDur   float64
	gateBlocked    float64
	overlapSeconds float64

	// Per-thread compute-round state, allocated once and reused every
	// round so the steady-state round loop is allocation-free
	// (TestComputeRoundZeroAllocs): scratch buffers, touched-set and
	// stats staging for the multi-threaded path, and reseedable
	// generators (every round derives its stream by Reseed, never by
	// allocating a new generator).
	scratches []*sgns.Scratch
	perThread []*bitset.Bitset
	perStats  []sgns.Stats
	rands     []*xrand.Rand
	wg        sync.WaitGroup

	computeSeconds float64
	syncSeconds    float64
	stats          sgns.Stats
	prevComm       gluon.Stats

	// Checkpoint/resume state (DESIGN.md §10): ckpt receives a
	// snapshot every ckptEvery global rounds; startRound is the first
	// round a restored engine still has to execute; totalStats carries
	// the counters of epochs that finished before the snapshot, so
	// resumed runs report full-run totals.
	ckpt       CheckpointSink
	ckptEvery  int
	ckptSum    uint64
	startRound uint32
	stopAfter  uint32
	totalStats sgns.Stats
}

// CheckpointSink receives consistent round-boundary snapshots. The
// production sink is *checkpoint.Store; the fault-injection harness
// substitutes torn-write implementations.
type CheckpointSink interface {
	Save(*checkpoint.Snapshot) error
}

// EnableCheckpoints arms round-boundary snapshotting: after every
// `every` completed global rounds (and only at those BSP boundaries —
// see DESIGN.md §10 for why no other cut is consistent) the engine
// hands sink a Snapshot of its full resumable state. every <= 0
// defaults to one checkpoint per epoch (cfg.SyncRounds). configSum is
// the cluster's Config.Checksum, stamped into every snapshot so a
// restart with different hyperparameters refuses to resume.
func (e *Engine) EnableCheckpoints(sink CheckpointSink, every int, configSum uint64) {
	if every <= 0 {
		every = e.cfg.SyncRounds
	}
	e.ckpt = sink
	e.ckptEvery = every
	e.ckptSum = configSum
}

// Snapshot captures the engine's resumable state as of the boundary
// before global round nextRound. The returned snapshot ALIASES the
// live model buffers — it is only valid until the next compute round,
// long enough for a synchronous sink.Save to serialise it.
//
// Both replicas are captured: under PullModel the local working copy
// holds pulled mirrors that differ from the base replica, and the next
// round's combine needs both (DESIGN.md §10).
func (e *Engine) Snapshot(nextRound uint32) *checkpoint.Snapshot {
	rng := make([][4]uint64, len(e.rands))
	for i, r := range e.rands {
		rng[i] = r.State()
	}
	return &checkpoint.Snapshot{
		Checksum:   e.ckptSum,
		Rank:       e.host,
		Hosts:      e.cfg.Hosts,
		NextRound:  nextRound,
		Local:      e.local,
		Base:       e.base,
		RNG:        rng,
		EpochStats: e.stats,
		TotalStats: e.totalStats,
	}
}

// Restore rewinds a freshly constructed engine to a snapshot taken by
// Snapshot on a compatible run. Run will then skip the rounds the
// snapshot already covers and continue bit-identically with an
// uninterrupted run. The snapshot's buffers are copied, not retained.
func (e *Engine) Restore(s *checkpoint.Snapshot) error {
	if s == nil || s.Local == nil || s.Base == nil {
		return errors.New("core: nil snapshot")
	}
	if s.Rank != e.host || s.Hosts != e.cfg.Hosts {
		return fmt.Errorf("core: snapshot is rank %d/%d, engine is rank %d/%d", s.Rank, s.Hosts, e.host, e.cfg.Hosts)
	}
	if s.Local.Emb.Rows != e.local.Emb.Rows || s.Local.Dim != e.local.Dim ||
		s.Base.Emb.Rows != e.base.Emb.Rows || s.Base.Dim != e.base.Dim {
		return fmt.Errorf("core: snapshot shape %dx%d does not match model %dx%d",
			s.Local.Emb.Rows, s.Local.Dim, e.local.Emb.Rows, e.local.Dim)
	}
	if len(s.RNG) != len(e.rands) {
		return fmt.Errorf("core: snapshot has %d RNG states, engine has %d threads", len(s.RNG), len(e.rands))
	}
	total := uint32(e.cfg.Epochs * e.cfg.SyncRounds)
	if s.NextRound > total {
		return fmt.Errorf("core: snapshot round %d beyond run of %d rounds", s.NextRound, total)
	}
	e.local.CopyFrom(s.Local)
	e.base.CopyFrom(s.Base)
	for i := range e.rands {
		e.rands[i].SetState(s.RNG[i])
	}
	e.stats = s.EpochStats
	e.totalStats = s.TotalStats
	e.startRound = s.NextRound
	// A snapshot cut exactly at an epoch boundary was taken after that
	// epoch's last sync but before finishEpoch ran: fold the pending
	// per-epoch counters into the run totals now, since Run will skip
	// the whole epoch (and with it the finishEpoch that would have).
	if s.NextRound > 0 && s.NextRound%uint32(e.cfg.SyncRounds) == 0 {
		e.totalStats.Add(e.stats)
		e.stats = sgns.Stats{}
	}
	return nil
}

// maybeCheckpoint snapshots to the configured sink when the boundary
// before global round next is a checkpoint boundary.
func (e *Engine) maybeCheckpoint(next uint32) error {
	if e.ckpt == nil || next%uint32(e.ckptEvery) != 0 {
		return nil
	}
	if err := e.ckpt.Save(e.Snapshot(next)); err != nil {
		return fmt.Errorf("core: checkpoint at round %d: %w", next, err)
	}
	return nil
}

// phase is one step of Run's round schedule.
type phase uint8

const (
	phaseCompute phase = iota // SGNS on the round's chunk (Algorithm 1 line 9)
	phaseInspect              // PullModel: the next round's access set
	phaseSync                 // synchronisation (line 10), or its overlapped start/finish
	phaseGated                // the next round's compute, gated on an in-flight sync
)

// phaseLabels tag the engine's phases, so -cpuprofile output
// (cliutil.StartProfiles) attributes samples to compute vs inspect vs
// sync. Applied via pprof.Do around each phase; goroutines a phase
// spawns (Hogwild threads, sync workers) inherit the label.
var phaseLabels = [...]pprof.LabelSet{
	phaseCompute: pprof.Labels("gw2v_phase", "compute"),
	phaseInspect: pprof.Labels("gw2v_phase", "inspect"),
	phaseSync:    pprof.Labels("gw2v_phase", "sync"),
	phaseGated:   pprof.Labels("gw2v_phase", "overlap"),
}

// validateInputs checks the data a training run needs, shared by
// NewTrainer and NewEngine.
func validateInputs(cfg Config, voc *vocab.Vocabulary, neg *vocab.UnigramTable, src corpus.SequenceSource, dim int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if voc == nil || neg == nil || src == nil {
		return errors.New("core: vocabulary, unigram table and sequence source are required")
	}
	if voc.Size() == 0 {
		return errors.New("core: empty vocabulary")
	}
	if src.Len() == 0 {
		return errors.New("core: empty sequence source")
	}
	if dim <= 0 {
		return fmt.Errorf("core: dim must be positive, got %d", dim)
	}
	if src.Len() < cfg.Hosts {
		return fmt.Errorf("core: source of %d tokens cannot be sharded across %d hosts", src.Len(), cfg.Hosts)
	}
	return nil
}

// NewEngine builds the engine for host `host` of a cfg.Hosts-wide
// cluster on transport tr. Every host must construct its engine from the
// same configuration, vocabulary, sequence source and dimensionality:
// the initial replica is derived from cfg.Seed (standing in for an
// initial broadcast) and the source is sharded deterministically, so
// identical inputs are what make replicas and worklists agree across
// hosts. src is any corpus.SequenceSource — a text *corpus.Corpus or a
// walk.Walker over a graph (the Any2Vec seam, DESIGN.md §6).
func NewEngine(cfg Config, host int, tr gluon.Transport, voc *vocab.Vocabulary, neg *vocab.UnigramTable, src corpus.SequenceSource, dim int) (*Engine, error) {
	return newEngine(cfg, host, tr, voc, neg, src, dim, nil, nil)
}

// newEngine optionally reuses a pre-built initial replica and partition
// so the simulated trainer pays the O(V·dim) random init once instead
// of once per host. init, when non-nil, must equal a fresh
// InitRandom(cfg.Seed) model; it is cloned, never retained.
func newEngine(cfg Config, host int, tr gluon.Transport, voc *vocab.Vocabulary, neg *vocab.UnigramTable, src corpus.SequenceSource, dim int, init *model.Model, part *graph.Partition) (*Engine, error) {
	if err := validateInputs(cfg, voc, neg, src, dim); err != nil {
		return nil, err
	}
	if host < 0 || host >= cfg.Hosts {
		return nil, fmt.Errorf("core: host %d out of range [0,%d)", host, cfg.Hosts)
	}
	if tr == nil {
		return nil, errors.New("core: transport is required")
	}
	if tr.NumHosts() != cfg.Hosts {
		return nil, fmt.Errorf("core: transport spans %d hosts, config %d", tr.NumHosts(), cfg.Hosts)
	}
	if part == nil {
		var err error
		part, err = graph.NewPartition(voc.Size(), cfg.Hosts)
		if err != nil {
			return nil, err
		}
	}
	// Identical initial replicas on every host (paper §4.2: the model is
	// fully replicated; a shared init seed stands in for an initial
	// broadcast).
	var local *model.Model
	if init == nil {
		local = model.New(voc.Size(), dim)
		local.InitRandom(cfg.Seed)
	} else {
		local = init.Clone()
	}
	base := local.Clone()
	hs, err := gluon.NewHostSync(host, part, tr, dim, cfg.Mode, combine.ByName(cfg.CombinerName, 2*dim), cfg.Wire)
	if err != nil {
		return nil, err
	}
	st, err := sgns.NewTrainer(local, voc, neg, cfg.Params)
	if err != nil {
		return nil, err
	}
	threads := cfg.ThreadsPerHost // ≥ 1, enforced by cfg.Validate above
	e := &Engine{
		cfg:         cfg,
		host:        host,
		dim:         dim,
		voc:         voc,
		src:         src,
		part:        part,
		local:       local,
		base:        base,
		sync:        hs,
		trainer:     st,
		epochTokens: make(map[int][]int32),
		touched:     bitset.New(voc.Size()),
		access:      bitset.New(voc.Size()),
		scratches:   make([]*sgns.Scratch, threads),
		perThread:   make([]*bitset.Bitset, threads),
		perStats:    make([]sgns.Stats, threads),
		rands:       make([]*xrand.Rand, threads),
	}
	for th := 0; th < threads; th++ {
		e.scratches[th] = st.NewScratch()
		e.rands[th] = xrand.New(0)
		e.perThread[th] = bitset.New(voc.Size())
	}
	if cfg.SyncOverlap {
		e.touchedNext = bitset.New(voc.Size())
		e.gates = make([]*overlapGate, threads)
		for th := 0; th < threads; th++ {
			e.gates[th] = newOverlapGate(e)
		}
	}
	return e, nil
}

// EngineResult is the outcome of one host's Run.
type EngineResult struct {
	// Host is the engine's rank.
	Host int
	// Local is the host's final working replica.
	Local *model.Model
	// Train aggregates the host's SGNS counters over the run.
	Train sgns.Stats
	// Comm is the traffic this host sent over the run.
	Comm gluon.Stats
	// ComputeSeconds is the host's total measured compute time. Gated
	// overlap compute counts only its productive portion here; time a
	// compute thread spent blocked on a row that was not yet final is
	// charged to SyncSeconds instead.
	ComputeSeconds float64
	// SyncSeconds is the host's total CRITICAL-PATH synchronisation
	// time: for serialized rounds the blocking Sync call (including
	// peer wait); for overlapped rounds SyncStart + the longest time
	// any compute thread spent gate-blocked + SyncFinish. The window a
	// sync round spent hidden behind useful compute is excluded and
	// reported in OverlapSeconds.
	SyncSeconds float64
	// OverlapSeconds is the total synchronisation time hidden behind
	// the next round's compute — the part of each overlapped round's
	// wall time that did NOT extend the critical path.
	OverlapSeconds float64
	// Paused reports that the run stopped at a StopAfterRound boundary
	// instead of completing every epoch. Train then counts only the
	// fully finished epochs; the partial epoch's counters live in the
	// checkpoint cut at the boundary.
	Paused bool
}

// Run executes the full training loop for this host: for every epoch and
// synchronisation round, compute on the round's worklist chunk, inspect
// the next round's accesses (PullModel), and synchronise. onEpoch, if
// non-nil, receives this host's per-epoch counters after each epoch. ls
// is the simulated cluster's lockstep coordinator, hooked into every
// phase, round end and epoch end; nil free-runs.
func (e *Engine) Run(onEpoch func(epoch int, alpha float32, train sgns.Stats, comm gluon.Stats), ls *lockstep) (*EngineResult, error) {
	res := &EngineResult{Host: e.host}
	// A restored engine reports full-run counters: totalStats carries
	// the epochs the snapshot already covered.
	res.Train = e.totalStats
	globalRound := uint32(0)
	// computedNext marks that the current round's compute already ran,
	// gated, during the previous round's overlapped sync; its timings
	// are still in computeSeconds.
	computedNext := false
	for epoch := 0; epoch < e.cfg.Epochs; epoch++ {
		if endRound := globalRound + uint32(e.cfg.SyncRounds); endRound <= e.startRound {
			// The snapshot covers this whole epoch; its counters are
			// already folded into totalStats (Restore).
			globalRound = endRound
			continue
		}
		alpha := e.cfg.alphaForEpoch(epoch)
		var ep EngineResult // this epoch's share of res
		for round := 0; round < e.cfg.SyncRounds; round++ {
			if globalRound < e.startRound {
				// Covered by the snapshot: its effects on the model,
				// RNG streams and per-epoch stats were restored.
				globalRound++
				continue
			}
			if e.stopAfter > 0 && globalRound >= e.stopAfter {
				// Pause at the requested boundary, before computing
				// this round: the checkpoint cut here (end of the
				// previous iteration) is what a grown cluster resumes
				// from. A restored engine whose startRound already
				// reaches stopAfter executes nothing. (Overlap never
				// computes into a stop round — see overlapNextOK.)
				res.Paused = true
				res.Local = e.local
				return res, nil
			}
			var err error
			do := func(p phase, fn func() error) {
				if err == nil {
					err = ls.step(e, p, fn)
				}
			}
			if !computedNext {
				do(phaseCompute, func() error { e.computeRound(epoch, round, alpha); return nil })
			}
			computedNext = false
			compute := e.computeSeconds
			if e.cfg.Mode == gluon.PullModel {
				do(phaseInspect, func() error { e.inspectNext(epoch, round); return nil })
			}
			if e.overlapNextOK(round, globalRound) {
				// Double-buffered round: launch sync(r) in the
				// background, run round r+1's compute gated on its
				// progress, then join. Same fold order, same RNG
				// streams — bit-identical to the serialized path.
				do(phaseSync, func() error { return e.syncStartRound(globalRound) })
				do(phaseGated, func() error { e.computeRound(epoch, round+1, alpha); return nil })
				do(phaseSync, e.syncFinishRound)
				computedNext = true
			} else {
				do(phaseSync, func() error { return e.syncRound(globalRound) })
			}
			if err == nil {
				err = ls.endRound(compute, e.syncSeconds)
			}
			if err != nil {
				return nil, fmt.Errorf("core: host %d epoch %d round %d: %w", e.host, epoch, round, err)
			}
			ep.ComputeSeconds += compute
			ep.SyncSeconds += e.syncSeconds
			ep.OverlapSeconds += e.overlapSeconds
			globalRound++
			if err := e.maybeCheckpoint(globalRound); err != nil {
				return nil, err
			}
		}
		ep.Train, ep.Comm = e.finishEpoch(epoch)
		res.Train.Add(ep.Train)
		res.Comm.Add(ep.Comm)
		res.ComputeSeconds += ep.ComputeSeconds
		res.SyncSeconds += ep.SyncSeconds
		res.OverlapSeconds += ep.OverlapSeconds
		if onEpoch != nil {
			onEpoch(epoch, alpha, ep.Train, ep.Comm)
		}
		if err := ls.endEpoch(e.host, epoch, alpha, &ep); err != nil {
			return nil, fmt.Errorf("core: host %d epoch %d: %w", e.host, epoch, err)
		}
	}
	res.Local = e.local
	return res, nil
}

// computeRound trains this host on its (epoch, round) worklist chunk
// (Algorithm 1 line 9) and records the wall time in computeSeconds.
// While an overlapped sync is in flight it runs gated: identical
// chunking, seeding and update order, but every row access first passes
// the thread's overlapGate, and the touched set lands in touchedNext
// (the in-flight sync owns touched). computeSeconds then records only
// the productive portion — which is also the sync time hidden behind
// it, overlapSeconds — and the gate-blocked remainder is charged to the
// sync critical path.
func (e *Engine) computeRound(epoch, round int, alpha float32) {
	chunk := e.roundChunk(epoch, round)
	touched := e.touched
	if e.inFlight {
		touched = e.touchedNext
	}
	touched.Reset()
	start := time.Now()
	// Thread 0 runs inline, straight into touched and stats; the rest
	// stage into per-thread slots merged after the join.
	threads := e.cfg.ThreadsPerHost
	for th := 1; th < threads; th++ {
		lo := len(chunk) * th / threads
		hi := len(chunk) * (th + 1) / threads
		e.perThread[th].Reset()
		e.perStats[th] = sgns.Stats{}
		e.wg.Add(1)
		go func(th, lo, hi int) {
			defer e.wg.Done()
			e.trainThread(chunk[lo:hi], epoch, round, th, alpha, e.perThread[th], &e.perStats[th])
		}(th, lo, hi)
	}
	e.trainThread(chunk[:len(chunk)/threads], epoch, round, 0, alpha, touched, &e.stats)
	e.wg.Wait()
	for th := 1; th < threads; th++ {
		touched.Or(e.perThread[th])
		e.stats.Add(e.perStats[th])
	}
	wall := time.Since(start).Seconds()
	blocked := 0.0
	if e.inFlight {
		for _, g := range e.gates {
			blocked = min(max(blocked, g.blocked.Seconds()), wall)
		}
		e.gateBlocked, e.overlapSeconds = blocked, wall-blocked
	}
	e.computeSeconds = wall - blocked
}

// trainThread runs compute thread th's share of a round, through its
// gate while a sync is in flight.
func (e *Engine) trainThread(chunk []int32, epoch, round, th int, alpha float32, touched *bitset.Bitset, st *sgns.Stats) {
	var gate sgns.NodeGate // nil: ungated
	if e.inFlight {
		e.gates[th].resetRound()
		gate = e.gates[th]
	}
	r := e.rands[th]
	r.Reseed(e.computeSeed(epoch, round, th))
	e.trainer.TrainTokensGated(chunk, alpha, r, touched, st, e.scratches[th], gate)
}

// inspectNext computes this host's next-round access set by replaying
// the upcoming compute's random choices (paper §4.4's inspection). After
// the final round the access set is left empty: nothing will be read.
func (e *Engine) inspectNext(epoch, round int) {
	e.access.Reset()
	nextEpoch, nextRound := epoch, round+1
	if nextRound >= e.cfg.SyncRounds {
		nextEpoch, nextRound = epoch+1, 0
	}
	if nextEpoch >= e.cfg.Epochs {
		return // final round: nothing will be accessed
	}
	chunk := e.roundChunk(nextEpoch, nextRound)
	threads := e.cfg.ThreadsPerHost
	for th := 0; th < threads; th++ {
		lo := len(chunk) * th / threads
		hi := len(chunk) * (th + 1) / threads
		// The compute phase reseeds before every use, so its per-thread
		// generators are free to reuse here between rounds.
		r := e.rands[th]
		r.Reseed(e.computeSeed(nextEpoch, nextRound, th))
		e.trainer.InspectTokens(chunk[lo:hi], r, e.access, e.scratches[th])
	}
}

// syncRound runs one bulk-synchronous synchronisation (Algorithm 1 line
// 10) against the rest of the cluster and records its wall time in
// syncSeconds (the per-phase timer behind EngineResult.SyncSeconds and
// the benchmark's core.sync_s).
func (e *Engine) syncRound(round uint32) error {
	start := time.Now()
	err := e.sync.Sync(round, e.local, e.base, e.touched, e.access)
	e.syncSeconds = time.Since(start).Seconds()
	e.overlapSeconds = 0
	return err
}

// overlapNextOK reports whether round (at global index globalRound) may
// run its synchronisation overlapped with the NEXT round's compute.
// Overlap needs a next round in the same epoch (alpha and the epoch
// accounting change at the boundary), and must not compute into a round
// whose preceding boundary is a checkpoint or stop cut — the snapshot
// there has to capture a model without round+1's updates.
func (e *Engine) overlapNextOK(round int, globalRound uint32) bool {
	if !e.cfg.SyncOverlap || round+1 >= e.cfg.SyncRounds {
		return false
	}
	if e.stopAfter > 0 && globalRound+1 >= e.stopAfter {
		return false
	}
	if e.ckpt != nil && (globalRound+1)%uint32(e.ckptEvery) == 0 {
		return false
	}
	return true
}

// syncStartRound launches this round's synchronisation on a background
// goroutine (gluon.HostSync.SyncStart) and records the launch cost.
func (e *Engine) syncStartRound(round uint32) error {
	start := time.Now()
	err := e.sync.SyncStart(round, e.local, e.base, e.touched, e.access)
	e.syncStartDur = time.Since(start).Seconds()
	e.inFlight = err == nil
	return err
}

// syncFinishRound joins the in-flight round and composes the overlapped
// round's critical-path sync time: launch + the longest any compute
// thread was gate-blocked + the join. It then swaps the touched double
// buffer so the next round's set (written gated) becomes current.
func (e *Engine) syncFinishRound() error {
	start := time.Now()
	err := e.sync.SyncFinish()
	finishDur := time.Since(start).Seconds()
	e.syncSeconds = e.syncStartDur + e.gateBlocked + finishDur
	e.touched, e.touchedNext = e.touchedNext, e.touched
	e.inFlight = false
	return err
}

// finishEpoch returns this host's training counters and communication
// delta for the epoch just completed and resets the per-epoch
// accumulators, freeing the consumed worklist.
func (e *Engine) finishEpoch(epoch int) (train sgns.Stats, comm gluon.Stats) {
	train = e.stats
	e.stats = sgns.Stats{}
	e.totalStats.Add(train)
	cur := e.sync.Stats()
	comm = cur.Sub(e.prevComm)
	e.prevComm = cur
	delete(e.epochTokens, epoch)
	return train, comm
}

// roundChunk returns this host's worklist chunk for (epoch, round),
// materialising (and caching) the epoch's worklist from the sequence
// source on first use. The source's generator is derived from
// (Seed, epoch, host) only, so the simulated and TCP execution modes
// materialise identical worklists.
func (e *Engine) roundChunk(epoch, round int) []int32 {
	tokens, ok := e.epochTokens[epoch]
	if !ok {
		r := xrand.New(e.shuffleSeed(epoch))
		tokens = e.src.HostEpochTokens(e.host, e.cfg.Hosts, epoch, e.cfg.ShuffleEachEpoch, e.cfg.Params.MaxSentenceLength, r)
		e.epochTokens[epoch] = tokens
	}
	s := e.cfg.SyncRounds
	lo := len(tokens) * round / s
	hi := len(tokens) * (round + 1) / s
	return tokens[lo:hi]
}

// computeSeed derives the deterministic generator seed for one compute
// unit. The inspection phase reuses the same derivation, which is what
// makes the PullModel access prediction exact.
func (e *Engine) computeSeed(epoch, round, thread int) uint64 {
	return mixSeed(e.cfg.Seed, 0xC0FFEE, uint64(epoch), uint64(round), uint64(e.host), uint64(thread))
}

// shuffleSeed derives the per-epoch, per-host seed driving the sequence
// source (worklist shuffling for text, walk sampling for graphs).
func (e *Engine) shuffleSeed(epoch int) uint64 {
	return mixSeed(e.cfg.Seed, 0x5EED, uint64(epoch), uint64(e.host))
}

// mixSeed folds parts into seed via SplitMix64 steps.
func mixSeed(seed uint64, parts ...uint64) uint64 {
	h := seed
	for _, p := range parts {
		sm := xrand.NewSplitMix64(h ^ (p * 0x9e3779b97f4a7c15))
		h = sm.Next()
	}
	return h
}
