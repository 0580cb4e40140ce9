package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"

	"graphword2vec/internal/corpus"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/graph"
	"graphword2vec/internal/model"
	"graphword2vec/internal/vocab"
)

// Trainer runs GraphWord2Vec (Algorithm 1) on a simulated cluster: one
// Engine per host over an in-process transport, each running its own
// Engine.Run schedule on its own goroutine, stepped in lockstep so each
// phase's per-host timings can be measured and aggregated. The real
// multi-process execution path runs the identical schedule free-running
// over TCP (see RunDistributed); with ThreadsPerHost == 1 the two paths
// produce bit-identical models.
type Trainer struct {
	cfg Config
	voc *vocab.Vocabulary
	neg *vocab.UnigramTable
	src corpus.SequenceSource
	dim int

	// SequentialCompute runs host compute phases one after another so
	// per-host timings are uncontended (the experiment harness sets
	// this); otherwise hosts compute concurrently. Either way results
	// are bit-identical when ThreadsPerHost == 1, because each host
	// only writes its own replica with its own generators.
	SequentialCompute bool

	// TransportFactory, when non-nil, builds the cluster's transports —
	// one per host — instead of the default shared in-process transport.
	// The bit-identity tests use it to drive the identical lockstep
	// trainer over a loopback TCP cluster, which must train the same
	// model the in-process transport does. cleanup (may be nil) is
	// invoked when Run returns.
	TransportFactory func(hosts int) (trs []gluon.Transport, cleanup func(), err error)
}

// NewTrainer validates the configuration against the data and returns a
// Trainer. src is any corpus.SequenceSource (a text corpus, a random-walk
// generator, ...); dim is the embedding dimensionality.
func NewTrainer(cfg Config, voc *vocab.Vocabulary, neg *vocab.UnigramTable, src corpus.SequenceSource, dim int) (*Trainer, error) {
	if err := validateInputs(cfg, voc, neg, src, dim); err != nil {
		return nil, err
	}
	return &Trainer{cfg: cfg, voc: voc, neg: neg, src: src, dim: dim}, nil
}

// Run executes the configured training and returns measurements plus the
// final canonical model.
func (t *Trainer) Run() (*Result, error) {
	cfg := t.cfg
	var trs []gluon.Transport
	if t.TransportFactory != nil {
		built, cleanup, err := t.TransportFactory(cfg.Hosts)
		if err != nil {
			return nil, err
		}
		if cleanup != nil {
			defer cleanup()
		}
		if len(built) != cfg.Hosts {
			return nil, fmt.Errorf("core: transport factory built %d transports for %d hosts", len(built), cfg.Hosts)
		}
		trs = built
	} else {
		tr, err := gluon.NewInProcTransport(cfg.Hosts)
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		trs = make([]gluon.Transport, cfg.Hosts)
		for h := range trs {
			trs[h] = tr
		}
	}

	part, err := graph.NewPartition(t.voc.Size(), cfg.Hosts)
	if err != nil {
		return nil, err
	}
	init := model.New(t.voc.Size(), t.dim)
	init.InitRandom(cfg.Seed)
	ls := &lockstep{
		onEpoch:    cfg.OnEpoch,
		sequential: t.SequentialCompute,
		trs:        trs,
		engines:    make([]*Engine, cfg.Hosts),
		eps:        make([]EngineResult, cfg.Hosts),
	}
	ls.cond = sync.NewCond(&ls.mu)
	for h := range ls.engines {
		ls.engines[h], err = newEngine(cfg, h, abortingTransport{trs[h], ls}, t.voc, t.neg, t.src, t.dim, init, part)
		if err != nil {
			return nil, err
		}
	}

	hostRes := make([]*EngineResult, cfg.Hosts)
	var wg sync.WaitGroup
	for h, e := range ls.engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := e.Run(nil, ls)
			if err != nil {
				ls.fail(err)
			}
			hostRes[h] = r
		}()
	}
	wg.Wait()
	// Locked: a failed run's background sync rounds may still be
	// reporting their transport's closure.
	ls.mu.Lock()
	cause := ls.cause
	ls.mu.Unlock()
	if cause != nil {
		return nil, cause
	}
	res := &Result{Hosts: cfg.Hosts, Canonical: assembleCanonical(part, ls.engines, t.dim), Epochs: ls.epochs,
		CriticalComputeSeconds: ls.critCompute, CriticalSyncSeconds: ls.critSync}
	for _, er := range res.Epochs {
		res.Comm.Add(er.Comm)
		res.Train.Add(er.Train)
	}
	for _, hr := range hostRes {
		res.ComputeSeconds = append(res.ComputeSeconds, hr.ComputeSeconds)
		res.SyncSeconds = append(res.SyncSeconds, hr.SyncSeconds)
		res.OverlapSeconds = append(res.OverlapSeconds, hr.OverlapSeconds)
	}
	return res, nil
}

// errLockstepAborted is what a host waiting on the coordinator gets
// once another host has failed.
var errLockstepAborted = errors.New("core: lockstep aborted after another host failed")

// lockstep steps a simulated cluster's engines through Engine.Run's
// schedule together. Every phase ends at a barrier across all hosts, so
// each phase's per-host timers can be aggregated into the BSP critical
// path; with sequential set, compute phases (gated ones included) also
// run one host at a time in host order, so their timings are
// uncontended. Sequential gated compute cannot deadlock: the barrier
// after sync start puts every host's background sync in flight first,
// and those progress without their host's compute. A nil *lockstep is
// the free-running schedule.
type lockstep struct {
	onEpoch    func(epoch int, canonical ModelView, er EpochResult)
	sequential bool
	trs        []gluon.Transport
	engines    []*Engine

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int    // hosts at the current barrier
	gen     uint64 // barriers completed
	turn    int    // next host to compute when sequential
	aborted bool
	cause   error // the run's first real failure

	// Under mu: the open round's and the run's critical path, each
	// host's share of the open epoch, and the finished epochs.
	roundCompute, roundSync float64
	critCompute, critSync   float64
	eps                     []EngineResult
	epochs                  []EpochResult
}

// step runs phase p of engine e's schedule under its pprof label. On the
// lockstep path a sequential compute first waits for e's turn, and the
// phase ends at a cluster-wide barrier.
func (l *lockstep) step(e *Engine, p phase, fn func() error) (err error) {
	turn := l != nil && l.sequential && (p == phaseCompute || p == phaseGated)
	if turn {
		l.mu.Lock()
		err = l.wait(func() bool { return l.turn == e.host })
		l.mu.Unlock()
		if err != nil {
			return err
		}
	}
	pprof.Do(context.Background(), phaseLabels[p], func(context.Context) { err = fn() })
	if l == nil || err != nil {
		return err
	}
	return l.barrier(func(bool) {
		if turn {
			l.turn++
			l.cond.Broadcast()
		}
	})
}

// endRound closes a round at a barrier, adding the slowest host's
// compute and sync time to the run's critical path.
func (l *lockstep) endRound(compute, sync float64) error {
	if l == nil {
		return nil
	}
	return l.barrier(func(last bool) {
		l.roundCompute = max(l.roundCompute, compute)
		l.roundSync = max(l.roundSync, sync)
		if last {
			l.critCompute += l.roundCompute
			l.critSync += l.roundSync
			l.roundCompute, l.roundSync = 0, 0
		}
	})
}

// endEpoch closes an epoch at a barrier. The last host to arrive
// assembles the EpochResult, folding counters in host order so loss
// sums are deterministic. Host 0 then hands onEpoch the canonical model
// outside the lock while its peers wait, quiescent, at a second
// barrier.
func (l *lockstep) endEpoch(host, epoch int, alpha float32, ep *EngineResult) error {
	if l == nil {
		return nil
	}
	err := l.barrier(func(last bool) {
		l.eps[host] = *ep
		if !last {
			return
		}
		er := EpochResult{Epoch: epoch, Alpha: alpha}
		for _, hp := range l.eps {
			er.Comm.Add(hp.Comm)
			er.Train.Add(hp.Train)
		}
		l.epochs = append(l.epochs, er)
	})
	if err != nil || l.onEpoch == nil {
		return err
	}
	if host == 0 {
		e := l.engines[0]
		l.onEpoch(epoch, ModelView{Model: assembleCanonical(e.part, l.engines, e.dim)}, l.epochs[epoch])
	}
	return l.barrier(func(bool) {})
}

// barrier blocks until every host has arrived. arrive runs under the
// lock on each arrival (last marks the final one).
func (l *lockstep) barrier(arrive func(last bool)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.aborted {
		return errLockstepAborted
	}
	l.arrived++
	last := l.arrived == len(l.engines)
	arrive(last)
	if !last {
		gen := l.gen
		return l.wait(func() bool { return l.gen != gen })
	}
	l.arrived, l.turn = 0, 0
	l.gen++
	l.cond.Broadcast()
	return nil
}

// wait blocks, with l.mu held, until ready holds or the run aborts.
func (l *lockstep) wait(ready func() bool) error {
	for !ready() && !l.aborted {
		l.cond.Wait()
	}
	if l.aborted {
		return errLockstepAborted
	}
	return nil
}

// fail records a host's failure and releases the cluster: waiters at a
// barrier or turn return errLockstepAborted, and closing the transports
// unblocks hosts stuck receiving from the failed one, in a sync or
// behind a gate. The first error that is not such an echo — a closed
// transport, an aborted wait — becomes the run's cause.
func (l *lockstep) fail(err error) {
	echo := func(err error) bool {
		return errors.Is(err, gluon.ErrTransportClosed) || errors.Is(err, errLockstepAborted)
	}
	l.mu.Lock()
	if l.cause == nil || echo(l.cause) && !echo(err) {
		l.cause = err
	}
	first := !l.aborted
	l.aborted = true
	l.cond.Broadcast()
	l.mu.Unlock()
	if first {
		for _, tr := range l.trs {
			tr.Close()
		}
	}
}

// abortingTransport reports a failed send to the coordinator at once: a
// host whose overlapped sync fails in the background, while it waits
// for its sequential compute turn, would otherwise leave its peers
// blocked behind their gates.
type abortingTransport struct {
	gluon.Transport
	ls *lockstep
}

func (a abortingTransport) Send(from, to int, payload []byte) error {
	err := a.Transport.Send(from, to, payload)
	if err != nil {
		a.ls.fail(fmt.Errorf("core: host %d send to host %d: %w", from, to, err))
	}
	return err
}

// assembleCanonical builds the canonical model by gathering every owner's
// master-proxy range. In the RepModel schemes all replicas agree, but in
// PullModel mirrors may be stale, so assembly always reads owners. The
// multi-process path does the same assembly over the wire — see
// gluon.HostSync.GatherMasters.
func assembleCanonical(part *graph.Partition, engines []*Engine, dim int) *model.Model {
	out := model.New(part.NumNodes(), dim)
	for _, e := range engines {
		lo, hi := part.MasterRange(e.host)
		for n := lo; n < hi; n++ {
			copy(out.EmbRow(int32(n)), e.local.EmbRow(int32(n)))
			copy(out.CtxRow(int32(n)), e.local.CtxRow(int32(n)))
		}
	}
	return out
}
