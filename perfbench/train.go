package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/checkpoint"
	"graphword2vec/internal/core"
	"graphword2vec/internal/corpus"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
	"graphword2vec/internal/sgns"
	"graphword2vec/internal/xrand"
)

// timedTransport counts and times one rank's calls into its gluon
// transport. Recv blocks until a frame arrives, so its time is waiting,
// not work, and it is counted but not recorded as a span.
type timedTransport struct {
	gluon.Transport
	tr         *tracer
	run        string
	parent     int64
	sendCalls  atomic.Int64
	sendBytes  atomic.Int64
	sendNs     atomic.Int64
	recvWaitNs atomic.Int64
}

func (t *timedTransport) Send(from, to int, payload []byte) error {
	start := time.Now()
	err := t.Transport.Send(from, to, payload)
	end := time.Now()
	t.sendCalls.Add(1)
	t.sendBytes.Add(int64(len(payload)))
	t.sendNs.Add(int64(end.Sub(start)))
	t.tr.record(0, t.parent, t.run, "gluon.send", start, end)
	return err
}

func (t *timedTransport) Recv(host int) (int, []byte, error) {
	start := time.Now()
	from, payload, err := t.Transport.Recv(host)
	t.recvWaitNs.Add(int64(time.Since(start)))
	return from, payload, err
}

// timedSource times the sequence source's per-epoch worklist generation
// for each host, and keeps a copy of rank 0's first worklist for the
// kernel-only measurement.
type timedSource struct {
	corpus.SequenceSource
	tr      *tracer
	run     string
	parents []int64
	ns      []atomic.Int64
	tokens  []atomic.Int64
	mu      sync.Mutex
	first   []int32
}

func (s *timedSource) HostEpochTokens(host, hosts, epoch int, shuffle bool, maxSentence int, r *xrand.Rand) []int32 {
	start := time.Now()
	out := s.SequenceSource.HostEpochTokens(host, hosts, epoch, shuffle, maxSentence, r)
	end := time.Now()
	s.ns[host].Add(int64(end.Sub(start)))
	s.tokens[host].Add(int64(len(out)))
	s.tr.record(0, s.parents[host], s.run, "input.epoch_tokens", start, end)
	if host == 0 && epoch == 0 {
		s.mu.Lock()
		s.first = append([]int32(nil), out...)
		s.mu.Unlock()
	}
	return out
}

// timedSink times one rank's checkpoint writes into a checkpoint.Store
// and counts the bytes the store leaves on disk.
type timedSink struct {
	store  *checkpoint.Store
	tr     *tracer
	run    string
	parent int64
	saves  int
	ns     int64
	bytes  int64
}

func (s *timedSink) Save(snap *checkpoint.Snapshot) error {
	start := time.Now()
	err := s.store.Save(snap)
	end := time.Now()
	s.tr.record(0, s.parent, s.run, "checkpoint.save", start, end)
	if err != nil {
		return err
	}
	s.saves++
	s.ns += int64(end.Sub(start))
	if st, err := os.Stat(s.store.Path()); err == nil {
		s.bytes += st.Size()
	}
	return nil
}

// rankLedger is one rank's account of a training pass.
type rankLedger struct {
	err        error
	start, end time.Time
	epochEnds  []time.Time
	engine     *core.EngineResult
	canonical  *model.Model
	transport  *timedTransport
	session    gluon.SessionStats
	sink       *timedSink
	inputS     float64
	// inspectS is the rank's PullModel inspect time, replayed outside
	// the run (traced passes only; see inspectSeconds).
	inspectS float64
}

// wall is the rank's time inside RunDistributedOpts.
func (r *rankLedger) wall() float64 { return r.end.Sub(r.start).Seconds() }

// gather is the time from the rank's last epoch to its return: the
// master gather and the finish barrier.
func (r *rankLedger) gather() float64 {
	if len(r.epochEnds) == 0 {
		return 0
	}
	return r.end.Sub(r.epochEnds[len(r.epochEnds)-1]).Seconds()
}

// residual is the rank's wall time not accounted to compute, sync,
// inspect, input, checkpoint or gather.
func (r *rankLedger) residual() float64 {
	acc := r.engine.ComputeSeconds + r.engine.SyncSeconds + r.inspectS + r.inputS + r.gather()
	if r.sink != nil {
		acc += float64(r.sink.ns) / 1e9
	}
	return r.wall() - acc
}

// trainPass is one setup + training pass over the loopback TCP mesh.
type trainPass struct {
	setupS, loadS float64
	wallS, cpuS   float64
	pairs         int64
	ranks         []*rankLedger
	canonical     *model.Model
	in            *inputs
	src           *timedSource
	cfg           core.Config
}

// release drops the pass's models, inputs, transports and worklist copy
// once its figures are taken, so a run's heap does not grow with its
// pass count.
func (p *trainPass) release() {
	p.canonical, p.in = nil, nil
	p.src.SequenceSource, p.src.first = nil, nil
	for _, r := range p.ranks {
		r.canonical = nil
		r.transport.Transport = nil
		if r.engine != nil {
			r.engine.Local = nil
		}
	}
}

// setup generates the inputs and forms the TCP mesh, the part of a
// pass that precedes training.
func setupPass(w workload, seed, trainSeed uint64) (*trainPass, []*gluon.TCPTransport, error) {
	p := &trainPass{cfg: w.config(trainSeed)}
	start := time.Now()
	in, err := w.loadInputs(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("inputs: %w", err)
	}
	p.loadS = time.Since(start).Seconds()
	p.in = in
	trs, err := gluon.NewTCPClusterOpts(p.cfg.Hosts, gluon.TCPOptions{Session: p.cfg.HealOptions()})
	if err != nil {
		return nil, nil, fmt.Errorf("tcp cluster: %w", err)
	}
	p.setupS = time.Since(start).Seconds()
	return p, trs, nil
}

// runPass trains one model: each rank is a goroutine running
// core.RunDistributedOpts on its own TCP transport, wrapped so every
// layer it crosses is timed from outside.
func runPass(w workload, p *trainPass, trs []*gluon.TCPTransport, tr *tracer, run, ckptDir string) error {
	// A rank that fails closes every transport, so its peers stop
	// waiting for it and the pass ends.
	var closeOnce sync.Once
	closeAll := func() {
		closeOnce.Do(func() {
			for _, t := range trs {
				t.Close()
			}
		})
	}
	defer closeAll()
	n := p.cfg.Hosts
	p.ranks = make([]*rankLedger, n)
	rootIDs := make([]int64, n)
	for r := range rootIDs {
		rootIDs[r] = tr.newID()
	}
	src := &timedSource{
		SequenceSource: p.in.src, tr: tr, run: run,
		parents: rootIDs, ns: make([]atomic.Int64, n), tokens: make([]atomic.Int64, n),
	}
	p.src = src
	if ckptDir != "" {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(ckptDir)
	}

	cpu0 := cpuSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		led := &rankLedger{transport: &timedTransport{Transport: trs[r], tr: tr, run: run, parent: rootIDs[r]}}
		p.ranks[r] = led
		opts := core.RunOptions{
			OnEpoch: func(int, float32, sgns.Stats, gluon.Stats) {
				led.epochEnds = append(led.epochEnds, time.Now())
			},
		}
		if w.ckptEvery > 0 {
			led.sink = &timedSink{store: checkpoint.NewStore(ckptDir, r), tr: tr, run: run, parent: rootIDs[r]}
			opts.Checkpoint = &core.CheckpointPolicy{Dir: ckptDir, Every: w.ckptEvery}
			opts.Sink = led.sink
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			led.start = time.Now()
			res, err := core.RunDistributedOpts(p.cfg, r, led.transport, p.in.voc, p.in.neg, src, w.dim, opts)
			led.end = time.Now()
			tr.record(rootIDs[r], 0, run, "core.rank", led.start, led.end)
			led.err = err
			if err != nil {
				closeAll()
				return
			}
			led.engine = res.Engine
			led.canonical = res.Canonical
		}(r)
	}
	wg.Wait()
	p.wallS = time.Since(start).Seconds()
	p.cpuS = cpuSeconds() - cpu0
	for r, led := range p.ranks {
		led.session = trs[r].SessionStats()
		led.inputS = float64(src.ns[r].Load()) / 1e9
		if led.err != nil {
			return fmt.Errorf("rank %d: %w", r, led.err)
		}
		p.pairs += led.engine.Train.Pairs
	}
	p.canonical = p.ranks[0].canonical
	if p.canonical == nil {
		return fmt.Errorf("rank 0 returned no gathered model")
	}
	if tr != nil && p.cfg.Mode == gluon.PullModel {
		inspect, err := inspectSeconds(p)
		if err != nil {
			return fmt.Errorf("inspect replay: %w", err)
		}
		for _, led := range p.ranks {
			led.inspectS = inspect
		}
	}
	return nil
}

// inspectSeconds returns one rank's time in the PullModel inspect pass
// over the whole run. core runs the pass once per round, inspecting the
// next round's chunk of the worklist, but has no timer for it, so it is
// timed here by replaying sgns.Trainer.InspectTokens on the round chunks
// of rank 0's first worklist, and scaled to the run's epochs·rounds−1
// inspections (the last round has no next round). Ranks get equal
// shares of the tokens, so rank 0's time stands for every rank's.
func inspectSeconds(p *trainPass) (float64, error) {
	p.src.mu.Lock()
	tokens := p.src.first
	p.src.mu.Unlock()
	if len(tokens) == 0 {
		return 0, fmt.Errorf("no rank 0 worklist captured")
	}
	m := model.New(p.in.voc.Size(), p.canonical.Dim)
	t, err := sgns.NewTrainer(m, p.in.voc, p.in.neg, p.cfg.Params)
	if err != nil {
		return 0, err
	}
	access := bitset.New(p.in.voc.Size())
	sc := t.NewScratch()
	r := xrand.New(p.cfg.Seed)
	rounds := p.cfg.SyncRounds
	start := time.Now()
	for round := 0; round < rounds; round++ {
		access.Reset()
		r.Reseed(p.cfg.Seed + uint64(round))
		t.InspectTokens(tokens[len(tokens)*round/rounds:len(tokens)*(round+1)/rounds], r, access, sc)
	}
	perEpoch := time.Since(start).Seconds()
	return perEpoch * float64(p.cfg.Epochs*rounds-1) / float64(rounds), nil
}

// modelBytes serialises a model for byte-identity comparison.
func modelBytes(m *model.Model) ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// kernelMpairsPerS trains rank 0's first epoch worklist with the bare
// SGNS kernel on a fresh model, with no cluster: the kernel's speed
// apart from the engine around it.
func kernelMpairsPerS(w workload, p *trainPass) (float64, error) {
	p.src.mu.Lock()
	tokens := p.src.first
	p.src.mu.Unlock()
	if len(tokens) == 0 {
		return 0, fmt.Errorf("no rank 0 worklist captured")
	}
	m := model.New(p.in.voc.Size(), w.dim)
	m.InitRandom(p.cfg.Seed)
	t, err := sgns.NewTrainer(m, p.in.voc, p.in.neg, p.cfg.Params)
	if err != nil {
		return 0, err
	}
	var st sgns.Stats
	r := xrand.New(p.cfg.Seed)
	start := time.Now()
	t.TrainTokens(tokens, p.cfg.Alpha, r, nil, &st, nil)
	return float64(st.Pairs) / 1e6 / time.Since(start).Seconds(), nil
}

// singleRankMpairsPerS trains the same configuration on a 1-rank TCP
// mesh, the base of the scaling efficiency.
func singleRankMpairsPerS(w workload, p *trainPass, dir string) (float64, error) {
	cfg := p.cfg
	cfg.Hosts = 1
	trs, err := gluon.NewTCPClusterOpts(1, gluon.TCPOptions{Session: cfg.HealOptions()})
	if err != nil {
		return 0, err
	}
	defer trs[0].Close()
	opts := core.RunOptions{}
	if w.ckptEvery > 0 {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		opts.Checkpoint = &core.CheckpointPolicy{Dir: dir, Every: w.ckptEvery}
	}
	start := time.Now()
	res, err := core.RunDistributedOpts(cfg, 0, trs[0], p.in.voc, p.in.neg, p.in.src, w.dim, opts)
	if err != nil {
		return 0, err
	}
	return float64(res.Engine.Train.Pairs) / 1e6 / time.Since(start).Seconds(), nil
}

// inProcessIdentical trains the same configuration on core's in-process
// simulated cluster and reports whether its model is byte-identical to
// the TCP-trained one.
func inProcessIdentical(w workload, p *trainPass) (bool, error) {
	t, err := core.NewTrainer(p.cfg, p.in.voc, p.in.neg, p.in.src, w.dim)
	if err != nil {
		return false, err
	}
	res, err := t.Run()
	if err != nil {
		return false, err
	}
	a, err := modelBytes(res.Canonical)
	if err != nil {
		return false, err
	}
	b, err := modelBytes(p.canonical)
	if err != nil {
		return false, err
	}
	return bytes.Equal(a, b), nil
}
