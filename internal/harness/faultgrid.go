package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"
	"text/tabwriter"
	"time"

	"graphword2vec/internal/checkpoint"
	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
)

// The fault grid is the elasticity experiment (DESIGN.md §10): a
// priority-graded case matrix that kills one rank of a live 3-host
// cluster at every interesting point of the BSP round — during compute,
// mid-way through encoding a sync round's frames, mid-way through
// decoding a peer's, at the finish barrier, and in the middle of a
// checkpoint write that tears the on-disk snapshot — across all three
// communication schemes, both transports, and both workloads. Every
// cell must recover by re-forming the mesh, negotiating the newest
// cluster-wide checkpoint, and finishing with a final model
// byte-identical to an uninterrupted run.

// FaultPoint is where in the round the victim rank is killed.
type FaultPoint int

const (
	// FaultAtCompute kills the victim before it has sent any reduce
	// frame of the target round: its round-local gradient work is lost
	// entirely.
	FaultAtCompute FaultPoint = iota
	// FaultMidEncode kills the victim after its first reduce frame of
	// the target round but before the rest: peers hold a torn view of
	// its contribution.
	FaultMidEncode
	// FaultMidDecode kills the victim after it has consumed one peer
	// reduce frame of the target round but before the rest.
	FaultMidDecode
	// FaultAtBarrier kills the victim as it enters the finish barrier,
	// after all training rounds completed.
	FaultAtBarrier
	// FaultMidCheckpoint crashes the victim halfway through writing a
	// checkpoint, leaving a torn snapshot file that the store must
	// reject by hash, falling back to the previous generation.
	FaultMidCheckpoint
)

// String names the kill point.
func (p FaultPoint) String() string {
	switch p {
	case FaultAtCompute:
		return "compute"
	case FaultMidEncode:
		return "mid-encode"
	case FaultMidDecode:
		return "mid-decode"
	case FaultAtBarrier:
		return "barrier"
	case FaultMidCheckpoint:
		return "mid-ckpt-write"
	default:
		return fmt.Sprintf("FaultPoint(%d)", int(p))
	}
}

// FaultCase is one cell of the grid.
type FaultCase struct {
	// Priority grades the cell: 1 cells form the CI smoke lane, 2 the
	// full grid.
	Priority int
	// Workload is "text" or "graph".
	Workload string
	// Mode is the communication scheme under test.
	Mode gluon.Mode
	// Transport is "sim" (in-process channels) or "tcp" (loopback
	// sockets with tight failure-detection deadlines).
	Transport string
	// Point is where the victim dies.
	Point FaultPoint
}

// ID renders the cell's stable identifier.
func (c FaultCase) ID() string {
	return fmt.Sprintf("%s/%v/%s/%s", c.Workload, c.Mode, c.Transport, c.Point)
}

// FaultGridCases enumerates the full matrix: kill points × modes ×
// transports × workloads. Priority 1 marks a representative diagonal —
// every kill point, every mode, every transport and every workload is
// exercised by at least one P1 cell — sized for a CI smoke lane.
func FaultGridCases() []FaultCase {
	points := []FaultPoint{FaultAtCompute, FaultMidEncode, FaultMidDecode, FaultAtBarrier, FaultMidCheckpoint}
	modes := []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel}
	transports := []string{"sim", "tcp"}
	workloads := []string{"text", "graph"}
	var cases []FaultCase
	i := 0
	for _, wl := range workloads {
		for _, mode := range modes {
			for _, tr := range transports {
				for _, p := range points {
					prio := 2
					// The P1 diagonal: stride through the matrix so the
					// smoke slice still touches every axis value.
					if int(p) == i%len(points) {
						prio = 1
					}
					cases = append(cases, FaultCase{Priority: prio, Workload: wl, Mode: mode, Transport: tr, Point: p})
				}
				i++
			}
		}
	}
	return cases
}

// FaultGridRow is one executed cell's outcome.
type FaultGridRow struct {
	ID          string `json:"id"`
	Priority    int    `json:"priority"`
	Workload    string `json:"workload"`
	Mode        string `json:"mode"`
	Transport   string `json:"transport"`
	Point       string `json:"point"`
	FaultRound  uint32 `json:"fault_round"`
	ResumedFrom uint32 `json:"resumed_from"`
	// Recovered is true when the faulted run errored (the kill landed)
	// and the resume run completed.
	Recovered bool `json:"recovered"`
	// Identical is true when the recovered model hashes equal to the
	// uninterrupted reference run's.
	Identical bool   `json:"identical"`
	Hash      string `json:"hash"`
}

// faultGridRounds: every cell trains 2 epochs × 3 rounds with a
// checkpoint every 2 rounds and the kill targeting round 3, so one
// complete checkpoint generation (round 2) predates every fault.
const (
	faultGridEpochs     = 2
	faultGridSyncRounds = 3
	faultGridHosts      = 3
	faultGridCkptEvery  = 2
	faultGridKillRound  = 3
)

// faultTrigger decides, under its own lock, whether an observed frame
// is the one to die on.
type faultTrigger struct {
	point FaultPoint
	round uint32

	mu    sync.Mutex
	sends int
	recvs int
	fired bool
}

// onSend reports whether the victim must die instead of sending payload.
func (g *faultTrigger) onSend(payload []byte) bool {
	kind, round := gluon.InspectFrame(payload)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fired {
		return false
	}
	switch g.point {
	case FaultAtCompute:
		if kind == gluon.FrameReduce && round == g.round {
			g.fired = true
		}
	case FaultMidEncode:
		if kind == gluon.FrameReduce && round == g.round {
			g.sends++
			g.fired = g.sends == 2
		}
	case FaultAtBarrier:
		// Tag 2 is the distributed runner's finish barrier.
		if kind == gluon.FrameBarrier && round == 2 {
			g.fired = true
		}
	}
	return g.fired
}

// onRecv reports whether the victim must die instead of delivering a
// just-received payload.
func (g *faultTrigger) onRecv(payload []byte) bool {
	kind, round := gluon.InspectFrame(payload)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fired || g.point != FaultMidDecode {
		return false
	}
	if kind == gluon.FrameReduce && round == g.round {
		g.recvs++
		g.fired = g.recvs == 2
	}
	return g.fired
}

// errInjectedKill marks faults the grid injected itself, so cells can
// verify the faulted run died of the intended cause.
var errInjectedKill = errors.New("faultgrid: injected kill")

// faultTransport wraps the victim rank's transport and simulates a
// process kill at the trigger point: the underlying transport is closed
// (dropping every connection, exactly what a SIGKILL does to sockets)
// and the current operation fails.
type faultTransport struct {
	gluon.Transport
	trig *faultTrigger
}

func (f *faultTransport) kill() error {
	f.Transport.Close()
	return fmt.Errorf("%w at %v", errInjectedKill, f.trig.point)
}

func (f *faultTransport) Send(from, to int, payload []byte) error {
	if f.trig.onSend(payload) {
		return f.kill()
	}
	return f.Transport.Send(from, to, payload)
}

func (f *faultTransport) Recv(host int) (int, []byte, error) {
	from, payload, err := f.Transport.Recv(host)
	if err != nil {
		return from, payload, err
	}
	if f.trig.onRecv(payload) {
		return 0, nil, f.kill()
	}
	return from, payload, nil
}

// tearingSink is the FaultMidCheckpoint victim's checkpoint sink: it
// saves normally until the target generation, then simulates a crash
// halfway through the store's write-new/rotate sequence — the old
// current already demoted to .prev, the new current torn — and kills
// the transport.
type tearingSink struct {
	store *checkpoint.Store
	round uint32
	kill  func() error
}

func (s *tearingSink) Save(snap *checkpoint.Snapshot) error {
	if snap.NextRound != s.round {
		return s.store.Save(snap)
	}
	if err := os.MkdirAll(s.store.Dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(s.store.Path()); err == nil {
		if err := os.Rename(s.store.Path(), s.store.PrevPath()); err != nil {
			return err
		}
	}
	// A full snapshot cut off halfway: valid magic and header, torn
	// body, no trailing hash — must be rejected on load.
	if err := checkpoint.Save(s.store.Path(), snap); err != nil {
		return err
	}
	fi, err := os.Stat(s.store.Path())
	if err != nil {
		return err
	}
	if err := os.Truncate(s.store.Path(), fi.Size()/2); err != nil {
		return err
	}
	return s.kill()
}

// faultWorkload carries one materialised workload's constructors.
type faultWorkload struct {
	name string
	cfg  func(mode gluon.Mode) core.Config
	run  func(cfg core.Config, rank int, tr gluon.Transport, opts core.RunOptions) (*core.DistributedResult, error)
}

// faultWorkloads materialises the text and graph datasets once.
func faultWorkloads(opts Options) ([]*faultWorkload, error) {
	text, err := LoadDataset("1-billion", opts)
	if err != nil {
		return nil, err
	}
	graph, err := LoadGraphDataset(opts)
	if err != nil {
		return nil, err
	}
	shape := func(cfg core.Config) core.Config {
		cfg.Epochs = faultGridEpochs
		cfg.SyncRounds = faultGridSyncRounds
		return cfg
	}
	return []*faultWorkload{
		{
			name: "text",
			cfg: func(mode gluon.Mode) core.Config {
				return shape(distConfig(opts, faultGridHosts, faultGridSyncRounds, "MC", mode, opts.BaseAlpha))
			},
			run: func(cfg core.Config, rank int, tr gluon.Transport, ro core.RunOptions) (*core.DistributedResult, error) {
				return core.RunDistributedOpts(cfg, rank, tr, text.Vocab, text.Neg, text.Corp, opts.Dim, ro)
			},
		},
		{
			name: "graph",
			cfg: func(mode gluon.Mode) core.Config {
				return shape(GraphTrainConfig(opts, faultGridHosts, mode))
			},
			run: func(cfg core.Config, rank int, tr gluon.Transport, ro core.RunOptions) (*core.DistributedResult, error) {
				return core.RunDistributedOpts(cfg, rank, tr, graph.Vocab, graph.Neg, graph.Walker, opts.Dim, ro)
			},
		},
	}, nil
}

// faultGridTransports builds the per-rank transports for one cluster
// attempt of the given size. The "tcp" flavour uses tight
// failure-detection deadlines so survivors notice a kill in
// milliseconds, not the 5 s default.
func faultGridTransports(kind string, hosts int) ([]gluon.Transport, func(), error) {
	switch kind {
	case "sim":
		tr, err := gluon.NewInProcTransport(hosts)
		if err != nil {
			return nil, nil, err
		}
		out := make([]gluon.Transport, hosts)
		for h := range out {
			out[h] = tr
		}
		return out, func() { tr.Close() }, nil
	case "tcp":
		trs, err := gluon.NewTCPClusterOpts(hosts, gluon.TCPOptions{
			HeartbeatInterval: 20 * time.Millisecond,
			PeerLossGrace:     100 * time.Millisecond,
		})
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
	default:
		return nil, nil, fmt.Errorf("harness: unknown fault-grid transport %q", kind)
	}
}

// clusterRun drives all ranks of one cluster attempt concurrently and
// returns the per-rank results and errors.
func clusterRun(w *faultWorkload, cfg core.Config, trs []gluon.Transport, mkOpts func(rank int) core.RunOptions) ([]*core.DistributedResult, []error) {
	results := make([]*core.DistributedResult, cfg.Hosts)
	errs := make([]error, cfg.Hosts)
	var wg sync.WaitGroup
	for h := 0; h < cfg.Hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			results[h], errs[h] = w.run(cfg, h, trs[h], mkOpts(h))
		}(h)
	}
	wg.Wait()
	return results, errs
}

// runFaultCell executes one cell: reference hash, faulted run, resume
// run, byte-identity verdict.
func runFaultCell(w *faultWorkload, c FaultCase, refHash string, dir string) (FaultGridRow, error) {
	cfg := w.cfg(c.Mode)
	row := FaultGridRow{
		ID: c.ID(), Priority: c.Priority, Workload: c.Workload,
		Mode: c.Mode.String(), Transport: c.Transport, Point: c.Point.String(),
		FaultRound: faultGridKillRound,
	}
	switch c.Point {
	case FaultAtBarrier:
		// The finish barrier sits after all training rounds.
		row.FaultRound = faultGridEpochs * faultGridSyncRounds
	case FaultMidCheckpoint:
		// Tear the second checkpoint generation, so a good first one
		// exists to fall back to.
		row.FaultRound = 2 * faultGridCkptEvery
	}
	policy := func(resume bool) *core.CheckpointPolicy {
		return &core.CheckpointPolicy{Dir: dir, Every: faultGridCkptEvery, Resume: resume}
	}

	// The faulted run: the victim (rank 1 — a non-root rank, so the
	// negotiation's coordinator survives) dies at the kill point; every
	// rank must surface an error rather than hang.
	trs, closeAll, err := faultGridTransports(c.Transport, faultGridHosts)
	if err != nil {
		return row, err
	}
	const victim = 1
	trig := &faultTrigger{point: c.Point, round: faultGridKillRound}
	ft := &faultTransport{Transport: trs[victim], trig: trig}
	trs[victim] = ft
	_, errs := clusterRun(w, cfg, trs, func(rank int) core.RunOptions {
		ro := core.RunOptions{Checkpoint: policy(false)}
		if rank == victim && c.Point == FaultMidCheckpoint {
			ro.Sink = &tearingSink{
				store: checkpoint.NewStore(dir, victim),
				round: row.FaultRound,
				kill:  ft.kill,
			}
		}
		return ro
	})
	closeAll()
	if err := checkKilled(errs, victim); err != nil {
		return row, fmt.Errorf("harness: %s: %w", c.ID(), err)
	}

	// The resume run: a fresh mesh over fresh transports, every rank
	// asking to resume. The cluster must agree on a checkpointed round
	// > 0 and finish byte-identical to the uninterrupted reference.
	trs, closeAll, err = faultGridTransports(c.Transport, faultGridHosts)
	if err != nil {
		return row, err
	}
	defer closeAll()
	results, errs := clusterRun(w, cfg, trs, func(int) core.RunOptions {
		return core.RunOptions{Checkpoint: policy(true)}
	})
	for h, err := range errs {
		if err != nil {
			return row, fmt.Errorf("harness: %s: resume rank %d: %w", c.ID(), h, err)
		}
	}
	row.Recovered = true
	row.ResumedFrom = results[0].ResumedFrom
	row.Hash = hashCanonical(results[0].Canonical)
	row.Identical = row.Hash == refHash
	return row, nil
}

// FaultGrid executes the given cells (use FaultGridCases for the full
// matrix), renders a case table to opts.Out, and returns the rows. A
// cell that fails to recover or recovers a divergent model makes the
// whole grid return an error alongside the rows collected so far.
func FaultGrid(opts Options, cases []FaultCase) ([]FaultGridRow, error) {
	opts = opts.WithDefaults()
	workloads, err := faultWorkloads(opts)
	if err != nil {
		return nil, err
	}
	byName := map[string]*faultWorkload{}
	for _, w := range workloads {
		byName[w.name] = w
	}

	reference := gridReference("fault-grid", faultGridHosts)

	var rows []FaultGridRow
	var failed []string
	for _, c := range cases {
		w, ok := byName[c.Workload]
		if !ok {
			return rows, fmt.Errorf("harness: unknown fault-grid workload %q", c.Workload)
		}
		refHash, err := reference(w, c.Mode)
		if err != nil {
			return rows, err
		}
		dir, err := os.MkdirTemp("", "gw2v-faultgrid-*")
		if err != nil {
			return rows, err
		}
		row, err := runFaultCell(w, c, refHash, dir)
		os.RemoveAll(dir)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
		if !row.Recovered || !row.Identical {
			failed = append(failed, row.ID)
		}
	}

	tw := tabwriter.NewWriter(opts.out(), 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Fault grid (scale=%s, %d hosts, ckpt every %d rounds, kill rank 1)\n",
		opts.Scale, faultGridHosts, faultGridCkptEvery)
	fmt.Fprintln(tw, "P\tWorkload\tMode\tTransport\tKill point\tFault@\tResume@\tRecovered\tByte-identical")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%d\t%d\t%v\t%v\n",
			r.Priority, r.Workload, r.Mode, r.Transport, r.Point,
			r.FaultRound, r.ResumedFrom, r.Recovered, r.Identical)
	}
	if err := tw.Flush(); err != nil {
		return rows, err
	}
	if len(failed) > 0 {
		return rows, fmt.Errorf("harness: %d fault-grid cells did not recover byte-identically: %v", len(failed), failed)
	}
	return rows, nil
}

// gridReference returns a memoised lookup of the uninterrupted
// reference model hash per (workload, mode) on a hosts-wide cluster,
// computed on demand over the sim transport — transport byte-identity
// is pinned separately (TestSyncBitIdentityTCP), so one reference
// serves every transport. grid names the caller in errors.
func gridReference(grid string, hosts int) func(w *faultWorkload, mode gluon.Mode) (string, error) {
	refs := map[string]string{}
	return func(w *faultWorkload, mode gluon.Mode) (string, error) {
		key := w.name + "/" + mode.String()
		if h, ok := refs[key]; ok {
			return h, nil
		}
		trs, closeAll, err := faultGridTransports("sim", hosts)
		if err != nil {
			return "", err
		}
		defer closeAll()
		results, errs := clusterRun(w, w.cfg(mode), trs, func(int) core.RunOptions { return core.RunOptions{} })
		for h, err := range errs {
			if err != nil {
				return "", fmt.Errorf("harness: %s reference %s rank %d: %w", grid, key, h, err)
			}
		}
		h := hashCanonical(results[0].Canonical)
		refs[key] = h
		return h, nil
	}
}

// checkKilled verifies a kill run's premise: every rank failed (a
// survivor means the kill did not land, or a rank finished regardless),
// and the victim died of the injected fault, not of a peer's echo.
func checkKilled(errs []error, victim int) error {
	for _, err := range errs {
		if err == nil {
			return errors.New("a rank survived the injected fault")
		}
	}
	if !errors.Is(errs[victim], errInjectedKill) {
		return fmt.Errorf("victim died of %v, not the injected fault", errs[victim])
	}
	return nil
}

// hashCanonical hashes a gathered canonical model's serialised bytes —
// the byte-identity verdict's currency.
func hashCanonical(m *model.Model) string {
	h := sha256.New()
	if err := m.Save(h); err != nil {
		// model.Save to a hash never fails short of OOM; keep the
		// signature simple and make any failure visible in the verdict.
		return "unhashable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
