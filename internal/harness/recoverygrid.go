package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"graphword2vec/internal/chaos"
	"graphword2vec/internal/checkpoint"
	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
)

// The recovery grid's runner. Every cell (recoverycases.go) goes
// through three phases:
//
//   - disrupt: the old cluster is killed, paused or run through its
//     chaos plan;
//   - continue: unless it healed in place, the cluster relaunches at
//     its new shape, each rank resuming under its old identity — the
//     identity map when the shape is unchanged — through core's one
//     recovery path, the membership negotiation (PROTOCOL.md §10);
//   - verdict: the final model's hash must equal the memoised
//     fault-free reference, or, after a shape change, that of a cluster
//     launched straight from the cut checkpoint the change wrote. A
//     second failure's verdict is each rank's error class instead.

// Cell shape: 2 epochs × 3 rounds on 3 hosts, a checkpoint every 2
// rounds and kills (and the storm) aimed at round 3, so one complete
// checkpoint generation (round 2) predates every fault. The grow
// change pauses its 2-host cluster at the end of the first epoch.
const (
	gridEpochs       = 2
	gridSyncRounds   = 3
	gridHosts        = 3
	gridCkptEvery    = 2
	gridKillRound    = 3
	gridGrowCut      = gridSyncRounds
	gridVictim       = 1 // a non-root rank, so the negotiation's coordinator survives
	chaosHealBudget  = 3 * time.Second
	chaosStormBudget = 300 * time.Millisecond
)

// RecoveryRow is one executed cell's outcome.
type RecoveryRow struct {
	ID        string `json:"id"`
	Priority  int    `json:"priority"`
	Workload  string `json:"workload"`
	Mode      string `json:"mode"`
	Transport string `json:"transport"`
	// The fault axes the cell sets; unset axes are omitted.
	Kill   string `json:"kill,omitempty"`
	Shape  string `json:"shape,omitempty"`
	Chaos  string `json:"chaos,omitempty"`
	Second string `json:"second,omitempty"`
	// OldHosts and NewHosts are the cluster sizes before and after.
	OldHosts int `json:"old_hosts"`
	NewHosts int `json:"new_hosts"`
	// FaultRound is the round the first kill lands in (0 without one).
	FaultRound uint32 `json:"fault_round"`
	// ResumedFrom is the checkpointed round the relaunched cluster
	// resumed from — a shape change's cut. It is 0 for a cell that
	// healed in place, and for one whose negotiation degraded to a
	// fresh start (a PullModel replace: the dead rank's master range
	// has no surviving source).
	ResumedFrom uint32 `json:"resumed_from"`
	// Injections counts the faults the chaos injector fired over every
	// directed link and cluster attempt; Heals the session
	// re-establishments, Dups the received frames discarded as
	// duplicates.
	Injections int `json:"injections"`
	Heals      int `json:"heals"`
	Dups       int `json:"dups"`
	// Escalated is true when the chaos outlasted the healing budget and
	// every rank degraded into gluon.ErrPeerLost (the storm class).
	Escalated bool `json:"escalated"`
	// RankErrors is a second failure's verdict: each relaunched rank's
	// error class, "injected-kill" on the last rank (the victim) and
	// "peer-lost" on every other.
	RankErrors []string `json:"rank_errors,omitempty"`
	// Recovered is true when training finished, in place or relaunched.
	Recovered bool `json:"recovered"`
	// Identical is true when the final model hashes equal to the
	// cell's reference.
	Identical bool   `json:"identical"`
	Hash      string `json:"hash"`
}

// ok is the cell's verdict.
func (r RecoveryRow) ok() bool {
	if r.Second == "" {
		return r.Recovered && r.Identical
	}
	last := len(r.RankErrors) - 1
	for h, class := range r.RankErrors {
		want := "peer-lost"
		if h == last {
			want = "injected-kill"
		}
		if class != want {
			return false
		}
	}
	return last >= 0
}

// RecoveryGrid runs the given cells (RecoveryCases for the whole
// table) in order, renders the case table to opts.Out, and returns the
// rows. A cell whose premise fails — the kill did not land, a chaos
// class did not heal — stops the grid with an error; a cell whose
// verdict fails makes the grid return an error alongside every row.
func RecoveryGrid(opts Options, cases []RecoveryCase) ([]RecoveryRow, error) {
	opts = opts.WithDefaults()
	fx, err := recoveryFixture(opts)
	if err != nil {
		return nil, err
	}
	var rows []RecoveryRow
	var failed []string
	for _, c := range cases {
		row, err := fx.run(c, c.seed(opts.Seed))
		if err != nil {
			return rows, fmt.Errorf("harness: %s: %w", c.ID(), err)
		}
		rows = append(rows, row)
		if !row.ok() {
			failed = append(failed, row.ID)
		}
	}

	tw := tabwriter.NewWriter(opts.out(), 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Recovery grid (scale=%s, %d hosts, ckpt every %d rounds, kill rank %d, heal budget %v / storm %v)\n",
		opts.Scale, gridHosts, gridCkptEvery, gridVictim, chaosHealBudget, chaosStormBudget)
	fmt.Fprintln(tw, "P\tCell\tHosts\tFault@\tResume@\tInjected\tHeals\tDups\tEscalated\tRecovered\tVerdict")
	for _, r := range rows {
		verdict := fmt.Sprintf("identical=%v", r.Identical)
		if r.Second != "" {
			verdict = strings.Join(r.RankErrors, ",")
		}
		fmt.Fprintf(tw, "%d\t%s\t%d→%d\t%d\t%d\t%d\t%d\t%d\t%v\t%v\t%s\n", r.Priority, r.ID, r.OldHosts, r.NewHosts,
			r.FaultRound, r.ResumedFrom, r.Injections, r.Heals, r.Dups, r.Escalated, r.Recovered, verdict)
	}
	if err := tw.Flush(); err != nil {
		return rows, err
	}
	if len(failed) > 0 {
		return rows, fmt.Errorf("harness: %d recovery cells failed their verdict: %v", len(failed), failed)
	}
	return rows, nil
}

// fixture is what every cell of one Options shares: the materialised
// workloads and the fault-free reference hashes.
type fixture struct {
	workloads map[string]*faultWorkload
	refs      map[string]string
}

var (
	fixtureMu sync.Mutex
	fixtures  = map[Options]*fixture{}
	// referencesTrained counts fault-free reference runs: one per
	// (Options, workload, mode) in a process.
	referencesTrained atomic.Int64
)

// recoveryFixture returns the memoised fixture of opts.
func recoveryFixture(opts Options) (*fixture, error) {
	opts.Out = nil
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if fx := fixtures[opts]; fx != nil {
		return fx, nil
	}
	workloads, err := faultWorkloads(opts)
	if err != nil {
		return nil, err
	}
	fx := &fixture{workloads: workloads, refs: map[string]string{}}
	fixtures[opts] = fx
	return fx, nil
}

// reference returns the hash of the uninterrupted 3-host run of
// (workload, mode), trained once over the sim transport: transport
// byte-identity is pinned separately (TestSyncBitIdentityTCP), so one
// reference serves every transport.
func (fx *fixture) reference(w *faultWorkload, mode gluon.Mode) (string, error) {
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	key := w.name + "/" + mode.String()
	if h, ok := fx.refs[key]; ok {
		return h, nil
	}
	tr, err := gluon.NewInProcTransport(gridHosts)
	if err != nil {
		return "", err
	}
	defer tr.Close()
	results, err := clusterRunAll(w, w.cfg(mode), []gluon.Transport{tr, tr, tr}, func(int) core.RunOptions { return core.RunOptions{} })
	if err != nil {
		return "", fmt.Errorf("reference %s: %w", key, err)
	}
	referencesTrained.Add(1)
	fx.refs[key] = hashCanonical(results[0].Canonical)
	return fx.refs[key], nil
}

// faultWorkload carries one materialised workload's constructors.
type faultWorkload struct {
	name string
	cfg  func(mode gluon.Mode) core.Config
	run  func(cfg core.Config, rank int, tr gluon.Transport, opts core.RunOptions) (*core.DistributedResult, error)
}

// faultWorkloads materialises the text and graph datasets, keyed by
// workload name, each configured to the grid's cell shape.
func faultWorkloads(opts Options) (map[string]*faultWorkload, error) {
	text, err := LoadDataset("1-billion", opts)
	if err != nil {
		return nil, err
	}
	graph, err := LoadGraphDataset(opts)
	if err != nil {
		return nil, err
	}
	shape := func(cfg core.Config) core.Config {
		cfg.Epochs = gridEpochs
		cfg.SyncRounds = gridSyncRounds
		return cfg
	}
	return map[string]*faultWorkload{
		"text": {
			name: "text",
			cfg: func(mode gluon.Mode) core.Config {
				return shape(distConfig(opts, gridHosts, gridSyncRounds, "MC", mode, opts.BaseAlpha))
			},
			run: func(cfg core.Config, rank int, tr gluon.Transport, ro core.RunOptions) (*core.DistributedResult, error) {
				return core.RunDistributedOpts(cfg, rank, tr, text.Vocab, text.Neg, text.Corp, opts.Dim, ro)
			},
		},
		"graph": {
			name: "graph",
			cfg: func(mode gluon.Mode) core.Config {
				return shape(GraphTrainConfig(opts, gridHosts, mode))
			},
			run: func(cfg core.Config, rank int, tr gluon.Transport, ro core.RunOptions) (*core.DistributedResult, error) {
				return core.RunDistributedOpts(cfg, rank, tr, graph.Vocab, graph.Neg, graph.Walker, opts.Dim, ro)
			},
		},
	}, nil
}

// cellRun carries one cell through its phases.
type cellRun struct {
	c   RecoveryCase
	w   *faultWorkload
	dir string          // the cell's checkpoint directory; dir/ref holds the captured cut
	inj *chaos.Injector // nil without a chaos axis
	row RecoveryRow
}

// run executes one cell in a fresh temporary directory; seed drives
// its chaos schedule.
func (fx *fixture) run(c RecoveryCase, seed uint64) (RecoveryRow, error) {
	w, ok := fx.workloads[c.Workload]
	if !ok {
		return RecoveryRow{}, fmt.Errorf("unknown workload %q", c.Workload)
	}
	dir, err := os.MkdirTemp("", "gw2v-recovery-*")
	if err != nil {
		return RecoveryRow{}, err
	}
	defer os.RemoveAll(dir)
	x := &cellRun{c: c, w: w, dir: dir, row: RecoveryRow{
		ID: c.ID(), Priority: c.Priority, Workload: c.Workload, Mode: c.Mode.String(), Transport: c.Transport,
		Kill: label(c.Kill), Shape: label(c.Shape), Chaos: label(c.Chaos), Second: label(c.Second),
	}}
	if c.Chaos != nil {
		x.inj = chaos.New(c.Chaos.Plan(seed))
	}
	oldHosts, oldRank := gridHosts, []int{0, 1, 2}
	if c.Shape != nil {
		oldHosts, oldRank = c.Shape.ranks()
	}
	oldCfg, newCfg := w.cfg(c.Mode), w.cfg(c.Mode)
	oldCfg.Hosts, newCfg.Hosts = oldHosts, len(oldRank)
	x.row.OldHosts, x.row.NewHosts = oldCfg.Hosts, newCfg.Hosts

	results, err := x.disrupt(oldCfg)
	if err == nil && results == nil {
		results, err = x.relaunch(newCfg, oldRank)
	}
	if x.inj != nil {
		x.row.Injections = x.inj.Injections()
	}
	switch {
	case err != nil:
		return x.row, err
	case c.Second != nil:
		return x.row, nil
	case x.inj != nil && x.row.Injections == 0:
		return x.row, errors.New("the chaos plan injected nothing")
	case c.Chaos != nil && c.Chaos.forcesHeal() && x.row.Heals == 0:
		return x.row, fmt.Errorf("%d injections forced zero heals", x.row.Injections)
	}

	x.row.Recovered = true
	x.row.Hash = hashCanonical(results[0].Canonical)
	var ref string
	if c.Shape != nil && x.row.ResumedFrom > 0 {
		ref, err = x.referenceFromCut(newCfg)
	} else {
		ref, err = fx.reference(w, c.Mode)
	}
	x.row.Identical = x.row.Hash == ref
	return x.row, err
}

// disrupt runs the old cluster into its fault: it kills the victim (at
// the kill point, or at compute to begin a depart or replace), pauses
// at the grow cut, or runs the chaos plan. It returns the final results
// when the cluster healed in place, and nil when it must relaunch.
func (x *cellRun) disrupt(cfg core.Config) ([]*core.DistributedResult, error) {
	trs, closeAll, err := x.cluster(cfg.Hosts, true)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	every, stop := gridCkptEvery, uint32(0)
	var victim *faultTransport
	point := FaultAtCompute
	switch {
	case x.c.Kill != nil || x.c.Shape != nil && *x.c.Shape != ShapeGrow:
		if x.c.Kill != nil {
			point = *x.c.Kill
		}
		x.row.FaultRound = point.round()
		victim = &faultTransport{Transport: trs[gridVictim], trig: point.trigger()}
		trs[gridVictim] = victim
	case x.c.Shape != nil: // grow: train to the pause boundary and checkpoint exactly there
		every, stop = gridGrowCut, gridGrowCut
	}
	results, errs := clusterRun(x.w, cfg, trs, func(rank int) core.RunOptions {
		ro := core.RunOptions{Checkpoint: &core.CheckpointPolicy{Dir: x.dir, Every: every}, StopAfterRound: stop}
		if rank == gridVictim && victim != nil && point == FaultMidCheckpoint {
			ro.Sink = &tearingSink{store: checkpoint.NewStore(x.dir, rank), round: x.row.FaultRound, kill: victim.kill}
		}
		return ro
	})
	switch {
	case victim != nil:
		return nil, checkFailed(errs, gridVictim, nil)
	case x.c.Chaos != nil && *x.c.Chaos == ChaosStorm:
		x.row.Escalated = true
		return nil, checkFailed(errs, -1, gluon.ErrPeerLost)
	}
	for h, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d did not finish: %w", h, err)
		}
	}
	if stop == 0 {
		return results, nil
	}
	for h, r := range results {
		if !r.Engine.Paused {
			return nil, fmt.Errorf("rank %d did not pause at round %d", h, stop)
		}
	}
	return nil, nil
}

// relaunch continues at the new shape, every rank resuming as
// oldRank[rank] and mirroring the cut generation into dir/ref. A
// healing chaos class keeps injecting; a second failure arms its kill
// on the last rank, a non-root survivor.
func (x *cellRun) relaunch(cfg core.Config, oldRank []int) ([]*core.DistributedResult, error) {
	cut := uint32(gridCkptEvery)
	if x.c.Shape != nil && *x.c.Shape == ShapeReplace {
		// The replacement host's disk is wiped: the dead rank's files
		// are gone. Only the owner's master range is canonical in a
		// PullModel snapshot, so its range has no surviving source.
		for _, p := range []string{"rank0001.ckpt", "rank0001.ckpt.prev"} {
			if err := os.Remove(filepath.Join(x.dir, p)); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
		if x.c.Mode == gluon.PullModel {
			cut = 0
		}
	} else if x.c.Shape != nil && *x.c.Shape == ShapeGrow {
		cut = gridGrowCut
	}
	trs, closeAll, err := x.cluster(cfg.Hosts, x.c.Chaos != nil && *x.c.Chaos != ChaosStorm)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	if x.c.Second != nil {
		v := cfg.Hosts - 1
		trs[v] = &faultTransport{Transport: trs[v], trig: x.c.Second.trigger()}
	}
	results, errs := clusterRun(x.w, cfg, trs, func(rank int) core.RunOptions {
		return core.RunOptions{
			Checkpoint: &core.CheckpointPolicy{Dir: x.dir, Every: gridCkptEvery, Resume: true, OldRank: oldRank[rank]},
			Sink:       &captureSink{store: checkpoint.NewStore(x.dir, rank), ref: checkpoint.NewStore(filepath.Join(x.dir, "ref"), rank), round: cut},
		}
	})
	if x.c.Second != nil {
		for _, err := range errs {
			x.row.RankErrors = append(x.row.RankErrors, errClass(err))
		}
		return nil, nil
	}
	for h, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("relaunched rank %d: %w", h, err)
		}
	}
	x.row.ResumedFrom = results[0].ResumedFrom
	for h, r := range results {
		if x.c.Shape != nil && r.ResumedFrom != cut {
			return nil, fmt.Errorf("rank %d resumed from %d, want the cut round %d", h, r.ResumedFrom, cut)
		}
	}
	return results, nil
}

// referenceFromCut relaunches a cluster of the new shape straight from
// the captured cut checkpoints, over a clean network, and returns its
// final hash — the shape change's oracle: a membership change is
// correct exactly when continuing through it equals launching a
// brand-new cluster of the new shape from the checkpoint it wrote.
func (x *cellRun) referenceFromCut(cfg core.Config) (string, error) {
	trs, closeAll, err := x.cluster(cfg.Hosts, false)
	if err != nil {
		return "", err
	}
	defer closeAll()
	results, err := clusterRunAll(x.w, cfg, trs, func(rank int) core.RunOptions {
		return core.RunOptions{Checkpoint: &core.CheckpointPolicy{Dir: filepath.Join(x.dir, "ref"), Every: gridCkptEvery, Resume: true, OldRank: rank}}
	})
	if err != nil {
		return "", fmt.Errorf("reference %w", err)
	}
	for h, r := range results {
		if r.ResumedFrom != x.row.ResumedFrom {
			return "", fmt.Errorf("reference rank %d resumed from %d, want the cut round %d", h, r.ResumedFrom, x.row.ResumedFrom)
		}
	}
	return hashCanonical(results[0].Canonical), nil
}

// cluster builds the transports of one cluster attempt: in-process
// channels ("sim"), or loopback TCP with tight failure-detection
// deadlines, so survivors notice a kill in milliseconds, not the 10 s
// default budget. A chaos cell's TCP heals in place (PROTOCOL.md §12),
// through the injector when chaotic, and the storm gets a tiny budget
// so escalation is prompt. closeAll adds the session counters to the
// row.
func (x *cellRun) cluster(hosts int, chaotic bool) ([]gluon.Transport, func(), error) {
	out := make([]gluon.Transport, hosts)
	if x.c.Transport == "sim" {
		tr, err := gluon.NewInProcTransport(hosts)
		if err != nil {
			return nil, nil, err
		}
		for h := range out {
			out[h] = tr
		}
		return out, func() { tr.Close() }, nil
	}
	opts := gluon.TCPOptions{
		HeartbeatInterval: 20 * time.Millisecond,
		Session:           gluon.SessionOptions{HealBudget: 100 * time.Millisecond},
	}
	if x.c.Chaos != nil {
		opts.ReadTimeout, opts.WriteTimeout = 200*time.Millisecond, 2*time.Second
		opts.Session = gluon.SessionOptions{Heal: true, HealBudget: chaosHealBudget}
		if chaotic {
			opts.WrapConn = x.inj.Wrap
			if *x.c.Chaos == ChaosStorm {
				opts.Session.HealBudget = chaosStormBudget
			}
		}
	}
	trs, err := gluon.NewTCPClusterOpts(hosts, opts)
	if err != nil {
		return nil, nil, err
	}
	for h := range out {
		out[h] = trs[h]
	}
	return out, func() {
		for _, tr := range trs {
			st := tr.SessionStats()
			x.row.Heals += st.Heals
			x.row.Dups += st.Dups
			tr.Close()
		}
	}, nil
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

// clusterRunAll is clusterRun for an attempt every rank must finish:
// the lowest failing rank's error fails it.
func clusterRunAll(w *faultWorkload, cfg core.Config, trs []gluon.Transport, mkOpts func(rank int) core.RunOptions) ([]*core.DistributedResult, error) {
	results, errs := clusterRun(w, cfg, trs, mkOpts)
	for h, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", h, err)
		}
	}
	return results, nil
}

// checkFailed verifies a disrupted attempt's premise: every rank
// failed — a survivor means the fault did not land, or a rank finished
// regardless — the victim (when ≥ 0) of the injected kill rather than a
// peer's echo, and every other rank of want when want is non-nil.
func checkFailed(errs []error, victim int, want error) error {
	for h, err := range errs {
		switch {
		case err == nil:
			return fmt.Errorf("rank %d survived the injected fault", h)
		case h == victim && !errors.Is(err, errInjectedKill):
			return fmt.Errorf("victim died of %v, not the injected fault", err)
		case h != victim && want != nil && !errors.Is(err, want):
			return fmt.Errorf("rank %d died of %v, want %v", h, err, want)
		}
	}
	return nil
}

// errClass names a rank's error for a second failure's verdict.
func errClass(err error) string {
	switch {
	case err == nil:
		return "finished"
	case errors.Is(err, errInjectedKill):
		return "injected-kill"
	case errors.Is(err, gluon.ErrPeerLost):
		return "peer-lost"
	default:
		return err.Error()
	}
}

// faultTrigger arms one kill: the victim dies on the nth frame of the
// given kind whose round field (the tag of barrier and membership
// frames, the migrated old rank of transfer frames) equals round —
// instead of sending it (onSend) or instead of delivering it. A zero
// nth never fires; the torn-checkpoint cells kill from their sink.
type faultTrigger struct {
	onSend bool
	kind   byte
	round  uint32
	nth    int

	mu   sync.Mutex
	seen int
}

// fires reports whether the victim must die on this frame.
func (g *faultTrigger) fires(send bool, payload []byte) bool {
	kind, round := gluon.InspectFrame(payload)
	if send != g.onSend || kind != g.kind || round != g.round {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seen++
	return g.seen == g.nth
}

// errInjectedKill marks faults the grid injected itself, so cells can
// verify the faulted run died of the intended cause.
var errInjectedKill = errors.New("harness: injected kill")

// faultTransport wraps the victim rank's transport and simulates a
// process kill at the trigger point: the underlying transport is closed
// (dropping every connection, exactly what a SIGKILL does to sockets)
// and the current operation fails.
type faultTransport struct {
	gluon.Transport
	trig *faultTrigger
	dead atomic.Bool
}

func (f *faultTransport) kill() error {
	f.dead.Store(true)
	f.Transport.Close()
	return errInjectedKill
}

// killed attributes any failure after the kill to the kill itself: a
// killed process's in-flight operations die with it, so a concurrent
// send that trips over the just-closed sockets is not a second fault.
func (f *faultTransport) killed(err error) error {
	if err != nil && f.dead.Load() {
		return errInjectedKill
	}
	return err
}

func (f *faultTransport) Send(from, to int, payload []byte) error {
	if f.trig.fires(true, payload) {
		return f.kill()
	}
	return f.killed(f.Transport.Send(from, to, payload))
}

func (f *faultTransport) Recv(host int) (int, []byte, error) {
	from, payload, err := f.Transport.Recv(host)
	if err != nil {
		return from, payload, f.killed(err)
	}
	if f.trig.fires(false, payload) {
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

// captureSink checkpoints to the live store and mirrors the cut-round
// generation — the re-sharded snapshot a membership change writes —
// into a reference directory, so a verification cluster can later be
// launched directly from the membership change's own output.
type captureSink struct {
	store *checkpoint.Store
	ref   *checkpoint.Store
	round uint32
}

func (s *captureSink) Save(snap *checkpoint.Snapshot) error {
	if err := s.store.Save(snap); err != nil {
		return err
	}
	if snap.NextRound == s.round {
		return s.ref.Save(snap)
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
