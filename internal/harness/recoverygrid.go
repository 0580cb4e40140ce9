package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
)

// The three recovery grids — fault (kills, faultgrid.go), membership
// (shape changes, membershipgrid.go) and chaos (transient network
// faults, chaosgrid.go) — share this driver, one kill wrapper and the
// cluster plumbing below. Each grid keeps its own case table, row type
// and table columns. Every cell that resumes does so through the one
// recovery path, core's membership negotiation (PROTOCOL.md §10), whose
// unchanged-cluster case is a plain restore of every rank's own
// snapshot.

// gridCase is what the driver needs from a grid's cell.
type gridCase interface {
	ID() string
	// axes names the cell's workload and sync mode, which select its
	// dataset and its uninterrupted reference run.
	axes() (workload string, mode gluon.Mode)
}

// gridCell is what the driver hands a grid's cell runner.
type gridCell struct {
	w *faultWorkload
	// dir is a fresh temporary directory, removed after the cell.
	dir string
	// seed is per cell: opts.Seed*1000 + the cell's index.
	seed uint64
	// ref returns the memoised hash of the uninterrupted 3-host run
	// for the cell's (workload, mode).
	ref func() (string, error)
}

// gridSpec describes one recovery grid to runGrid.
type gridSpec[C gridCase, R any] struct {
	// name labels errors and temporary directories ("fault-grid").
	name string
	// title and detail head the rendered table:
	// "<title> (scale=<scale>, <detail>)".
	title, detail string
	// header is the tab-separated column row; line renders one row.
	header string
	line   func(R) string
	// run executes one cell; ok is its verdict. fail completes "cells
	// did not ..." in the error a failing grid returns.
	run  func(cell gridCell, c C) (R, error)
	ok   func(R) bool
	fail string
}

// runGrid executes the given cells in order, renders the case table to
// opts.Out, and returns the rows. A cell that errors stops the grid; a
// cell whose verdict fails makes the grid return an error alongside
// every row.
func runGrid[C gridCase, R any](opts Options, cases []C, g gridSpec[C, R]) ([]R, error) {
	opts = opts.WithDefaults()
	workloads, err := faultWorkloads(opts)
	if err != nil {
		return nil, err
	}
	reference := gridReference(g.name)

	var rows []R
	var failed []string
	for i, c := range cases {
		name, mode := c.axes()
		w, ok := workloads[name]
		if !ok {
			return rows, fmt.Errorf("harness: unknown %s workload %q", g.name, name)
		}
		dir, err := os.MkdirTemp("", "gw2v-"+g.name+"-*")
		if err != nil {
			return rows, err
		}
		row, err := g.run(gridCell{
			w: w, dir: dir, seed: opts.Seed*1000 + uint64(i),
			ref: func() (string, error) { return reference(w, mode) },
		}, c)
		os.RemoveAll(dir)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
		if !g.ok(row) {
			failed = append(failed, c.ID())
		}
	}

	tw := tabwriter.NewWriter(opts.out(), 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s (scale=%s, %s)\n", g.title, opts.Scale, g.detail)
	fmt.Fprintln(tw, g.header)
	for _, r := range rows {
		fmt.Fprintln(tw, g.line(r))
	}
	if err := tw.Flush(); err != nil {
		return rows, err
	}
	if len(failed) > 0 {
		return rows, fmt.Errorf("harness: %d %s cells did not %s: %v", len(failed), g.name, g.fail, failed)
	}
	return rows, nil
}

// faultWorkload carries one materialised workload's constructors.
type faultWorkload struct {
	name string
	cfg  func(mode gluon.Mode) core.Config
	run  func(cfg core.Config, rank int, tr gluon.Transport, opts core.RunOptions) (*core.DistributedResult, error)
}

// faultWorkloads materialises the text and graph datasets once, keyed
// by workload name.
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
		cfg.Epochs = faultGridEpochs
		cfg.SyncRounds = faultGridSyncRounds
		return cfg
	}
	return map[string]*faultWorkload{
		"text": {
			name: "text",
			cfg: func(mode gluon.Mode) core.Config {
				return shape(distConfig(opts, faultGridHosts, faultGridSyncRounds, "MC", mode, opts.BaseAlpha))
			},
			run: func(cfg core.Config, rank int, tr gluon.Transport, ro core.RunOptions) (*core.DistributedResult, error) {
				return core.RunDistributedOpts(cfg, rank, tr, text.Vocab, text.Neg, text.Corp, opts.Dim, ro)
			},
		},
		"graph": {
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

// gridTransports builds the per-rank transports for one cluster
// attempt of the given size: "sim" (in-process channels) or "tcp"
// (loopback sockets with tight failure-detection deadlines, so
// survivors notice a kill in milliseconds, not the 10 s default budget).
func gridTransports(kind string, hosts int) ([]gluon.Transport, func(), error) {
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
		_, out, closeAll, err := tcpCluster(hosts, gluon.TCPOptions{
			HeartbeatInterval: 20 * time.Millisecond,
			Session:           gluon.SessionOptions{HealBudget: 100 * time.Millisecond},
		})
		return out, closeAll, err
	default:
		return nil, nil, fmt.Errorf("harness: unknown grid transport %q", kind)
	}
}

// tcpCluster builds a loopback TCP cluster, returning both the concrete
// transports (for their counters) and the interface slice clusterRun
// takes.
func tcpCluster(hosts int, opts gluon.TCPOptions) ([]*gluon.TCPTransport, []gluon.Transport, func(), error) {
	trs, err := gluon.NewTCPClusterOpts(hosts, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	out := make([]gluon.Transport, hosts)
	for h := range out {
		out[h] = trs[h]
	}
	return trs, out, func() {
		for _, tr := range trs {
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

// resumeOpts is the policy of a relaunched, unchanged cluster: every
// rank resumes from dir under its own identity.
func resumeOpts(dir string) func(rank int) core.RunOptions {
	return func(rank int) core.RunOptions {
		return core.RunOptions{Checkpoint: &core.CheckpointPolicy{Dir: dir, Every: faultGridCkptEvery, Resume: true, OldRank: rank}}
	}
}

// gridReference returns a memoised lookup of the uninterrupted
// reference model hash per (workload, mode) on a 3-host cluster,
// computed on demand over the sim transport — transport byte-identity
// is pinned separately (TestSyncBitIdentityTCP), so one reference
// serves every transport. grid names the caller in errors.
func gridReference(grid string) func(w *faultWorkload, mode gluon.Mode) (string, error) {
	refs := map[string]string{}
	return func(w *faultWorkload, mode gluon.Mode) (string, error) {
		key := w.name + "/" + mode.String()
		if h, ok := refs[key]; ok {
			return h, nil
		}
		trs, closeAll, err := gridTransports("sim", faultGridHosts)
		if err != nil {
			return "", err
		}
		defer closeAll()
		results, err := clusterRunAll(w, w.cfg(mode), trs, func(int) core.RunOptions { return core.RunOptions{} })
		if err != nil {
			return "", fmt.Errorf("harness: %s reference %s: %w", grid, key, err)
		}
		h := hashCanonical(results[0].Canonical)
		refs[key] = h
		return h, nil
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

// errInjectedKill marks faults the grids injected themselves, so cells
// can verify the faulted run died of the intended cause.
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

// faultGridVictim is the rank every kill run kills: a non-root rank, so
// the negotiation's coordinator survives.
const faultGridVictim = 1

// killRun runs one checkpointing cluster attempt with the victim's
// transport armed by trig, and checks that the kill landed. sink, when
// non-nil, builds the victim's checkpoint sink from the kill function.
func killRun(w *faultWorkload, cfg core.Config, transport, dir string, trig *faultTrigger, sink func(kill func() error) core.CheckpointSink) error {
	trs, closeAll, err := gridTransports(transport, cfg.Hosts)
	if err != nil {
		return err
	}
	defer closeAll()
	ft := &faultTransport{Transport: trs[faultGridVictim], trig: trig}
	trs[faultGridVictim] = ft
	_, errs := clusterRun(w, cfg, trs, func(rank int) core.RunOptions {
		ro := core.RunOptions{Checkpoint: &core.CheckpointPolicy{Dir: dir, Every: faultGridCkptEvery}}
		if rank == faultGridVictim && sink != nil {
			ro.Sink = sink(ft.kill)
		}
		return ro
	})
	return checkKilled(errs, faultGridVictim)
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
