package harness

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"graphword2vec/internal/checkpoint"
	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
)

// TestMain lets the test binary re-exec itself as a distributed worker:
// TestMultiProcessMatchesSimulation spawns copies of this binary with
// GW2V_WORKER_RANK set, giving a true multi-OS-process cluster without
// needing the go toolchain at test time.
func TestMain(m *testing.M) {
	if os.Getenv("GW2V_WORKER_RANK") != "" {
		if err := runWorkerProcess(); err != nil {
			fmt.Fprintf(os.Stderr, "worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// distTestOpts are the dataset options shared by the parent test and
// the re-exec'd worker processes; both must derive the identical
// dataset, so keep this deterministic and in one place.
func distTestOpts() Options {
	o := tinyOpts()
	o.Epochs = 2
	return o
}

// distTestConfig is the training configuration for the byte-identity
// tests: 4 hosts, deterministic, paper-default combiner.
func distTestConfig(opts Options, mode gluon.Mode) core.Config {
	cfg := distConfig(opts, 4, core.SyncFrequencyRule(4), "MC", mode, opts.BaseAlpha)
	cfg.Epochs = opts.Epochs
	return cfg
}

// simulatedCanonical trains the in-process simulated cluster and
// returns the canonical model.
func simulatedCanonical(t *testing.T, d *Dataset, opts Options, cfg core.Config) *model.Model {
	t.Helper()
	tr, err := core.NewTrainer(cfg, d.Vocab, d.Neg, d.Corp, opts.Dim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Canonical
}

// assertModelsIdentical compares every float bit-for-bit.
func assertModelsIdentical(t *testing.T, label string, want, got *model.Model) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil model", label)
	}
	if want.VocabSize() != got.VocabSize() || want.Dim != got.Dim {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", label, want.VocabSize(), want.Dim, got.VocabSize(), got.Dim)
	}
	for i := range want.Emb.Data {
		if want.Emb.Data[i] != got.Emb.Data[i] {
			t.Fatalf("%s: embedding layer diverges at %d: %v vs %v", label, i, want.Emb.Data[i], got.Emb.Data[i])
		}
	}
	for i := range want.Ctx.Data {
		if want.Ctx.Data[i] != got.Ctx.Data[i] {
			t.Fatalf("%s: training layer diverges at %d: %v vs %v", label, i, want.Ctx.Data[i], got.Ctx.Data[i])
		}
	}
}

// TestEnginesOverTCPMatchSimulation is the tentpole's keystone: four
// free-running single-host engines over localhost TCP sockets must
// produce an embedding byte-identical to the lockstep in-process
// simulation at the same seeds, in every synchronisation mode.
func TestEnginesOverTCPMatchSimulation(t *testing.T) {
	opts := distTestOpts()
	d, err := LoadDataset("1-billion", opts)
	if err != nil {
		t.Fatal(err)
	}
	modes := []gluon.Mode{gluon.RepModelOpt, gluon.PullModel, gluon.RepModelNaive}
	if raceEnabled {
		// The engine/transport concurrency under test is identical in
		// every mode; one suffices for the (much slower) race lane.
		modes = modes[:1]
	}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := distTestConfig(opts, mode)
			want := simulatedCanonical(t, d, opts, cfg)

			trs, err := gluon.NewTCPCluster(cfg.Hosts)
			if err != nil {
				t.Fatal(err)
			}
			results := make([]*core.DistributedResult, cfg.Hosts)
			errs := make([]error, cfg.Hosts)
			var wg sync.WaitGroup
			for h := 0; h < cfg.Hosts; h++ {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					// Closing on exit lets an errored host's peers fail
					// via connection loss instead of blocking forever.
					defer trs[h].Close()
					results[h], errs[h] = core.RunDistributed(cfg, h, trs[h], d.Vocab, d.Neg, d.Corp, opts.Dim, nil)
				}(h)
			}
			wg.Wait()
			for h, err := range errs {
				if err != nil {
					t.Fatalf("host %d: %v", h, err)
				}
			}
			for h := 1; h < cfg.Hosts; h++ {
				if results[h].Canonical != nil {
					t.Errorf("host %d returned a canonical model; only rank 0 gathers", h)
				}
			}
			assertModelsIdentical(t, mode.String(), want, results[0].Canonical)
			if results[0].Engine.Train.Pairs == 0 {
				t.Error("rank 0 trained no pairs")
			}
		})
	}
}

// TestEnginesOverTCPMatchSimulationFP16: the lossy fp16 codec is
// excluded from bit-identity against lossless runs, but it must still
// be deterministic — the simulated cluster and a real TCP mesh quantize
// identically, so their models stay byte-identical to each other.
func TestEnginesOverTCPMatchSimulationFP16(t *testing.T) {
	opts := distTestOpts()
	d, err := LoadDataset("1-billion", opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := distTestConfig(opts, gluon.RepModelOpt)
	cfg.Wire = gluon.CodecFP16
	want := simulatedCanonical(t, d, opts, cfg)

	// And it must actually be lossy-different from the packed run: if it
	// matched bit-for-bit the quantizer would not be engaged at all.
	lossless := distTestConfig(opts, gluon.RepModelOpt)
	wantLossless := simulatedCanonical(t, d, opts, lossless)
	same := true
	for i := range want.Emb.Data {
		if want.Emb.Data[i] != wantLossless.Emb.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("fp16 model is bit-identical to the lossless run; quantizer not engaged")
	}

	trs, err := gluon.NewTCPCluster(cfg.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*core.DistributedResult, cfg.Hosts)
	errs := make([]error, cfg.Hosts)
	var wg sync.WaitGroup
	for h := 0; h < cfg.Hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			defer trs[h].Close()
			results[h], errs[h] = core.RunDistributed(cfg, h, trs[h], d.Vocab, d.Neg, d.Corp, opts.Dim, nil)
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
	assertModelsIdentical(t, "fp16", want, results[0].Canonical)
}

// workerEnv are the variables the re-exec'd worker reads.
const (
	envWorkerRank   = "GW2V_WORKER_RANK"
	envWorkerPeers  = "GW2V_WORKER_PEERS"
	envWorkerOut    = "GW2V_WORKER_OUT"
	envWorkerMode   = "GW2V_WORKER_MODE"
	envWorkerCkpt   = "GW2V_WORKER_CKPT_DIR"
	envWorkerResume = "GW2V_WORKER_RESUME"
)

// runWorkerProcess is the body of one re-exec'd worker: regenerate the
// deterministic dataset, join the TCP mesh, train, and (on rank 0)
// write the gathered canonical model. With GW2V_WORKER_CKPT_DIR set the
// worker checkpoints every 2 rounds and runs with tight peer-failure
// deadlines; GW2V_WORKER_RESUME=1 additionally asks to resume from the
// newest cluster-wide snapshot.
func runWorkerProcess() error {
	rank, err := strconv.Atoi(os.Getenv(envWorkerRank))
	if err != nil {
		return fmt.Errorf("bad %s: %w", envWorkerRank, err)
	}
	peers := strings.Split(os.Getenv(envWorkerPeers), ",")
	mode, err := gluon.ParseMode(os.Getenv(envWorkerMode))
	if err != nil {
		return err
	}
	opts := distTestOpts()
	d, err := LoadDataset("1-billion", opts)
	if err != nil {
		return err
	}
	cfg := distTestConfig(opts, mode)
	mesh := gluon.MeshConfig{
		Rank:     rank,
		Peers:    peers,
		Checksum: cfg.Checksum(d.Vocab.Size(), d.Corp.Len(), opts.Dim),
		Timeout:  20 * time.Second,
	}
	ckptDir := os.Getenv(envWorkerCkpt)
	if ckptDir != "" {
		// A SIGKILLed peer drops its connections; survivors must fail
		// fast (and visibly) instead of hanging the test.
		mesh.TCP = gluon.TCPOptions{
			HeartbeatInterval: 50 * time.Millisecond,
			Session:           gluon.SessionOptions{HealBudget: 500 * time.Millisecond},
		}
	}
	tr, err := gluon.DialMesh(mesh)
	if err != nil {
		return err
	}
	defer tr.Close()
	ro := core.RunOptions{}
	if ckptDir != "" {
		ro.Checkpoint = &core.CheckpointPolicy{Dir: ckptDir, Every: 2, Resume: os.Getenv(envWorkerResume) == "1", OldRank: rank}
	}
	res, err := core.RunDistributedOpts(cfg, rank, tr, d.Vocab, d.Neg, d.Corp, opts.Dim, ro)
	if err != nil {
		return err
	}
	// The parent parses this line to verify the cluster really resumed.
	fmt.Printf("resumed-from=%d\n", res.ResumedFrom)
	if res.Canonical != nil {
		return res.Canonical.SaveFile(os.Getenv(envWorkerOut))
	}
	return nil
}

// TestMultiProcessMatchesSimulation launches four real OS processes
// (re-execs of this test binary) that bootstrap a TCP mesh over
// loopback, train, and gather onto rank 0 — whose written model must be
// byte-identical to the in-process simulation.
func TestMultiProcessMatchesSimulation(t *testing.T) {
	opts := distTestOpts()
	d, err := LoadDataset("1-billion", opts)
	if err != nil {
		t.Fatal(err)
	}
	mode := gluon.RepModelOpt
	cfg := distTestConfig(opts, mode)
	want := simulatedCanonical(t, d, opts, cfg)

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, cfg.Hosts)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	outPath := filepath.Join(t.TempDir(), "canonical.bin")

	cmds := make([]*exec.Cmd, cfg.Hosts)
	outputs := make([]strings.Builder, cfg.Hosts)
	for r := 0; r < cfg.Hosts; r++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			envWorkerRank+"="+strconv.Itoa(r),
			envWorkerPeers+"="+strings.Join(addrs, ","),
			envWorkerOut+"="+outPath,
			envWorkerMode+"="+mode.String(),
		)
		cmd.Stdout = &outputs[r]
		cmd.Stderr = &outputs[r]
		if err := cmd.Start(); err != nil {
			t.Fatalf("start rank %d: %v", r, err)
		}
		cmds[r] = cmd
	}
	deadline := time.After(90 * time.Second)
	waitErrs := make(chan error, cfg.Hosts)
	for _, cmd := range cmds {
		go func(cmd *exec.Cmd) { waitErrs <- cmd.Wait() }(cmd)
	}
	for i := 0; i < cfg.Hosts; i++ {
		select {
		case err := <-waitErrs:
			if err != nil {
				for r := range cmds {
					t.Logf("rank %d output:\n%s", r, outputs[r].String())
				}
				t.Fatalf("worker exited with %v", err)
			}
		case <-deadline:
			for _, cmd := range cmds {
				cmd.Process.Kill()
			}
			for r := range cmds {
				t.Logf("rank %d output:\n%s", r, outputs[r].String())
			}
			t.Fatal("workers did not finish within 90s")
		}
	}

	got, err := model.LoadFile(outPath)
	if err != nil {
		t.Fatalf("rank 0 wrote no model: %v", err)
	}
	assertModelsIdentical(t, "multi-process", want, got)
}

// freshLoopbackAddrs reserves one loopback port per rank.
func freshLoopbackAddrs(t *testing.T, hosts int) []string {
	t.Helper()
	addrs := make([]string, hosts)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// spawnWorkers re-execs one worker process per rank with the given
// extra environment.
func spawnWorkers(t *testing.T, hosts int, addrs []string, outPath, mode string, extra []string) ([]*exec.Cmd, []*strings.Builder) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]*exec.Cmd, hosts)
	outputs := make([]*strings.Builder, hosts)
	for r := 0; r < hosts; r++ {
		outputs[r] = &strings.Builder{}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			envWorkerRank+"="+strconv.Itoa(r),
			envWorkerPeers+"="+strings.Join(addrs, ","),
			envWorkerOut+"="+outPath,
			envWorkerMode+"="+mode,
		)
		cmd.Env = append(cmd.Env, extra...)
		cmd.Stdout = outputs[r]
		cmd.Stderr = outputs[r]
		if err := cmd.Start(); err != nil {
			t.Fatalf("start rank %d: %v", r, err)
		}
		cmds[r] = cmd
	}
	return cmds, outputs
}

// waitWorkers waits for every worker with a shared deadline and returns
// the per-rank exit errors.
func waitWorkers(t *testing.T, cmds []*exec.Cmd, outputs []*strings.Builder, timeout time.Duration) []error {
	t.Helper()
	type exit struct {
		rank int
		err  error
	}
	ch := make(chan exit, len(cmds))
	for r, cmd := range cmds {
		go func(r int, cmd *exec.Cmd) { ch <- exit{r, cmd.Wait()} }(r, cmd)
	}
	errs := make([]error, len(cmds))
	deadline := time.After(timeout)
	for range cmds {
		select {
		case e := <-ch:
			errs[e.rank] = e.err
		case <-deadline:
			for _, cmd := range cmds {
				cmd.Process.Kill()
			}
			for r := range cmds {
				t.Logf("rank %d output:\n%s", r, outputs[r].String())
			}
			t.Fatalf("workers did not finish within %v", timeout)
		}
	}
	return errs
}

// resumedFromLine extracts the worker's reported resume round.
func resumedFromLine(out string) (uint32, bool) {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "resumed-from="); ok {
			n, err := strconv.ParseUint(rest, 10, 32)
			if err == nil {
				return uint32(n), true
			}
		}
	}
	return 0, false
}

// TestMeshRedialAfterPeerRestart is the elastic-recovery e2e: a real
// 4-process TCP cluster checkpoints as it trains, rank 1 is SIGKILLed
// mid-run, the survivors detect the loss and exit, and a relaunch of
// all four processes with resume enabled re-forms the mesh, negotiates
// the newest cluster-wide checkpoint, and finishes with a model
// byte-identical to an uninterrupted simulated run.
func TestMeshRedialAfterPeerRestart(t *testing.T) {
	opts := distTestOpts()
	d, err := LoadDataset("1-billion", opts)
	if err != nil {
		t.Fatal(err)
	}
	mode := gluon.RepModelOpt
	cfg := distTestConfig(opts, mode)
	want := simulatedCanonical(t, d, opts, cfg)

	ckptDir := t.TempDir()
	outPath := filepath.Join(t.TempDir(), "canonical.bin")
	const victim = 1

	// Interrupted attempt: kill the victim once its first checkpoint
	// generation is on disk (round 2 of 12 — the bulk of the run is
	// still ahead, so no rank can have finished).
	cmds, outputs := spawnWorkers(t, cfg.Hosts, freshLoopbackAddrs(t, cfg.Hosts), outPath, mode.String(),
		[]string{envWorkerCkpt + "=" + ckptDir})
	victimCkpt := checkpoint.NewStore(ckptDir, victim).Path()
	killDeadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(victimCkpt); err == nil {
			break
		}
		if time.Now().After(killDeadline) {
			for _, cmd := range cmds {
				cmd.Process.Kill()
			}
			t.Fatalf("rank %d never wrote a checkpoint", victim)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	for r, err := range waitWorkers(t, cmds, outputs, 60*time.Second) {
		if err == nil {
			t.Fatalf("rank %d exited cleanly despite the killed peer:\n%s", r, outputs[r].String())
		}
	}
	if _, err := os.Stat(outPath); err == nil {
		t.Fatal("interrupted run wrote a canonical model")
	}

	// Recovery attempt: relaunch every rank with resume enabled on
	// fresh ports. The cluster must agree on a checkpointed round and
	// reproduce the uninterrupted model bit for bit.
	cmds, outputs = spawnWorkers(t, cfg.Hosts, freshLoopbackAddrs(t, cfg.Hosts), outPath, mode.String(),
		[]string{envWorkerCkpt + "=" + ckptDir, envWorkerResume + "=1"})
	for r, err := range waitWorkers(t, cmds, outputs, 90*time.Second) {
		if err != nil {
			for i := range cmds {
				t.Logf("rank %d output:\n%s", i, outputs[i].String())
			}
			t.Fatalf("resume rank %d exited with %v", r, err)
		}
	}
	for r := range cmds {
		round, ok := resumedFromLine(outputs[r].String())
		if !ok {
			t.Fatalf("rank %d reported no resume round:\n%s", r, outputs[r].String())
		}
		if round == 0 {
			t.Errorf("rank %d resumed from round 0, want a checkpointed round", r)
		}
	}
	got, err := model.LoadFile(outPath)
	if err != nil {
		t.Fatalf("resumed rank 0 wrote no model: %v", err)
	}
	assertModelsIdentical(t, "redial-resume", want, got)
}
