package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphword2vec/internal/corpus"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/vocab"
)

// TestRunOverlapBitIdentical is the tentpole invariant at the core
// level: SyncOverlap may change only WHEN work happens, never what is
// computed. For every communication mode the overlapped simulated run
// must produce a model byte-identical to the serialized one.
func TestRunOverlapBitIdentical(t *testing.T) {
	v, neg, c := testData(t, repeatedText(8))
	checkOverlapIdentical(t, smallConfig(3), v, neg, c)
}

// TestRunOverlapPast64Hosts: overlap has no host cap — on 65 hosts,
// where the installed-host set spans two words, overlapped and
// serialized runs still train the same bits in every mode.
func TestRunOverlapPast64Hosts(t *testing.T) {
	var text strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&text, "w%d ", (i*i+3*i)%150)
	}
	v, neg, c := testData(t, text.String())
	checkOverlapIdentical(t, smallConfig(65), v, neg, c)
}

// checkOverlapIdentical runs cfg with SyncOverlap off and on in each
// mode, demanding byte-identical models and a hidden sync window only
// when overlap is on.
func checkOverlapIdentical(t *testing.T, cfg Config, v *vocab.Vocabulary, neg *vocab.UnigramTable, c *corpus.Corpus) {
	run := func(mode gluon.Mode, overlap bool) *Result {
		cfg.Mode = mode
		cfg.SyncOverlap = overlap
		tr, err := NewTrainer(cfg, v, neg, c, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, mode := range []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel} {
		t.Run(mode.String(), func(t *testing.T) {
			serial := run(mode, false)
			over := run(mode, true)
			for i := range serial.Canonical.Emb.Data {
				if serial.Canonical.Emb.Data[i] != over.Canonical.Emb.Data[i] {
					t.Fatalf("overlap changed emb[%d]", i)
				}
			}
			for i := range serial.Canonical.Ctx.Data {
				if serial.Canonical.Ctx.Data[i] != over.Canonical.Ctx.Data[i] {
					t.Fatalf("overlap changed ctx[%d]", i)
				}
			}
			var hidden float64
			for _, s := range over.OverlapSeconds {
				hidden += s
			}
			if hidden <= 0 {
				t.Error("overlapped run hid no sync time")
			}
			for _, s := range serial.OverlapSeconds {
				if s != 0 {
					t.Error("serialized run reported overlap seconds")
				}
			}
		})
	}
}

// TestRunOverlapMultiThreadHosts exercises the per-thread gates: gated
// compute with ThreadsPerHost > 1 must complete and stay deterministic
// against itself (multi-thread runs are not bit-comparable to
// single-thread ones, so the reference is a serialized run at the same
// thread count... which is also nondeterministic under Hogwild, so this
// is a liveness/consistency check only: same shapes, sane stats).
func TestRunOverlapMultiThreadHosts(t *testing.T) {
	v, neg, c := testData(t, repeatedText(8))
	cfg := smallConfig(2)
	cfg.ThreadsPerHost = 2
	cfg.SyncOverlap = true
	tr, err := NewTrainer(cfg, v, neg, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Train.TokensSeen != int64(c.Len()*cfg.Epochs) {
		t.Errorf("TokensSeen = %d, want %d", res.Train.TokensSeen, c.Len()*cfg.Epochs)
	}
}

// TestEngineResultOverlapAccounting checks the timer split: an
// overlapped run's critical sync time plus its hidden window should be
// commensurate with the serialized run's sync time (we can't compare
// wall times exactly — scheduling noise — but the split must be
// internally consistent: both parts non-negative, hidden part > 0).
func TestEngineResultOverlapAccounting(t *testing.T) {
	v, neg, c := testData(t, repeatedText(8))
	cfg := smallConfig(2)
	cfg.SyncOverlap = true
	tr, err := NewTrainer(cfg, v, neg, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < cfg.Hosts; h++ {
		if res.SyncSeconds[h] < 0 || res.OverlapSeconds[h] < 0 {
			t.Fatalf("host %d negative timer: sync=%v overlap=%v", h, res.SyncSeconds[h], res.OverlapSeconds[h])
		}
	}
	if res.CriticalSyncSeconds <= 0 {
		t.Error("no critical sync time recorded")
	}
}

// errInjectedSend is the fault failingSendTransport injects.
var errInjectedSend = errors.New("injected send failure")

// failingSendTransport fails every Send after the first `after`.
type failingSendTransport struct {
	gluon.Transport
	after int64
	sent  atomic.Int64
}

func (f *failingSendTransport) Send(from, to int, payload []byte) error {
	if f.sent.Add(1) > f.after {
		return errInjectedSend
	}
	return f.Transport.Send(from, to, payload)
}

// TestTrainerFailingHostCannotHang: when one host's transport starts
// failing mid-run, its peers are left waiting on frames that never come
// — in a serialized sync, or behind a gate while the failed host waits
// for its sequential compute turn. Trainer.Run must release them and
// return the failed host's error, not hang or report an echo.
func TestTrainerFailingHostCannotHang(t *testing.T) {
	v, neg, c := testData(t, repeatedText(8))
	for _, mode := range []gluon.Mode{gluon.RepModelOpt, gluon.PullModel} {
		for _, overlap := range []bool{false, true} {
			cfg := smallConfig(3)
			cfg.Mode = mode
			cfg.SyncOverlap = overlap
			tr, err := NewTrainer(cfg, v, neg, c, 8)
			if err != nil {
				t.Fatal(err)
			}
			tr.SequentialCompute = true
			tr.TransportFactory = func(hosts int) ([]gluon.Transport, func(), error) {
				in, err := gluon.NewInProcTransport(hosts)
				if err != nil {
					return nil, nil, err
				}
				// Host 1 fails a few rounds in (4–6 sends per round).
				trs := []gluon.Transport{in, &failingSendTransport{Transport: in, after: 10}, in}
				return trs, func() { in.Close() }, nil
			}
			done := make(chan error, 1)
			go func() {
				_, err := tr.Run()
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, errInjectedSend) {
					t.Errorf("%v overlap=%v: Run = %v, want the injected send failure", mode, overlap, err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("%v overlap=%v: Trainer.Run hung after host 1 failed", mode, overlap)
			}
		}
	}
}
