package cliutil

// Shared flag surfaces. Before these helpers, each training command
// declared its own -combiner/-mode/-wire trio and gw2v-train/gw2v-bench
// their own -cpuprofile/-memprofile pair, with hand-copied help text that had already started to drift. Every tool
// now registers the canonical definition, so flag names, defaults and
// documentation stay identical across the whole CLI by construction.

import (
	"flag"
	"fmt"
	"os"
	"time"

	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
	"graphword2vec/internal/vocab"
)

// CommFlags holds the distributed-training communication flags after
// parsing. Resolve validates them into their typed forms.
type CommFlags struct {
	// Combiner is the reduction name (validated by train.Config).
	Combiner string
	// Mode is the communication mode name.
	Mode string
	// Wire is the sync payload codec name.
	Wire string
}

// RegisterComm installs the canonical -combiner, -mode and -wire flags
// on fs. wireNote is inserted after "codec" in the -wire help — pass
// ", identical on every rank" for multi-process tools like gw2v-worker,
// "" otherwise.
func RegisterComm(fs *flag.FlagSet, wireNote string) *CommFlags {
	c := &CommFlags{}
	fs.StringVar(&c.Combiner, "combiner", "MC", "reduction: MC, AVG, SUM, MC-GS")
	fs.StringVar(&c.Mode, "mode", "RepModel-Opt", "communication: RepModel-Naive, RepModel-Opt, PullModel")
	fs.StringVar(&c.Wire, "wire", "packed",
		"sync payload codec"+wireNote+": packed (lossless, default), raw, fp16 (lossy reduce payloads); see PROTOCOL.md")
	return c
}

// Resolve parses the mode and wire names into their typed forms.
func (c *CommFlags) Resolve() (gluon.Mode, gluon.Codec, error) {
	mode, err := gluon.ParseMode(c.Mode)
	if err != nil {
		return 0, 0, err
	}
	wire, err := gluon.ParseCodec(c.Wire)
	if err != nil {
		return 0, 0, err
	}
	return mode, wire, nil
}

// PerfFlags holds the per-host performance knobs after parsing —
// settings that change only when work happens, never what is computed.
// Like the sync pipeline's worker count, which gluon picks from
// GOMAXPROCS, they are excluded from the cluster checksum, so ranks of
// one cluster may legitimately disagree.
type PerfFlags struct {
	// SyncOverlap double-buffers the BSP step (DESIGN.md §12).
	SyncOverlap bool
}

// RegisterPerf installs the canonical -sync-overlap flag on fs.
func RegisterPerf(fs *flag.FlagSet) *PerfFlags {
	p := &PerfFlags{}
	fs.BoolVar(&p.SyncOverlap, "sync-overlap", false,
		"double-buffer the BSP step: run each synchronisation round on a background goroutine while the next round's compute starts on rows the round has already finalised, blocking per node until finality; bit-identical to serialized rounds, so this per-host knob may differ between ranks (DESIGN.md §12)")
	return p
}

// HealFlags holds the session-healing knobs after parsing — the
// per-rank reaction to a broken TCP connection, consumed by gluon's
// session layer (PROTOCOL.md §12). Like PerfFlags they never change
// what is computed, only how the bytes survive the network, so they
// are excluded from the cluster checksum and may differ between ranks.
type HealFlags struct {
	// Heal redials a broken connection and replays unacknowledged
	// frames instead of escalating.
	Heal bool
	// Budget bounds how long a peer pair may stay broken (healing, or
	// without Heal waiting for a clean shutdown) before escalation.
	Budget time.Duration
}

// RegisterHeal installs the canonical -heal and -heal-budget flags on
// fs.
func RegisterHeal(fs *flag.FlagSet) *HealFlags {
	h := &HealFlags{}
	fs.BoolVar(&h.Heal, "heal", false,
		"redial broken connections: transient connection resets, partitions and slow links are healed in place by transparent reconnection and retransmission of unacknowledged frames instead of surfacing as peer loss; every TCP frame carries the session header either way, so this is a per-rank policy that ranks may disagree on, and healed runs are bit-identical to fault-free ones, so it is excluded from the cluster checksum (PROTOCOL.md §12)")
	fs.DurationVar(&h.Budget, "heal-budget", 10*time.Second,
		"how long one peer pair may stay broken before the peer is declared lost and the checkpoint/membership recovery ladder takes over (DESIGN.md §13): with -heal the redial budget, without it how long a dropped connection may linger before it counts as a dead peer rather than a clean shutdown; excluded from the cluster checksum")
	return h
}

// Options translates the parsed flags into gluon session options
// (gluon.TCPOptions.Session).
func (h *HealFlags) Options() gluon.SessionOptions {
	return gluon.SessionOptions{Heal: h.Heal, HealBudget: h.Budget}
}

// ProfileFlags holds the pprof output paths after parsing.
type ProfileFlags struct {
	CPU string
	Mem string
}

// RegisterProfiles installs the canonical -cpuprofile and -memprofile
// flags on fs.
func RegisterProfiles(fs *flag.FlagSet) *ProfileFlags {
	p := &ProfileFlags{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this path (pprof format)")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this path at exit")
	return p
}

// Start begins profiling per the parsed flags; see StartProfiles.
func (p *ProfileFlags) Start() (stop func() error, err error) {
	return StartProfiles(p.CPU, p.Mem)
}

// LoadModelWithVocab loads a saved model together with its .vocab
// sidecar and verifies row alignment — the read path shared by
// gw2v-eval and gw2v-serve.
func LoadModelWithVocab(path string) (*model.Model, *vocab.Vocabulary, error) {
	m, err := model.LoadFile(path)
	if err != nil {
		return nil, nil, err
	}
	vf, err := os.Open(path + ".vocab")
	if err != nil {
		return nil, nil, fmt.Errorf("opening vocabulary sidecar: %w", err)
	}
	voc, err := vocab.ReadCounts(vf, vocab.Options{MinCount: 1})
	vf.Close()
	if err != nil {
		return nil, nil, err
	}
	if voc.Size() != m.VocabSize() {
		return nil, nil, fmt.Errorf("vocabulary has %d words but model has %d rows", voc.Size(), m.VocabSize())
	}
	return m, voc, nil
}
