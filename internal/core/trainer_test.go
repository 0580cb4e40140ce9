package core

import (
	"strings"
	"testing"

	"graphword2vec/internal/corpus"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/sgns"
	"graphword2vec/internal/vocab"
)

// testData builds a small vocabulary+corpus from repeated structured text.
func testData(t testing.TB, text string) (*vocab.Vocabulary, *vocab.UnigramTable, *corpus.Corpus) {
	t.Helper()
	b, err := vocab.CountFromTokens(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Build(vocab.Options{MinCount: 1, Sample: 0})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := vocab.NewUnigramTable(v)
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Load(strings.NewReader(text), v)
	if err != nil {
		t.Fatal(err)
	}
	return v, neg, c
}

func smallConfig(hosts int) Config {
	cfg := DefaultConfig(hosts)
	cfg.Epochs = 2
	cfg.SyncRounds = 3
	cfg.Params = sgns.Params{Window: 2, Negatives: 3}
	cfg.Alpha = 0.05
	cfg.Seed = 7
	return cfg
}

const testText = "pet cat runs pet dog runs sky sun glows sky moon glows " +
	"pet cat naps pet dog naps sky sun sets sky moon sets "

func repeatedText(n int) string { return strings.Repeat(testText, n) }

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Hosts = 0 },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.SyncRounds = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.MinAlphaFactor = 2 },
		func(c *Config) { c.ThreadsPerHost = 0 },
		func(c *Config) { c.CombinerName = "nope" },
		func(c *Config) { c.Mode = gluon.Mode(99) },
		func(c *Config) { c.Params.Window = 0 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig(4)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSyncFrequencyRule(t *testing.T) {
	want := map[int]int{1: 1, 2: 3, 4: 6, 8: 12, 16: 24, 32: 48, 64: 96}
	for hosts, s := range want {
		if got := SyncFrequencyRule(hosts); got != s {
			t.Errorf("SyncFrequencyRule(%d) = %d, want %d (paper Fig 8 axis)", hosts, got, s)
		}
	}
}

func TestNewTrainerValidation(t *testing.T) {
	v, neg, c := testData(t, repeatedText(4))
	if _, err := NewTrainer(smallConfig(2), nil, neg, c, 8); err == nil {
		t.Error("nil vocabulary accepted")
	}
	if _, err := NewTrainer(smallConfig(2), v, neg, c, 0); err == nil {
		t.Error("zero dim accepted")
	}
	empty := corpus.FromIDs(nil)
	if _, err := NewTrainer(smallConfig(2), v, neg, empty, 8); err == nil {
		t.Error("empty corpus accepted")
	}
	tiny := corpus.FromIDs([]int32{0})
	if _, err := NewTrainer(smallConfig(4), v, neg, tiny, 8); err == nil {
		t.Error("corpus smaller than host count accepted")
	}
	bad := smallConfig(2)
	bad.Epochs = 0
	if _, err := NewTrainer(bad, v, neg, c, 8); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunSingleHostBasics(t *testing.T) {
	v, neg, c := testData(t, repeatedText(8))
	cfg := smallConfig(1)
	tr, err := NewTrainer(cfg, v, neg, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Canonical == nil || res.Canonical.VocabSize() != v.Size() {
		t.Fatal("missing or mis-sized canonical model")
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Fatalf("epochs = %d, want %d", len(res.Epochs), cfg.Epochs)
	}
	if res.Comm.TotalBytes() != 0 {
		t.Errorf("single host communicated %d bytes", res.Comm.TotalBytes())
	}
	if res.Train.TokensSeen != int64(c.Len()*cfg.Epochs) {
		t.Errorf("TokensSeen = %d, want %d", res.Train.TokensSeen, c.Len()*cfg.Epochs)
	}
	if res.CriticalComputeSeconds <= 0 {
		t.Error("no compute time recorded")
	}
}

func TestRunDeterministic(t *testing.T) {
	v, neg, c := testData(t, repeatedText(8))
	run := func(sequential bool) *Result {
		cfg := smallConfig(4)
		tr, err := NewTrainer(cfg, v, neg, c, 8)
		if err != nil {
			t.Fatal(err)
		}
		tr.SequentialCompute = sequential
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(true), run(false)
	for i := range a.Canonical.Emb.Data {
		if a.Canonical.Emb.Data[i] != b.Canonical.Emb.Data[i] {
			t.Fatalf("sequential and concurrent compute diverge at %d", i)
		}
	}
	c2 := run(true)
	for i := range a.Canonical.Emb.Data {
		if a.Canonical.Emb.Data[i] != c2.Canonical.Emb.Data[i] {
			t.Fatal("two identical runs diverge")
		}
	}
}

// The communication mode must not change the computed model — only the
// traffic. This is the end-to-end version of the gluon-level invariant.
func TestRunModesProduceIdenticalModels(t *testing.T) {
	v, neg, c := testData(t, repeatedText(8))
	run := func(mode gluon.Mode) *Result {
		cfg := smallConfig(3)
		cfg.Mode = mode
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
	naive := run(gluon.RepModelNaive)
	opt := run(gluon.RepModelOpt)
	pull := run(gluon.PullModel)
	for i := range naive.Canonical.Emb.Data {
		if naive.Canonical.Emb.Data[i] != opt.Canonical.Emb.Data[i] {
			t.Fatalf("naive and opt models differ at %d", i)
		}
		if naive.Canonical.Emb.Data[i] != pull.Canonical.Emb.Data[i] {
			t.Fatalf("naive and pull models differ at %d", i)
		}
	}
	// On this tiny dense vocabulary volumes may tie, but sparse schemes
	// can never exceed the dense one.
	if opt.Comm.TotalBytes() > naive.Comm.TotalBytes() {
		t.Errorf("opt volume %d > naive %d", opt.Comm.TotalBytes(), naive.Comm.TotalBytes())
	}
	if pull.Comm.ControlBytes == 0 {
		t.Error("pull mode recorded no inspection traffic")
	}
}

// With a large vocabulary and small round chunks, the sparse schemes must
// communicate far less than the dense one (the Figure 9 effect).
func TestRunSparseVolumeOrdering(t *testing.T) {
	// 1500 distinct words, each appearing a few times: any single round
	// touches only a small fraction of the vocabulary.
	var sb strings.Builder
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 3000; i++ {
			sb.WriteString("w")
			sb.WriteByte(byte('a' + i%26))
			sb.WriteByte(byte('a' + (i/26)%26))
			sb.WriteByte(byte('a' + i/676))
			sb.WriteString(" ")
		}
	}
	v, neg, c := testData(t, sb.String())
	run := func(mode gluon.Mode) gluon.Stats {
		cfg := smallConfig(3)
		cfg.Epochs = 1
		cfg.SyncRounds = 12
		cfg.Params = sgns.Params{Window: 2, Negatives: 1}
		cfg.Mode = mode
		tr, err := NewTrainer(cfg, v, neg, c, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Comm
	}
	// Compare the uncompressed v1 volume (Stats.RawBytes): the frame
	// encoding compresses the dense scheme's untouched entries to two
	// mask bits each, which would blur the scheme comparison under test.
	rawVolume := func(s gluon.Stats) int64 {
		reduce, bcast := s.RawBytes(3, 8)
		return reduce + bcast + s.ControlBytes
	}
	naive := run(gluon.RepModelNaive)
	opt := run(gluon.RepModelOpt)
	pull := run(gluon.PullModel)
	if rawVolume(opt)*2 > rawVolume(naive) {
		t.Errorf("opt volume %d not well below naive %d", rawVolume(opt), rawVolume(naive))
	}
	if rawVolume(pull) >= rawVolume(naive) {
		t.Errorf("pull volume %d !< naive %d", rawVolume(pull), rawVolume(naive))
	}
	// Reduce-side volume is identical for opt and pull (both ship only
	// touched nodes); they differ on broadcast/control.
	if opt.ReduceEntries != pull.ReduceEntries {
		t.Errorf("opt reduce entries %d != pull %d", opt.ReduceEntries, pull.ReduceEntries)
	}
}

func TestRunCombinersDiffer(t *testing.T) {
	v, neg, c := testData(t, repeatedText(8))
	run := func(comb string) *Result {
		cfg := smallConfig(4)
		cfg.CombinerName = comb
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
	mc, avg := run("MC"), run("AVG")
	same := true
	for i := range mc.Canonical.Emb.Data {
		if mc.Canonical.Emb.Data[i] != avg.Canonical.Emb.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("MC and AVG produced identical models on overlapping updates")
	}
}

func TestRunOnEpochCallback(t *testing.T) {
	v, neg, c := testData(t, repeatedText(6))
	cfg := smallConfig(2)
	var epochs []int
	var alphas []float32
	cfg.OnEpoch = func(e int, mv ModelView, er EpochResult) {
		epochs = append(epochs, e)
		alphas = append(alphas, er.Alpha)
		if mv.Model == nil || mv.Model.VocabSize() != v.Size() {
			t.Error("bad canonical snapshot in callback")
		}
		if er.Epoch != e || er.Train.Pairs == 0 {
			t.Errorf("epoch %d result = epoch %d, %d pairs", e, er.Epoch, er.Train.Pairs)
		}
	}
	tr, err := NewTrainer(cfg, v, neg, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != cfg.Epochs || epochs[0] != 0 {
		t.Fatalf("OnEpoch calls = %v", epochs)
	}
	if len(alphas) >= 2 && alphas[1] >= alphas[0] {
		t.Errorf("alpha did not decay: %v", alphas)
	}
}

func TestRunThreadsPerHost(t *testing.T) {
	if raceEnabled {
		t.Skip("Hogwild threads race by design")
	}
	v, neg, c := testData(t, repeatedText(8))
	cfg := smallConfig(2)
	cfg.ThreadsPerHost = 4
	tr, err := NewTrainer(cfg, v, neg, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Train.Pairs == 0 {
		t.Error("multithreaded run trained nothing")
	}
}

func TestRunShuffleChangesOrderNotCount(t *testing.T) {
	v, neg, c := testData(t, repeatedText(8))
	counts := func(shuffle bool) int64 {
		cfg := smallConfig(2)
		cfg.ShuffleEachEpoch = shuffle
		tr, err := NewTrainer(cfg, v, neg, c, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Train.TokensSeen
	}
	if counts(true) != counts(false) {
		t.Error("shuffling changed the number of tokens trained")
	}
}

func TestSimulatedSeconds(t *testing.T) {
	res := &Result{Hosts: 2, CriticalComputeSeconds: 16}
	res.Comm.ReduceBytes = 7e9 // per host: 2·7e9/2 = 7e9 B = 1 s at default bw
	cm := gluon.DefaultCostModel()
	got := res.SimulatedSeconds(cm, 16, 1)
	if got < 1.9 || got > 2.1 {
		t.Errorf("SimulatedSeconds = %v, want ~2 (1s compute + 1s comm)", got)
	}
	// Degenerate arguments clamp instead of exploding.
	if v := res.SimulatedSeconds(cm, 0, -1); v <= 0 {
		t.Errorf("clamped SimulatedSeconds = %v", v)
	}
	if res.CommSeconds(cm) < 0.9 || res.CommSeconds(cm) > 1.1 {
		t.Errorf("CommSeconds = %v, want ~1", res.CommSeconds(cm))
	}
}

func TestAlphaForEpochDecay(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Alpha = 0.1
	cfg.Epochs = 10
	prev := float32(1)
	for e := 0; e < 10; e++ {
		a := cfg.alphaForEpoch(e)
		if a <= 0 || a > cfg.Alpha {
			t.Fatalf("epoch %d alpha %v out of range", e, a)
		}
		if a > prev {
			t.Fatalf("alpha increased at epoch %d", e)
		}
		prev = a
	}
	// Floor holds even past the end.
	cfg.MinAlphaFactor = 0.5
	if a := cfg.alphaForEpoch(9); a < cfg.Alpha*0.5 {
		t.Errorf("alpha %v fell below floor", a)
	}
}
