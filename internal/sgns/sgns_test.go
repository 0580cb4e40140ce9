package sgns

import (
	"math"
	"strings"
	"testing"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/model"
	"graphword2vec/internal/synth"
	"graphword2vec/internal/vecmath"
	"graphword2vec/internal/vocab"
	"graphword2vec/internal/xrand"
)

// buildTiny constructs a trainer over the given space-separated corpus.
func buildTiny(t testing.TB, text string, dim int, p Params) (*Trainer, []int32) {
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
	m := model.New(v.Size(), dim)
	m.InitRandom(1)
	tr, err := NewTrainer(m, v, neg, p)
	if err != nil {
		t.Fatal(err)
	}
	var tokens []int32
	for _, w := range strings.Fields(text) {
		tokens = append(tokens, v.ID(w))
	}
	return tr, tokens
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{Window: 0, Negatives: 5}).Validate(); err == nil {
		t.Error("zero window accepted")
	}
	if err := (Params{Window: 5, Negatives: -1}).Validate(); err == nil {
		t.Error("negative negatives accepted")
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestNewTrainerSizeMismatch(t *testing.T) {
	b := vocab.NewBuilder()
	b.Add("a")
	v, err := b.Build(vocab.Options{MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := model.New(5, 4) // wrong size
	if _, err := NewTrainer(m, v, nil, DefaultParams()); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestTrainTokensDeterministic(t *testing.T) {
	text := strings.Repeat("a b c d e f g h ", 50)
	p := Params{Window: 2, Negatives: 3}
	tr1, tok1 := buildTiny(t, text, 8, p)
	tr2, tok2 := buildTiny(t, text, 8, p)
	var s1, s2 Stats
	tr1.TrainTokens(tok1, 0.05, xrand.New(7), nil, &s1, nil)
	tr2.TrainTokens(tok2, 0.05, xrand.New(7), nil, &s2, nil)
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range tr1.Model.Emb.Data {
		if tr1.Model.Emb.Data[i] != tr2.Model.Emb.Data[i] {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestTrainTokensTouchedTracking(t *testing.T) {
	text := strings.Repeat("a b ", 100) + strings.Repeat("zzz ", 3)
	p := Params{Window: 2, Negatives: 2}
	tr, tokens := buildTiny(t, text, 4, p)
	touched := bitset.New(tr.Vocab.Size())
	var st Stats
	// Train only on the "a b" prefix.
	tr.TrainTokens(tokens[:200], 0.05, xrand.New(3), touched, &st, nil)
	if !touched.Get(int(tr.Vocab.ID("a"))) || !touched.Get(int(tr.Vocab.ID("b"))) {
		t.Error("trained words not marked touched")
	}
	// zzz can only be touched via negative sampling; it may or may not
	// be, but every touched node must have nonzero count in vocab.
	if touched.Count() > tr.Vocab.Size() {
		t.Error("touched more nodes than exist")
	}
	if st.TokensSeen != 200 || st.TokensKept != 200 {
		t.Errorf("stats: seen=%d kept=%d, want 200/200 (no subsampling)", st.TokensSeen, st.TokensKept)
	}
	if st.Pairs == 0 {
		t.Error("no pairs trained")
	}
}

func TestTouchedIsConservative(t *testing.T) {
	// Every model row that changed must be marked touched (the sparse
	// sync depends on this invariant; the converse may not hold).
	text := strings.Repeat("a b c d ", 30)
	p := Params{Window: 2, Negatives: 2}
	tr, tokens := buildTiny(t, text, 4, p)
	before := tr.Model.Clone()
	touched := bitset.New(tr.Vocab.Size())
	var st Stats
	tr.TrainTokens(tokens, 0.05, xrand.New(5), touched, &st, nil)
	for id := 0; id < tr.Vocab.Size(); id++ {
		changed := false
		for d := 0; d < tr.Model.Dim; d++ {
			if tr.Model.EmbRow(int32(id))[d] != before.EmbRow(int32(id))[d] ||
				tr.Model.CtxRow(int32(id))[d] != before.CtxRow(int32(id))[d] {
				changed = true
				break
			}
		}
		if changed && !touched.Get(id) {
			t.Fatalf("node %d changed but not marked touched", id)
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Two interleaved word pairs that always co-occur: loss must drop.
	text := strings.Repeat("cat dog ", 200) + strings.Repeat("sun moon ", 200)
	p := Params{Window: 1, Negatives: 5, TrackLoss: true}
	tr, tokens := buildTiny(t, text, 16, p)
	r := xrand.New(11)
	var first, last Stats
	tr.TrainTokens(tokens, 0.1, r, nil, &first, nil)
	for i := 0; i < 8; i++ {
		var st Stats
		tr.TrainTokens(tokens, 0.1, r, nil, &st, nil)
		last = st
	}
	if last.MeanLoss() >= first.MeanLoss() {
		t.Errorf("loss did not decrease: first %.4f, last %.4f", first.MeanLoss(), last.MeanLoss())
	}
}

func TestTrainingLearnsCooccurrence(t *testing.T) {
	// cat and dog occur in identical context slots ("pet _ runs"); sun and
	// moon in different slots ("sky _ glows"). Paradigmatically similar
	// words must end up with similar embeddings.
	text := strings.Repeat("pet cat runs pet dog runs sky sun glows sky moon glows ", 200)
	p := Params{Window: 1, Negatives: 5}
	tr, tokens := buildTiny(t, text, 16, p)
	r := xrand.New(2)
	for i := 0; i < 10; i++ {
		var st Stats
		tr.TrainTokens(tokens, 0.1, r, nil, &st, nil)
	}
	v := tr.Vocab
	m := tr.Model
	// Syntagmatic: co-occurring pair scores higher than non-co-occurring.
	pos := vecmath.Dot(m.EmbRow(v.ID("cat")), m.CtxRow(v.ID("pet")))
	neg := vecmath.Dot(m.EmbRow(v.ID("cat")), m.CtxRow(v.ID("sky")))
	if pos <= neg {
		t.Errorf("cat·pet (%v) should exceed cat·sky (%v)", pos, neg)
	}
	// Paradigmatic: shared-slot words drift together.
	simPair := vecmath.CosineSim(m.EmbRow(v.ID("cat")), m.EmbRow(v.ID("dog")))
	simCross := vecmath.CosineSim(m.EmbRow(v.ID("cat")), m.EmbRow(v.ID("sun")))
	if simPair <= simCross {
		t.Errorf("within-pair sim %v should exceed cross sim %v", simPair, simCross)
	}
}

// TestGradientNumericCheck verifies that one trainPair step moves the
// parameters along the negative analytic gradient of the SGNS loss, by
// comparing against a numerically differentiated loss on a 1-negative
// configuration.
func TestGradientNumericCheck(t *testing.T) {
	text := "w c n n n" // center w, context c, negatives drawn from vocab
	p := Params{Window: 1, Negatives: 1}
	tr, _ := buildTiny(t, text, 6, p)
	v := tr.Vocab
	m := tr.Model
	// Force known values.
	rng := xrand.New(4)
	for i := range m.Emb.Data {
		m.Emb.Data[i] = float32(rng.NormFloat64()) * 0.3
		m.Ctx.Data[i] = float32(rng.NormFloat64()) * 0.3
	}
	ctxID, centerID := v.ID("c"), v.ID("w")
	embBefore := append([]float32(nil), m.EmbRow(ctxID)...)
	ctxBefore := append([]float32(nil), m.CtxRow(centerID)...)

	// Positive-pair-only check: temporarily use 0 negatives.
	tr.Params.Negatives = 0
	sc := tr.NewScratch()
	var st Stats
	const alpha = 1e-3
	tr.trainPair(ctxID, centerID, alpha, xrand.New(1), nil, &st, sc, nil)

	// Analytic: ∂L/∂emb = -(1-σ(f))·ctx ; update is emb += α(1-σ(f))·ctx.
	f := vecmath.Dot(embBefore, ctxBefore)
	g := (1 - vecmath.SigmoidExact(float64(f))) * alpha
	for d := 0; d < m.Dim; d++ {
		wantEmb := embBefore[d] + float32(g)*ctxBefore[d]
		if math.Abs(float64(m.EmbRow(ctxID)[d]-wantEmb)) > 2e-2*alpha+1e-6 {
			t.Fatalf("emb[%d] = %v, want %v", d, m.EmbRow(ctxID)[d], wantEmb)
		}
		wantCtx := ctxBefore[d] + float32(g)*embBefore[d]
		if math.Abs(float64(m.CtxRow(centerID)[d]-wantCtx)) > 2e-2*alpha+1e-6 {
			t.Fatalf("ctx[%d] = %v, want %v", d, m.CtxRow(centerID)[d], wantCtx)
		}
	}

	// Numeric cross-check on the loss derivative w.r.t. f:
	// dL/df = σ(f) - 1 for label 1.
	const h = 1e-6
	num := (pairLoss(float64(f)+h, 1) - pairLoss(float64(f)-h, 1)) / (2 * h)
	ana := vecmath.SigmoidExact(float64(f)) - 1
	if math.Abs(num-ana) > 1e-4 {
		t.Errorf("loss derivative: numeric %v, analytic %v", num, ana)
	}
}

func TestPairLossSaturation(t *testing.T) {
	if l := pairLoss(10, 1); l > 0.01 {
		t.Errorf("confident correct positive should have ~0 loss, got %v", l)
	}
	if l := pairLoss(-10, 1); l < 5 {
		t.Errorf("confident wrong positive should have large loss, got %v", l)
	}
	if l := pairLoss(-10, 0); l > 0.01 {
		t.Errorf("confident correct negative should have ~0 loss, got %v", l)
	}
}

func TestHogwildRunsAndCallsOnEpoch(t *testing.T) {
	if raceEnabled {
		t.Skip("Hogwild threads race by design")
	}
	text := strings.Repeat("a b c d e f ", 100)
	p := Params{Window: 2, Negatives: 3}
	tr, tokens := buildTiny(t, text, 8, p)
	var epochs []int
	st := tr.TrainHogwild(tokens, HogwildConfig{
		Threads: 2,
		Epochs:  3,
		Alpha:   0.05,
		Seed:    9,
		OnEpoch: func(e int, _ Stats) { epochs = append(epochs, e) },
	})
	if len(epochs) != 3 || epochs[2] != 2 {
		t.Errorf("OnEpoch calls = %v", epochs)
	}
	if st.TokensSeen != int64(len(tokens)*3) {
		t.Errorf("TokensSeen = %d, want %d", st.TokensSeen, len(tokens)*3)
	}
	if st.Pairs == 0 {
		t.Error("no pairs trained")
	}
}

func TestHogwildSingleThreadDeterministic(t *testing.T) {
	text := strings.Repeat("p q r s ", 50)
	p := Params{Window: 2, Negatives: 2}
	tr1, tok := buildTiny(t, text, 4, p)
	tr2, _ := buildTiny(t, text, 4, p)
	cfg := HogwildConfig{Threads: 1, Epochs: 2, Alpha: 0.05, Seed: 13}
	tr1.TrainHogwild(tok, cfg)
	tr2.TrainHogwild(tok, cfg)
	for i := range tr1.Model.Emb.Data {
		if tr1.Model.Emb.Data[i] != tr2.Model.Emb.Data[i] {
			t.Fatal("single-thread Hogwild not deterministic")
		}
	}
}

func TestBatchedRuns(t *testing.T) {
	if raceEnabled {
		t.Skip("Hogwild threads race by design")
	}
	text := strings.Repeat("a b c d ", 200)
	p := Params{Window: 2, Negatives: 3}
	tr, tokens := buildTiny(t, text, 8, p)
	called := 0
	st := tr.TrainBatched(tokens, BatchedConfig{
		JobWords: 64,
		Threads:  2,
		Epochs:   2,
		Alpha:    0.05,
		Seed:     4,
		OnEpoch:  func(int, Stats) { called++ },
	})
	if called != 2 {
		t.Errorf("OnEpoch called %d times, want 2", called)
	}
	if st.TokensSeen != int64(len(tokens)*2) {
		t.Errorf("TokensSeen = %d", st.TokensSeen)
	}
}

func TestStatsAddAndMeanLoss(t *testing.T) {
	a := Stats{TokensSeen: 1, TokensKept: 2, Pairs: 3, LossSum: 4, LossEdges: 2}
	b := Stats{TokensSeen: 10, TokensKept: 20, Pairs: 30, LossSum: 6, LossEdges: 3}
	a.Add(b)
	if a.TokensSeen != 11 || a.Pairs != 33 || a.LossEdges != 5 {
		t.Errorf("Add result: %+v", a)
	}
	if got := a.MeanLoss(); math.Abs(got-2) > 1e-12 {
		t.Errorf("MeanLoss = %v, want 2", got)
	}
	var empty Stats
	if empty.MeanLoss() != 0 {
		t.Error("empty MeanLoss should be 0")
	}
}

func TestSubsamplingReducesKept(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		sb.WriteString("the ")
	}
	sb.WriteString("rare")
	b, err := vocab.CountFromTokens(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Build(vocab.Options{MinCount: 1, Sample: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := vocab.NewUnigramTable(v)
	if err != nil {
		t.Fatal(err)
	}
	m := model.New(v.Size(), 4)
	m.InitRandom(1)
	tr, err := NewTrainer(m, v, neg, Params{Window: 2, Negatives: 1})
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]int32, 5000)
	for i := range tokens {
		tokens[i] = v.ID("the")
	}
	var st Stats
	tr.TrainTokens(tokens, 0.05, xrand.New(1), nil, &st, nil)
	if st.TokensKept >= st.TokensSeen/2 {
		t.Errorf("subsampling kept %d of %d; expected heavy discard", st.TokensKept, st.TokensSeen)
	}
}

// TestTrainTokensZeroAllocs pins the zero-allocation contract of the
// steady-state hot path: with a reused Scratch, TrainTokens allocates
// nothing per call.
func TestTrainTokensZeroAllocs(t *testing.T) {
	text := strings.Repeat("a b c d e f g h ", 100)
	tr, tokens := buildTiny(t, text, 32, Params{Window: 5, Negatives: 5})
	sc := tr.NewScratch()
	touched := bitset.New(tr.Vocab.Size())
	r := xrand.New(1)
	var st Stats
	allocs := testing.AllocsPerRun(10, func() {
		tr.TrainTokens(tokens, 0.025, r, touched, &st, sc)
	})
	if allocs != 0 {
		t.Errorf("TrainTokens with scratch: %v allocs/op, want 0", allocs)
	}
}

// TestInspectTokensZeroAllocs pins the PullModel inspect pass to the
// same contract: the replay shares the caller's Scratch buffers, so a
// reused Scratch makes InspectTokens allocation-free.
func TestInspectTokensZeroAllocs(t *testing.T) {
	text := strings.Repeat("a b c d e f g h ", 100)
	tr, tokens := buildTiny(t, text, 32, Params{Window: 5, Negatives: 5})
	sc := tr.NewScratch()
	access := bitset.New(tr.Vocab.Size())
	r := xrand.New(1)
	allocs := testing.AllocsPerRun(10, func() {
		tr.InspectTokens(tokens, r, access, sc)
	})
	if allocs != 0 {
		t.Errorf("InspectTokens with scratch: %v allocs/op, want 0", allocs)
	}
}

// benchTrainTokens runs the training benchmark once per kernel set so
// SIMD and portable numbers land side by side.
func benchTrainTokens(b *testing.B, dim int) {
	text := strings.Repeat("a b c d e f g h i j k l m n o p ", 500)
	tr, tokens := buildTiny(b, text, dim, Params{Window: 5, Negatives: 15})
	r := xrand.New(1)
	sc := tr.NewScratch()
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var st Stats
			tr.TrainTokens(tokens, 0.025, r, nil, &st, sc)
		}
	}
	wasOn := vecmath.SIMDEnabled()
	defer vecmath.SetSIMD(wasOn)
	if vecmath.SIMDAvailable() {
		vecmath.SetSIMD(true)
		b.Run(vecmath.KernelName(), run)
	}
	vecmath.SetSIMD(false)
	b.Run("generic", run)
}

// BenchmarkTrainTokens is the repo's headline compute benchmark: the
// per-token cost of the full SGNS operator (subsampling, dynamic window,
// negative sampling, gradient updates) at dim 128. Perf PRs record its
// before/after in EXPERIMENTS.md.
func BenchmarkTrainTokens(b *testing.B) { benchTrainTokens(b, 128) }

func BenchmarkTrainTokensDim100(b *testing.B) { benchTrainTokens(b, 100) }

// BenchmarkTrainTokensText trains at the shape of the perfbench text-w2v
// workload: the synthetic 1-billion corpus at ScaleSmall, its 1216-word
// vocabulary (min count 5, subsampling 5e-3), dim 48 and 15 negatives.
// BenchmarkTrainTokens' 16-word vocabulary makes the negatives collide
// with the center all the time, which this shape does not. One op is a
// 40 000-token chunk of the corpus; Mpairs/s is the headline figure.
func BenchmarkTrainTokensText(b *testing.B) {
	cfg, err := synth.Preset("1-billion", synth.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	data, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	vb := vocab.NewBuilder()
	for _, tok := range data.Tokens {
		vb.Add(data.Names[tok])
	}
	v, err := vb.Build(vocab.Options{MinCount: 5, Sample: 5e-3})
	if err != nil {
		b.Fatal(err)
	}
	neg, err := vocab.NewUnigramTable(v)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 40000
	tokens := make([]int32, 0, chunk)
	for _, tok := range data.Tokens {
		if len(tokens) == chunk {
			break
		}
		if id := v.ID(data.Names[tok]); id >= 0 {
			tokens = append(tokens, id)
		}
	}
	m := model.New(v.Size(), 48)
	m.InitRandom(1)
	tr, err := NewTrainer(m, v, neg, Params{Window: 5, Negatives: 15, MaxSentenceLength: 10000})
	if err != nil {
		b.Fatal(err)
	}
	sc := tr.NewScratch()
	r := xrand.New(1)
	run := func(b *testing.B) {
		b.ReportAllocs()
		var st Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.TrainTokens(tokens, 0.025, r, nil, &st, sc)
		}
		b.ReportMetric(float64(st.Pairs)/1e6/b.Elapsed().Seconds(), "Mpairs/s")
	}
	wasOn := vecmath.SIMDEnabled()
	defer vecmath.SetSIMD(wasOn)
	if vecmath.SIMDAvailable() {
		vecmath.SetSIMD(true)
		b.Run(vecmath.KernelName(), run)
	}
	vecmath.SetSIMD(false)
	b.Run("generic", run)
}
