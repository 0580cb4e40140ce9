package sgns

import (
	"strings"
	"testing"

	"graphword2vec/internal/vecmath"
	"graphword2vec/internal/xrand"
)

// gemmTierCfg returns a BatchedConfig selecting the GEMM tier.
func gemmTierCfg(threads int) BatchedConfig {
	return BatchedConfig{
		JobWords:        64,
		Threads:         threads,
		Epochs:          2,
		Alpha:           0.05,
		Seed:            11,
		SharedNegWindow: 8,
	}
}

func TestTrainBatchedGemmRuns(t *testing.T) {
	text := strings.Repeat("a b c d ", 200)
	p := Params{Window: 2, Negatives: 3}
	tr, tokens := buildTiny(t, text, 8, p)
	called := 0
	cfg := gemmTierCfg(2)
	cfg.OnEpoch = func(int, Stats) { called++ }
	st := tr.TrainBatched(tokens, cfg)
	if called != 2 {
		t.Errorf("OnEpoch called %d times, want 2", called)
	}
	if st.TokensSeen != int64(len(tokens)*2) {
		t.Errorf("TokensSeen = %d, want %d", st.TokensSeen, len(tokens)*2)
	}
	if st.Pairs == 0 {
		t.Error("no pairs trained")
	}
}

// TestTrainBatchedGemmDeterministicAcrossThreads is the tier's core
// contract: the Threads knob must not be able to perturb the model.
// Scheduling is single-writer in job-index order and RNG is derived from
// (Seed, epoch, job), so any thread count yields byte-identical floats.
func TestTrainBatchedGemmDeterministicAcrossThreads(t *testing.T) {
	text := strings.Repeat("a b c d e f g h ", 80)
	p := Params{Window: 3, Negatives: 4}
	var ref []float32
	var refStats Stats
	for i, threads := range []int{1, 2, 7} {
		tr, tokens := buildTiny(t, text, 8, p)
		st := tr.TrainBatched(tokens, gemmTierCfg(threads))
		if i == 0 {
			ref = append(ref, tr.Model.Emb.Data...)
			ref = append(ref, tr.Model.Ctx.Data...)
			refStats = st
			continue
		}
		if st != refStats {
			t.Fatalf("Threads=%d stats diverged: %+v vs %+v", threads, st, refStats)
		}
		got := append(append([]float32{}, tr.Model.Emb.Data...), tr.Model.Ctx.Data...)
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("Threads=%d produced different model at %d", threads, j)
			}
		}
	}
}

// TestTrainBatchedGemmKernelIndependent pins that the tier is
// bit-identical with SIMD on and off — the Gemm kernels share the
// generic path's accumulation order, so the lossy schedule is the only
// deviation from pairwise, not the kernels.
func TestTrainBatchedGemmKernelIndependent(t *testing.T) {
	if !vecmath.SIMDAvailable() {
		t.Skip("no SIMD kernels on this arch")
	}
	text := strings.Repeat("p q r s t u ", 100)
	p := Params{Window: 2, Negatives: 5}
	wasOn := vecmath.SIMDEnabled()
	defer vecmath.SetSIMD(wasOn)

	vecmath.SetSIMD(true)
	tr1, tokens := buildTiny(t, text, 9, p) // odd dim exercises tails
	tr1.TrainBatched(tokens, gemmTierCfg(1))

	vecmath.SetSIMD(false)
	tr2, _ := buildTiny(t, text, 9, p)
	tr2.TrainBatched(tokens, gemmTierCfg(1))

	for i := range tr1.Model.Emb.Data {
		if tr1.Model.Emb.Data[i] != tr2.Model.Emb.Data[i] {
			t.Fatalf("SIMD vs generic diverged at emb[%d]", i)
		}
	}
	for i := range tr1.Model.Ctx.Data {
		if tr1.Model.Ctx.Data[i] != tr2.Model.Ctx.Data[i] {
			t.Fatalf("SIMD vs generic diverged at ctx[%d]", i)
		}
	}
}

// TestTrainBatchedGemmLearnsCooccurrence sanity-checks that the lossy
// schedule still learns: words that co-occur should score higher than
// words that never do.
func TestTrainBatchedGemmLearnsCooccurrence(t *testing.T) {
	text := strings.Repeat("aa bb aa bb ", 150) + strings.Repeat("xx yy xx yy ", 150)
	p := Params{Window: 1, Negatives: 5}
	tr, tokens := buildTiny(t, text, 16, p)
	cfg := gemmTierCfg(1)
	cfg.Epochs = 8
	tr.TrainBatched(tokens, cfg)
	score := func(a, b string) float32 {
		return vecmath.Dot(tr.Model.EmbRow(tr.Vocab.ID(a)), tr.Model.CtxRow(tr.Vocab.ID(b)))
	}
	if score("aa", "bb") <= score("aa", "yy") {
		t.Errorf("co-occurring pair scored %v, non-occurring %v", score("aa", "bb"), score("aa", "yy"))
	}
}

// TestFlushGroupZeroAllocs pins the tier's steady-state hot path: with a
// reused BatchScratch, a full group flush allocates nothing.
func TestFlushGroupZeroAllocs(t *testing.T) {
	text := strings.Repeat("a b c d e f g h ", 50)
	tr, _ := buildTiny(t, text, 32, Params{Window: 5, Negatives: 5})
	const p = 16
	sc := tr.NewBatchScratch(p)
	for i := 0; i < p; i++ {
		sc.ctxs = append(sc.ctxs, int32(i%tr.Vocab.Size()))
		sc.cents = append(sc.cents, int32((i+1)%tr.Vocab.Size()))
	}
	r := xrand.New(3)
	var st Stats
	allocs := testing.AllocsPerRun(10, func() {
		tr.flushGroup(0.025, r, &st, sc)
	})
	if allocs != 0 {
		t.Errorf("flushGroup with scratch: %v allocs/op, want 0", allocs)
	}
}

// benchCorpus builds a corpus over vocabSize distinct words so the
// model is realistically larger than cache — the batched tier's win is
// touching each shared negative's row once per GROUP instead of once
// per PAIR, which only shows once those rows are random pulls from a
// multi-megabyte model rather than L1 residents.
func benchCorpus(vocabSize, tokens int) string {
	var sb strings.Builder
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < tokens; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		sb.WriteString("w")
		sb.WriteString(itoa(int(state % uint64(vocabSize))))
		sb.WriteByte(' ')
	}
	return sb.String()
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkTrainBatchedGemm compares the batched-GEMM tier against the
// pairwise schedule on the same corpus, per kernel set. Vocab 20000 at
// dim 128 puts the two model matrices at ~20 MB, so negative-row
// traffic is cache-missing as in real training; the tier amortises it
// P ways.
func BenchmarkTrainBatchedGemm(b *testing.B) {
	text := benchCorpus(20000, 60000)
	run := func(b *testing.B, sharedNegWindow int) {
		tr, tokens := buildTiny(b, text, 128, Params{Window: 5, Negatives: 15})
		cfg := BatchedConfig{
			JobWords:        10000,
			Threads:         1,
			Epochs:          1,
			Alpha:           0.025,
			Seed:            1,
			SharedNegWindow: sharedNegWindow,
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(tokens)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.TrainBatched(tokens, cfg)
		}
	}
	wasOn := vecmath.SIMDEnabled()
	defer vecmath.SetSIMD(wasOn)
	if vecmath.SIMDAvailable() {
		vecmath.SetSIMD(true)
		b.Run(kernelName()+"/pairwise", func(b *testing.B) { run(b, 0) })
		b.Run(kernelName()+"/gemm16", func(b *testing.B) { run(b, 16) })
		b.Run(kernelName()+"/gemm64", func(b *testing.B) { run(b, 64) })
	}
	vecmath.SetSIMD(false)
	b.Run("generic/pairwise", func(b *testing.B) { run(b, 0) })
	b.Run("generic/gemm16", func(b *testing.B) { run(b, 16) })
}
