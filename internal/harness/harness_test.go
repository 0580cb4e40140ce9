package harness

import (
	"bytes"
	"strings"
	"testing"

	"graphword2vec/internal/synth"
)

// tinyOpts returns fast options for tests: tiny scale, reduced epochs.
func tinyOpts() Options {
	o := Defaults(synth.ScaleTiny)
	o.Epochs = 6
	o.Hosts = 8
	o.QuestionsPerCategory = 8
	return o.WithDefaults()
}

func TestLoadDataset(t *testing.T) {
	opts := tinyOpts()
	d, err := LoadDataset("1-billion", opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Vocab.Size() == 0 || d.Corp.Len() == 0 {
		t.Fatal("empty dataset")
	}
	if len(d.Questions) == 0 {
		t.Fatal("no questions")
	}
	// All structured words used in questions must be in vocabulary
	// (they are frequent by construction).
	missing := 0
	for _, q := range d.Questions {
		for _, wrd := range []string{q.A, q.B, q.C, q.D} {
			if d.Vocab.ID(wrd) < 0 {
				missing++
			}
		}
	}
	if missing > len(d.Questions)/10 {
		t.Errorf("%d question words missing from vocabulary", missing)
	}
	if _, err := LoadDataset("bogus", opts); err == nil {
		t.Error("bogus dataset accepted")
	}
}

// TestConvergenceCalibration is the harness's keystone: on the synthetic
// 1-billion stand-in, sequential SGNS training must push analogy accuracy
// far above chance, and accuracy must improve over epochs. (Chance is
// ~1/vocab ≈ 0.3%.)
func TestConvergenceCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	opts := tinyOpts()
	opts.Epochs = 8
	d, err := LoadDataset("1-billion", opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runW2V(d, opts, opts.BaseAlpha, true)
	if err != nil {
		t.Fatal(err)
	}
	for e, acc := range res.PerEpochAcc {
		t.Logf("epoch %d: sem %.1f syn %.1f tot %.1f", e+1, acc.Semantic, acc.Syntactic, acc.Total)
	}
	final := res.Acc.Total
	if final < 20 {
		t.Errorf("final total accuracy %.1f%% too low; planted structure not learned", final)
	}
	first := res.PerEpochAcc[0].Total
	if final <= first {
		t.Errorf("accuracy did not improve: epoch1 %.1f%%, final %.1f%%", first, final)
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	opts := tinyOpts()
	opts.Out = &buf
	rows, err := Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Paper Table 1 ordering: wiki is the largest on every column.
	wiki := rows[2]
	if wiki.Dataset != "wiki" {
		t.Fatalf("row order: %v", rows)
	}
	for _, r := range rows[:2] {
		if wiki.VocabWords <= r.VocabWords || wiki.TrainingWords <= r.TrainingWords || wiki.SizeBytes <= r.SizeBytes {
			t.Errorf("wiki not largest: %+v vs %+v", wiki, r)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "wiki") {
		t.Errorf("rendered table missing content:\n%s", out)
	}
}

func TestGEMMemoryModel(t *testing.T) {
	opts := tinyOpts()
	datasets, err := LoadAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	budget := gemMemoryBudgetBytes(int64(datasets[2].Corp.Len()))
	// The paper's Table 2: Gensim fits 1-billion and news, OOMs on wiki.
	if gemPeakBytes(datasets[0], opts.Dim) > budget {
		t.Error("GEM should fit 1-billion")
	}
	if gemPeakBytes(datasets[1], opts.Dim) > budget {
		t.Error("GEM should fit news")
	}
	if gemPeakBytes(datasets[2], opts.Dim) <= budget {
		t.Error("GEM should OOM on wiki")
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{0.002: "2ms", 1.5: "1.5s", 90: "1.5m", 7200: "2.0h"}
	for in, want := range cases {
		if got := fmtDuration(in); got != want {
			t.Errorf("fmtDuration(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{Scale: synth.ScaleTiny}.WithDefaults()
	if o.Dim != synth.ScaleTiny.Dim() || o.Epochs != 8 || o.Hosts != 8 {
		t.Errorf("tiny defaults: %+v", o)
	}
	s := Options{Scale: synth.ScaleSmall}.WithDefaults()
	if s.Epochs != 16 || s.Hosts != 32 {
		t.Errorf("small defaults: %+v", s)
	}
	if o.ModeledThreads != 16 || o.ThreadEff != 0.85 {
		t.Errorf("thread model defaults: %+v", o)
	}
	if o.Cost.BandwidthBytesPerSec == 0 {
		t.Error("cost model not defaulted")
	}
	if o.out() == nil {
		t.Error("out() returned nil")
	}
}
