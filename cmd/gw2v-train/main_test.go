package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphword2vec/internal/synth"
)

// TestBadFlagFailsBeforeInput: a bad flag is reported by name even when
// the corpus does not exist, so no input is read before the flags pass.
func TestBadFlagFailsBeforeInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.txt")
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-sgns", "bogus"}, "-sgns"},
		{[]string{"-sgns", "batched", "-hosts", "4"}, "-sgns"},
		{[]string{"-workload", "bogus"}, "-workload"},
	} {
		err := run(append(tc.args, "-corpus", missing), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flag) || strings.Contains(err.Error(), missing) {
			t.Errorf("%v: error %v, want one naming %s and not the corpus", tc.args, err, tc.flag)
		}
	}
}

// TestModelHashPinned pins gw2v-train's models to the hashes the
// separate text and graph front ends produced before they became one
// command: one -workload switch must not change a bit of either.
func TestModelHashPinned(t *testing.T) {
	dir := t.TempDir()
	cfg, err := synth.Preset("1-billion", synth.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	data, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpusPath := filepath.Join(dir, "corpus.txt")
	f, err := os.Create(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.WriteText(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"graph-preset", []string{"-workload", "graph", "-preset", "tiny", "-hosts", "4"},
			"634a907417fe9b422d3ff6e4d65e4808fac9fa753926db39e847d859f97b7c8c"},
		{"text", []string{"-corpus", corpusPath, "-hosts", "4", "-epochs", "4", "-dim", "16", "-seed", "9"},
			"fa79a1b8bcf9d3de2f98ae4a8ea0509345ab10637926a09f3674407d0bba75b1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			modelPath := filepath.Join(dir, tc.name+".bin")
			if err := run(append(tc.args, "-model", modelPath), io.Discard); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(modelPath)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("model hash %s, want %s", got, tc.want)
			}
		})
	}
}
