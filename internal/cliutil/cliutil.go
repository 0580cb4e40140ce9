// Package cliutil holds small helpers shared by the command-line tools
// (cmd/gw2v-train, cmd/gw2v-worker) and the examples.
package cliutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"graphword2vec/internal/vocab"
)

// StartProfiles begins CPU profiling to cpuPath (when non-empty) and
// arranges a heap profile at memPath (when non-empty). It returns a stop
// function that must be called at process end — typically deferred right
// after the error check — which flushes the CPU profile and writes the
// heap profile after a final GC. Either path may be empty; with both
// empty the returned stop is a no-op. This is the shared plumbing behind
// the tools' -cpuprofile/-memprofile flags, so every perf investigation
// starts from a profile rather than a guess.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cliutil: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cliutil: cpu profile: %w", err)
		}
	}
	done := false
	return func() error {
		if done { // idempotent: fatal-error paths stop before exiting
			return nil
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cliutil: cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("cliutil: mem profile: %w", err)
			}
			runtime.GC() // materialise up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("cliutil: mem profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("cliutil: mem profile: %w", err)
			}
		}
		return nil
	}, nil
}

// FormatBytes renders a byte count with SI units ("1.5MB"). It takes a
// float64 so extrapolated counts render without rounding first.
func FormatBytes(b float64) string {
	units := []string{"B", "KB", "MB", "GB", "TB"}
	i := 0
	for b >= 1000 && i < len(units)-1 {
		b /= 1000
		i++
	}
	return fmt.Sprintf("%.1f%s", b, units[i])
}

// SaveVocabSidecar writes the vocabulary next to the model so gw2v-eval
// can map rows back to words.
func SaveVocabSidecar(modelPath string, voc *vocab.Vocabulary) error {
	f, err := os.Create(modelPath + ".vocab")
	if err != nil {
		return err
	}
	if err := voc.WriteCounts(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
