package workload

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parse registers the flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestValidateRejectsByName: every bad workload flag is refused, naming
// the flag, before any input is read.
func TestValidateRejectsByName(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "audio"}, "-workload"},
		{nil, "-corpus"},
		{[]string{"-workload", "graph"}, "-graph or -preset"},
		{[]string{"-workload", "graph", "-preset", "tiny", "-graph", "g.txt"}, "-graph or -preset"},
		{[]string{"-workload", "graph", "-preset", "huge"}, "-preset"},
		{[]string{"-workload", "graph", "-preset", "tiny", "-walk-length", "1"}, "WalkLength"},
		{[]string{"-corpus", "c.txt", "-mode", "Bogus"}, "mode"},
	} {
		err := parse(t, tc.args...).Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: Validate = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}

// TestLoadDefaults: unset -epochs/-dim/-negatives take the workload's
// defaults, set ones are kept, and the sentence cap and checksum extras
// follow the workload.
func TestLoadDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.txt")
	if err := os.WriteFile(path, []byte(strings.Repeat("a b c a b d\n", 20)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args                                []string
		epochs, dim, negatives, sentence, n int
	}{
		{[]string{"-corpus", path, "-min-count", "1"}, 16, 48, 15, 10000, 3},
		{[]string{"-corpus", path, "-min-count", "1", "-epochs", "2", "-dim", "8", "-negatives", "3"}, 2, 8, 3, 10000, 3},
		{[]string{"-workload", "graph", "-preset", "tiny", "-walk-length", "12"}, 8, 32, 5, 12, 4},
	} {
		w, err := parse(t, tc.args...).Load(4)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		c := w.Config
		if c.Hosts != 4 || c.Epochs != tc.epochs || w.Dim != tc.dim || c.Params.Negatives != tc.negatives ||
			c.Params.MaxSentenceLength != tc.sentence || len(w.Extra) != tc.n {
			t.Errorf("%v: hosts %d epochs %d dim %d negatives %d sentence %d extras %d, want 4 %d %d %d %d %d",
				tc.args, c.Hosts, c.Epochs, w.Dim, c.Params.Negatives, c.Params.MaxSentenceLength, len(w.Extra),
				tc.epochs, tc.dim, tc.negatives, tc.sentence, tc.n)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%v: config invalid: %v", tc.args, err)
		}
	}
}
