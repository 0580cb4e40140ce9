package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"graphword2vec/internal/gluon"
)

// TestBadFlagFailsBeforeInput: each bad flag combination is reported by
// name before the corpus is read or any peer is dialed — the corpus does
// not exist and nothing listens on the peer addresses, so reaching
// either would fail with another error (or wait out -dial-timeout).
func TestBadFlagFailsBeforeInput(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.txt")
	peers := func(n int) string {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", 1+i)
		}
		return strings.Join(addrs, ",")
	}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-rank", "0"}, "-peers"},
		{[]string{"-rank", "2", "-peers", peers(2)}, "-rank"},
		{[]string{"-rank", "-1", "-peers", peers(2)}, "-rank"},
		{[]string{"-rank", "0", "-peers", peers(2), "-resume"}, "-resume"},
		{[]string{"-rank", "0", "-peers", peers(2), "-max-restarts", "2"}, "-max-restarts"},
		{[]string{"-rank", "0", "-peers", peers(2), "-min-hosts", "1"}, "-min-hosts"},
		{[]string{"-rank", "0", "-peers", peers(2), "-checkpoint-dir", dir, "-min-hosts", "3"}, "-min-hosts"},
		{[]string{"-rank", "0", "-peers", peers(2), "-checkpoint-dir", dir, "-min-hosts", "-1"}, "-min-hosts"},
		{[]string{"-rank", "0", "-peers", peers(gluon.MembershipHostCap + 1), "-checkpoint-dir", dir}, "-checkpoint-dir"},
		// Retired with the raw and fp16 codecs: an unknown flag now.
		{[]string{"-rank", "0", "-peers", peers(2), "-wire", "raw"}, "-wire"},
	} {
		err := run(append(tc.args, "-corpus", missing, "-dial-timeout", "1ms"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flag) || strings.Contains(err.Error(), missing) {
			t.Errorf("%v: error %v, want one naming %s and not the corpus", tc.args, err, tc.flag)
		}
	}
	// The same flags, valid, do reach the corpus.
	if err := run([]string{"-rank", "0", "-peers", peers(2), "-checkpoint-dir", dir, "-corpus", missing}, io.Discard); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("valid flags: error %v, want one naming the missing corpus", err)
	}
	err := run([]string{"-rank", "0", "-peers", peers(gluon.MembershipHostCap + 1), "-checkpoint-dir", dir, "-corpus", missing}, io.Discard)
	if !errors.Is(err, gluon.ErrMembershipHostCap) {
		t.Errorf("checkpointing %d peers: %v, want ErrMembershipHostCap", gluon.MembershipHostCap+1, err)
	}
}
