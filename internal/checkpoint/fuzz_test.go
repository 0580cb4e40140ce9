package checkpoint

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzCheckpointLoad: the snapshot parser behind Load either rejects
// its input with one of the four named load failures or accepts it, and
// then re-encoding the snapshot gives back the same bytes. It never
// panics. The seed corpus (testdata/fuzz) holds a valid tiny snapshot,
// its truncation, trailing bytes, a bad version, and a hash-valid header
// whose vocab 2^31 × dim 2^29 would wrap the size check to a body-less
// file.
func FuzzCheckpointLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parse("fuzz", data)
		if err != nil {
			for _, want := range []error{ErrTruncated, ErrNotSnapshot, ErrVersion, ErrCorrupt} {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("unclassified load failure: %v", err)
		}
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), buf.Len())
		}
	})
}
