package model

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzModelLoad: a model file is either rejected by name (ErrFormat,
// ErrTruncated, ErrTrailingBytes) or accepted so that Save re-encodes it
// to exactly the bytes it was loaded from. Load must never panic, and
// never allocate more than its input can fill. Seeded from
// testdata/fuzz: two headers claiming far more rows than the file
// holds, a valid 2×3 model and a truncated one.
func FuzzModelLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := loadBytes(data)
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrTrailingBytes) {
				t.Fatalf("rejected without a name: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-encode as %d different bytes", len(data), buf.Len())
		}
	})
}
