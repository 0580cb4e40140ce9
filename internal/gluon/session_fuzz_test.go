package gluon

import (
	"bytes"
	"testing"
)

// FuzzParseMeshHello: a mesh hello is either rejected or re-encodes to
// exactly the bytes it was parsed from.
func FuzzParseMeshHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		h, err := parseMeshHello(buf)
		if err != nil {
			return
		}
		if got := encodeMeshHello(h); !bytes.Equal(got, buf) {
			t.Fatalf("hello %+v re-encodes to %x, parsed from %x", h, got, buf)
		}
	})
}

// FuzzParseSessionFrame: a session frame — the only TCP framing — is
// either rejected or re-encodes to exactly the bytes it was parsed
// from.
func FuzzParseSessionFrame(f *testing.F) {
	hb := sessionFrameAppend(nil, 2, 0, 9, heartbeatMessage())
	// A frame one byte short of its length prefix must be rejected.
	f.Add(hb[:len(hb)-1])
	f.Add(hb)
	f.Fuzz(func(t *testing.T, frame []byte) {
		from, seq, ack, payload, err := parseSessionFrame(frame)
		if err != nil {
			return
		}
		if got := sessionFrameAppend(nil, from, seq, ack, payload); !bytes.Equal(got, frame) {
			t.Fatalf("frame (from %d, seq %d, ack %d) re-encodes to %x, parsed from %x", from, seq, ack, got, frame)
		}
	})
}

// FuzzReadSessionHello: a resume hello is either rejected or its
// consumed prefix re-encodes byte-identically.
func FuzzReadSessionHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		rank, token, lastRecv, err := readSessionHello(bytes.NewReader(buf))
		if err != nil {
			return
		}
		if got := encodeSessionHello(rank, token, lastRecv); !bytes.Equal(got, buf[:sessionHelloBytes]) {
			t.Fatalf("hello (rank %d, token %#x, lastRecv %d) re-encodes to %x, read from %x", rank, token, lastRecv, got, buf)
		}
	})
}
