package gluon

import (
	"encoding/binary"
	"math"
	"testing"

	"graphword2vec/internal/bitset"
)

// FuzzParseAccessInto: an access frame is either rejected, or every node
// it sets lies in its announced range and re-encoding the range and
// parsing it again sets exactly the same nodes. n is the receiver's node
// count.
func FuzzParseAccessInto(f *testing.F) {
	for _, s := range goldenSeeds(f, "access") {
		f.Add(s, uint16(17))
	}
	f.Fuzz(func(t *testing.T, payload []byte, n uint16) {
		acc := bitset.New(int(n))
		if err := parseAccessInto(payload, acc); err != nil {
			return
		}
		lo := int(binary.LittleEndian.Uint32(payload[headerBytes:]))
		hi := lo + int(binary.LittleEndian.Uint32(payload[headerBytes+4:]))
		for i := 0; i < acc.Len(); i++ {
			if acc.Get(i) && (i < lo || i >= hi) {
				t.Fatalf("node %d set outside the announced range [%d,%d)", i, lo, hi)
			}
		}
		again := bitset.New(int(n))
		if err := parseAccessInto(appendAccessMessage(nil, 0, lo, hi, acc), again); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		for i := 0; i < acc.Len(); i++ {
			if acc.Get(i) != again.Get(i) {
				t.Fatalf("node %d: parsed %v, re-parsed %v", i, acc.Get(i), again.Get(i))
			}
		}
	})
}

// vectorEntry is one decoded vector-frame entry.
type vectorEntry struct {
	node int32
	half byte
	vec  []float32
}

// decodeEntries decodes a whole vector frame into copied entries.
func decodeEntries(payload []byte, dim int, flags byte) ([]vectorEntry, error) {
	var sc decodeScratch
	var out []vectorEntry
	err := decodeVectorFrameInto(payload, dim, flags, &sc, func(node int32, half byte, vec []float32) error {
		out = append(out, vectorEntry{node, half, append([]float32(nil), vec...)})
		return nil
	})
	return out, err
}

// FuzzDecodeVectorFrame: a vector frame (reduce, broadcast, gather or
// transfer) is either rejected, or re-encoding its entries under the
// same codec and decoding again yields the same entries. Two NaNs count
// as equal, because the fp16 encode canonicalises NaN to 0x7E00. The
// row dimension is d%8+1 (the golden frames use 2); the negotiated
// codec is the frame's own, so every codec byte is exercised.
func FuzzDecodeVectorFrame(f *testing.F) {
	for _, prefix := range []string{"reduce", "broadcast", "gather", "transfer"} {
		for _, s := range goldenSeeds(f, prefix) {
			f.Add(s, uint8(1))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte, d uint8) {
		dim := int(d%8) + 1
		if len(payload) <= headerBytes {
			return
		}
		flags := payload[headerBytes]
		entries, err := decodeEntries(payload, dim, flags)
		if err != nil {
			return
		}
		kind, round, _, _ := parseHeader(payload)
		nodes := make([]int32, len(entries))
		for i, e := range entries {
			nodes[i] = e.node
		}
		vi, hi := 0, 0
		frame := encodeVectorFrame(kind, round, flags, dim, nodes,
			func(int32) byte { hi++; return entries[hi-1].half },
			func(_ int32, dst []float32) { vi++; copy(dst, entries[vi-1].vec) })
		again, err := decodeEntries(frame, dim, flags)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if len(again) != len(entries) {
			t.Fatalf("%d entries re-decode as %d", len(entries), len(again))
		}
		for i, e := range entries {
			a := again[i]
			if a.node != e.node || a.half != e.half {
				t.Fatalf("entry %d: node %d half %#x re-decodes as node %d half %#x", i, e.node, e.half, a.node, a.half)
			}
			for j := range e.vec {
				if math.Float32bits(a.vec[j]) != math.Float32bits(e.vec[j]) && !(a.vec[j] != a.vec[j] && e.vec[j] != e.vec[j]) {
					t.Fatalf("entry %d value %d: %v re-decodes as %v", i, j, e.vec[j], a.vec[j])
				}
			}
		}
	})
}
