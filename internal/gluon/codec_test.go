package gluon

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"graphword2vec/internal/xrand"
)

// legalFlags are the flag bytes frameFlags can produce.
var legalFlags = []byte{wireVarint, wireVarint | wireHalves}

// randomIndexSet draws a sorted strictly-ascending index set of the
// given size from [0, span).
func randomIndexSet(r *xrand.Rand, size, span int) []int32 {
	seen := make(map[int32]bool, size)
	for len(seen) < size {
		seen[int32(r.Intn(span))] = true
	}
	nodes := make([]int32, 0, size)
	for n := int32(0); n < int32(span) && len(nodes) < size; n++ {
		if seen[n] {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// TestCodecRoundTripProperty: random index sets — empty, singleton,
// sparse, dense — with random payloads (including zero halves) must
// survive encode → decode exactly under both legal flag bytes.
func TestCodecRoundTripProperty(t *testing.T) {
	r := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		dim := 1 + r.Intn(9)
		span := 1 + r.Intn(2000)
		var nodes []int32
		switch trial % 4 {
		case 0: // empty
		case 1: // singleton
			nodes = []int32{int32(r.Intn(span))}
		case 2: // dense: the full contiguous range
			nodes = make([]int32, span)
			for i := range nodes {
				nodes[i] = int32(i)
			}
		default: // sparse random
			nodes = randomIndexSet(r, 1+r.Intn(min(span, 64)), span)
		}
		flags := legalFlags[trial%len(legalFlags)]

		vals := make(map[int32][]float32, len(nodes))
		for _, n := range nodes {
			vec := make([]float32, 2*dim)
			switch r.Intn(4) {
			case 0: // zero embedding half
				for i := dim; i < 2*dim; i++ {
					vec[i] = float32(r.Float64()*2 - 1)
				}
			case 1: // zero training half
				for i := 0; i < dim; i++ {
					vec[i] = float32(r.Float64()*2 - 1)
				}
			case 2: // all zero
			default:
				for i := range vec {
					vec[i] = float32(r.Float64()*2 - 1)
				}
			}
			vals[n] = vec
		}

		msg := encodeVectorFrame(kindReduce, uint32(trial), flags, dim, nodes, nil, func(n int32, dst []float32) {
			copy(dst, vals[n])
		})
		var got []int32
		err := decodeVectorFrame(msg, dim, flags, func(n int32, half byte, vec []float32) error {
			got = append(got, n)
			want := vals[n]
			for i, v := range want {
				expect := v
				if flags&wireHalves != 0 {
					// Suppressed halves decode as exact zeros.
					if i < dim && half&halfEmb == 0 || i >= dim && half&halfCtx == 0 {
						expect = 0
					}
				}
				if vec[i] != expect {
					return fmt.Errorf("trial %d flags %#x node %d [%d]: got %v want %v", trial, flags, n, i, vec[i], expect)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(nodes) {
			t.Fatalf("trial %d: decoded %d entries, want %d", trial, len(got), len(nodes))
		}
		for i := range got {
			if got[i] != nodes[i] {
				t.Fatalf("trial %d: node order %v, want %v", trial, got, nodes)
			}
		}
	}
}

// TestCodecRejectsCorruptVarint: every way a varint index section can be
// malformed must produce a decode error, not a wrong answer or a panic.
func TestCodecRejectsCorruptVarint(t *testing.T) {
	dim := 2
	flags := wireVarint | wireHalves
	good := encodeVectorFrame(kindReduce, 1, flags, dim, []int32{3, 10}, nil, func(n int32, dst []float32) {
		for i := range dst {
			dst[i] = float32(n) + float32(i)
		}
	})
	decode := func(msg []byte) error {
		return decodeVectorFrame(msg, dim, flags, func(int32, byte, []float32) error { return nil })
	}
	if err := decode(good); err != nil {
		t.Fatalf("control frame rejected: %v", err)
	}

	corrupt := func(name string, mutate func(msg []byte) []byte) {
		msg := append([]byte(nil), good...)
		if err := decode(mutate(msg)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	corrupt("truncated varint (continuation bit into nothing)", func(msg []byte) []byte {
		// Frame reduced to the header, flag byte, and a lone 0x80: an
		// unterminated varint.
		return append(msg[:headerBytes+1:headerBytes+1], 0x80)
	})
	corrupt("zero index delta", func(msg []byte) []byte {
		msg[headerBytes+2] = 0 // second entry's gap → 0: not ascending
		return msg
	})
	corrupt("varint overflow", func(msg []byte) []byte {
		over := append(msg[:headerBytes+1:headerBytes+1], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
		return over
	})
	corrupt("index above int32", func(msg []byte) []byte {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], uint64(math.MaxInt32)+1)
		return append(append(msg[:headerBytes+1:headerBytes+1], tmp[:n]...), msg[headerBytes+2:]...)
	})
	corrupt("count larger than body", func(msg []byte) []byte {
		binary.LittleEndian.PutUint32(msg[5:], 1<<30)
		return msg
	})
	corrupt("payload truncated", func(msg []byte) []byte {
		return msg[:len(msg)-3]
	})
	corrupt("trailing garbage", func(msg []byte) []byte {
		return append(msg, 0xAB)
	})
	corrupt("nonzero mask padding", func(msg []byte) []byte {
		// Two entries use the low 4 bits of the mask byte; set a pad bit.
		msg[headerBytes+3] |= 0xF0
		return msg
	})
	corrupt("flag byte mismatch", func(msg []byte) []byte {
		msg[headerBytes] = wireVarint
		return msg
	})
	corrupt("unknown flag bits", func(msg []byte) []byte {
		msg[headerBytes] |= 1 << 6
		return msg
	})
}

// The reduce frame that protocol v2–v9 pinned as golden line
// "reduce-raw": three entries of dim 2 under the retired raw codec
// (flag byte 0). The FuzzDecodeVectorFrame corpus carries it, and its
// fp16 twin, as seeds retired-raw and retired-fp16.
const (
	retiredRawReduceHex = "010700000003000000000000000003000000830000000000c03f000000c00000803e00000041000000bf00004040000000000000000000000000000000000000003e000028c2"
	// retiredRawReduceBytes is the length of the reduce-raw frame.
	retiredRawReduceBytes = 70
)

// TestRawVectorBytesMatchesRetiredGolden pins the arithmetic behind
// comm-volume's raw column to the last raw frame ever pinned: one
// frame, three entries, dim 2.
func TestRawVectorBytesMatchesRetiredGolden(t *testing.T) {
	frame, err := hex.DecodeString(retiredRawReduceHex)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != retiredRawReduceBytes {
		t.Fatalf("reduce-raw golden is %d bytes, constant says %d", len(frame), retiredRawReduceBytes)
	}
	if got := rawVectorBytes(1, 3, 2); got != retiredRawReduceBytes {
		t.Fatalf("rawVectorBytes(1 frame, 3 entries, dim 2) = %d, want %d", got, retiredRawReduceBytes)
	}
}
