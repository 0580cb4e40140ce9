package gluon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The vector-frame encoding for reduce, broadcast, gather and transfer
// frames. The full byte-level specification lives in PROTOCOL.md §4–5;
// this file is the reference implementation.
//
// There is one encoding (protocol v10): index sets are sorted varint
// deltas, and all-zero vector halves are suppressed where the receiver
// can reconstruct them — on reduce frames and on RepModel broadcasts
// (frameFlags). Which rows ship at all is the synchronisation scheme's
// business; the bytes of the rows that do ship are exact float32, so
// every run is bit-identical to one over the uncompressed v1 format.
//
// Every vector frame still carries a flag byte naming the encodings
// applied to it. Both sides derive it from the frame kind and the
// synchronisation mode, so the byte is a format check: a frame whose
// byte differs from the expected one is rejected.
const (
	// wireVarint: the index section is a sorted varint-delta list.
	wireVarint byte = 1 << 0
	// wireHalves: a half-presence mask section follows the indices and
	// absent halves are omitted from the payload.
	wireHalves byte = 1 << 1
	// wireRetiredFP16 marked binary16 payloads under the fp16 codec
	// (protocol v2–v9). Retired in v10 and never to be reused: a frame
	// carrying it fails with ErrRetiredCodec, like a frame without
	// wireVarint (the raw codec's flag byte).
	wireRetiredFP16 byte = 1 << 2

	wireKnownFlags = wireVarint | wireHalves | wireRetiredFP16
)

// ErrRetiredCodec marks a vector frame encoded under a codec that
// protocol v10 retired: raw (no varint bit) or fp16 (bit 2). Only a
// peer from an older build, past the hello's version check, or a
// corrupted frame can produce one.
var ErrRetiredCodec = errors.New("gluon: vector frame uses a retired codec")

// frameFlags is the flag byte of every vector frame of one kind under
// one synchronisation mode (PROTOCOL.md §5). Half suppression applies
// only where an absent half can be reconstructed by the receiver: on
// reduce frames (an absent half is a zero delta) and on RepModel
// broadcasts (an absent half is unchanged on every replica). PullModel
// broadcasts serve arbitrarily stale mirrors, and gather and transfer
// frames install rows on hosts with no prior state, so those ship
// full values.
func frameFlags(kind byte, mode Mode) byte {
	if kind == kindReduce || kind == kindBroadcast && mode != PullModel {
		return wireVarint | wireHalves
	}
	return wireVarint
}

// rawVectorBytes is the size the given number of vector frames and
// entries would occupy in the uncompressed format of protocol v1 (the
// retired raw codec): per frame the header and flag byte, per entry a
// uint32 index and both halves as float32.
func rawVectorBytes(frames, entries int64, dim int) int64 {
	return frames*(headerBytes+1) + entries*int64(4+2*dim*4)
}

// Half-presence bits, two per entry in the mask section.
const (
	halfEmb  byte = 1 << 0 // embedding (first dim floats) present
	halfCtx  byte = 1 << 1 // training/context (second dim floats) present
	halfBoth      = halfEmb | halfCtx
)

// nonzeroHalves returns the half-presence mask of a concatenated
// (embedding ‖ training) vector: a half is present iff any component is
// nonzero. Used by the reduce encoder, where an absent half means "this
// host's delta for that half is exactly zero".
func nonzeroHalves(vec []float32, dim int) byte {
	var h byte
	for _, v := range vec[:dim] {
		if v != 0 {
			h |= halfEmb
			break
		}
	}
	for _, v := range vec[dim:] {
		if v != 0 {
			h |= halfCtx
			break
		}
	}
	return h
}

// halfCount returns how many halves the mask selects (0, 1 or 2).
func halfCount(h byte) int { return int(h&1 + h>>1&1) }

// encodeVectorFrame builds a reduce, broadcast, gather or transfer
// frame:
//
//	header (9 bytes) · flag byte · index section · mask section · payload
//
// flags is the frame's flag byte (frameFlags) and must include
// wireVarint. nodes must be sorted strictly ascending (the protocol
// invariant the varint-delta encoding relies on; senders always walk
// master ranges in order). vecAt fills the 2·dim-float concatenated
// vector for a node. halfAt, when non-nil and wireHalves is set, selects
// which halves of each node ship; with a nil halfAt the mask is derived
// from the vector content (all-zero halves are suppressed). Without
// wireHalves every entry ships both halves and no mask section is
// emitted.
func encodeVectorFrame(kind byte, round uint32, flags byte, dim int, nodes []int32, halfAt func(node int32) byte, vecAt func(node int32, dst []float32)) []byte {
	buf := make([]byte, 0, headerBytes+1+len(nodes)*(1+2*dim*4))
	return appendVectorFrame(buf, kind, round, flags, dim, nodes, halfAt, vecAt, make([]float32, 2*dim))
}

// appendVectorFrame is encodeVectorFrame writing into a caller-owned
// buffer: the frame is appended to dst and the extended slice returned.
// vec is caller-owned scratch of length 2·dim. With a pre-grown dst the
// encode performs no allocation — the sync engine reuses one buffer and
// one scratch vector per peer across rounds. The emitted bytes are
// identical to encodeVectorFrame's (the golden wire tests pin the
// format).
func appendVectorFrame(dst []byte, kind byte, round uint32, flags byte, dim int, nodes []int32, halfAt func(node int32) byte, vecAt func(node int32, dst []float32), vec []float32) []byte {
	start := len(dst)
	var hdr [headerBytes]byte
	dst = append(dst, hdr[:]...)
	putHeader(dst[start:], kind, round, uint32(len(nodes)))
	dst = append(dst, flags)

	// Index section: the first id, then strictly positive gaps.
	var tmp [binary.MaxVarintLen32]byte
	prev := int32(0)
	for i, n := range nodes {
		d := uint64(n)
		if i > 0 {
			d = uint64(n - prev)
		}
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], d)]...)
		prev = n
	}

	// Mask section: reserved zeroed in place, filled while the payload
	// streams (one vecAt evaluation per node serves both sections).
	maskOff := len(dst)
	if flags&wireHalves != 0 {
		nb := (2*len(nodes) + 7) / 8
		for i := 0; i < nb; i++ {
			dst = append(dst, 0)
		}
	}
	for i, n := range nodes {
		vecAt(n, vec)
		h := halfBoth
		if flags&wireHalves != 0 {
			if halfAt != nil {
				h = halfAt(n) & halfBoth
			} else {
				h = nonzeroHalves(vec, dim)
			}
			dst[maskOff+i/4] |= h << uint(i%4*2)
		}
		if h&halfEmb != 0 {
			dst = appendFloats(dst, vec[:dim])
		}
		if h&halfCtx != 0 {
			dst = appendFloats(dst, vec[dim:])
		}
	}
	return dst
}

// appendFloats appends one half's values as little-endian binary32.
func appendFloats(dst []byte, half []float32) []byte {
	for _, v := range half {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// decodeScratch holds the reusable buffers one decode path owns: the
// index slice and the entry vector, grown on demand and reused across
// frames so steady-state decodes allocate nothing. Not safe for
// concurrent use — the sync engine keeps one per peer goroutine.
type decodeScratch struct {
	nodes []int32
	vec   []float32
}

// decodeVectorFrame decodes a vector frame, enforcing that its flag
// byte equals wantFlags (frameFlags for the expected kind and mode). fn
// receives each node id, its half-presence mask, and the full 2·dim
// vector with absent halves zero-filled; the slice is reused across
// entries. Any structural defect — unknown or retired flag bits, a
// truncated or overlong varint, a non-ascending index, nonzero mask
// padding, or a payload whose length does not match the mask — is
// rejected with an error.
func decodeVectorFrame(payload []byte, dim int, wantFlags byte, fn func(node int32, half byte, vec []float32) error) error {
	var sc decodeScratch
	return decodeVectorFrameInto(payload, dim, wantFlags, &sc, fn)
}

// decodeVectorFrameInto is decodeVectorFrame with caller-owned scratch:
// after the first few frames sc's buffers have grown to the working set
// and decoding is allocation-free.
func decodeVectorFrameInto(payload []byte, dim int, wantFlags byte, sc *decodeScratch, fn func(node int32, half byte, vec []float32) error) error {
	_, _, count, err := parseHeader(payload)
	if err != nil {
		return err
	}
	if len(payload) < headerBytes+1 {
		return fmt.Errorf("gluon: vector frame of %d bytes lacks a flag byte", len(payload))
	}
	flags := payload[headerBytes]
	switch {
	case flags&^wireKnownFlags != 0:
		return fmt.Errorf("gluon: vector frame with unknown flag bits %#x", flags)
	case flags&wireRetiredFP16 != 0:
		return fmt.Errorf("%w: fp16 (flag byte %#x; retired in protocol v10)", ErrRetiredCodec, flags)
	case flags&wireVarint == 0:
		return fmt.Errorf("%w: raw (flag byte %#x; retired in protocol v10)", ErrRetiredCodec, flags)
	case flags != wantFlags:
		return fmt.Errorf("gluon: vector frame flag byte %#x, want %#x for its kind and mode", flags, wantFlags)
	}
	rest := payload[headerBytes+1:]
	// Each entry consumes at least one index byte, so an absurd count in
	// a corrupted header is rejected before any allocation sized by it.
	if int64(count) > int64(len(rest)) {
		return fmt.Errorf("gluon: vector frame claims %d entries in %d bytes", count, len(rest))
	}

	// Index section.
	if cap(sc.nodes) < int(count) {
		sc.nodes = make([]int32, count)
	}
	nodes := sc.nodes[:count]
	prev := int64(-1)
	for i := range nodes {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("gluon: corrupt varint in index %d of vector frame", i)
		}
		rest = rest[n:]
		cur := int64(v)
		if i > 0 {
			if v == 0 {
				return fmt.Errorf("gluon: zero index delta at entry %d (indices must be strictly ascending)", i)
			}
			cur = prev + int64(v)
		}
		if cur > math.MaxInt32 {
			return fmt.Errorf("gluon: index %d overflows int32 in vector frame", cur)
		}
		nodes[i] = int32(cur)
		prev = cur
	}

	// Mask section.
	var masks []byte
	if flags&wireHalves != 0 {
		nb := (2*int(count) + 7) / 8
		if len(rest) < nb {
			return fmt.Errorf("gluon: vector frame mask section truncated (%d bytes, want %d)", len(rest), nb)
		}
		masks = rest[:nb]
		rest = rest[nb:]
		if pad := 2 * int(count) % 8; pad != 0 && masks[nb-1]>>uint(pad) != 0 {
			return fmt.Errorf("gluon: nonzero padding bits in vector frame mask")
		}
	}

	// Payload section: verify the exact length before decoding.
	halves := 2 * int(count)
	if masks != nil {
		halves = 0
		for i := 0; i < int(count); i++ {
			halves += halfCount(masks[i/4] >> uint(i%4*2) & halfBoth)
		}
	}
	if want := halves * dim * 4; len(rest) != want {
		return fmt.Errorf("gluon: vector frame payload of %d bytes, want %d for %d present halves", len(rest), want, halves)
	}

	if cap(sc.vec) < 2*dim {
		sc.vec = make([]float32, 2*dim)
	}
	vec := sc.vec[:2*dim]
	for i, node := range nodes {
		h := halfBoth
		if masks != nil {
			h = masks[i/4] >> uint(i%4*2) & halfBoth
		}
		for j := range vec {
			vec[j] = 0
		}
		if h&halfEmb != 0 {
			rest = decodeFloats(rest, vec[:dim])
		}
		if h&halfCtx != 0 {
			rest = decodeFloats(rest, vec[dim:])
		}
		if err := fn(node, h, vec); err != nil {
			return err
		}
	}
	return nil
}

// decodeFloats fills dst with little-endian binary32 values from the
// front of src and returns the rest of src.
func decodeFloats(src []byte, dst []float32) []byte {
	for j := range dst {
		dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*j:]))
	}
	return src[4*len(dst):]
}
