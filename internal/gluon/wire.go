package gluon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"graphword2vec/internal/bitset"
)

// Wire format, version 9 — the byte-level contract is specified in
// PROTOCOL.md and pinned by the golden frames under testdata/; change
// either only together with a mesh protocol version bump.
//
// Every message starts with a fixed header:
//
//	byte 0     kind (reduce / broadcast / access / gather / barrier /
//	           heartbeat / membership / transfer)
//	bytes 1–4  round number (uint32 LE)
//	bytes 5–8  entry count (uint32 LE)
//
// Vector frames (reduce, broadcast, gather, transfer) continue with a
// codec byte and codec-dependent index / mask / payload sections — see
// codec.go. Access messages carry a bit-vector restricted to the
// receiver's master range: (lo uint32, bits uint32, packed bytes).
// Barrier payloads are empty and use the round field as a caller-chosen
// tag. Heartbeat frames (v3) are header-only liveness signals emitted
// and consumed by the transport layer; they never reach the sync
// engine. Membership frames (v4) carry the recovery negotiation every
// resume runs: offers describe which old ranks' master ranges a host
// can source from its checkpoint store, the decision carries the agreed
// cut round plus, when ranges must move, the per-range source
// assignment; transfer frames (v4) are vector frames migrating one old
// rank's master range to the whole re-sharded cluster — see PROTOCOL.md
// §10 and membership.go.
const (
	kindReduce    byte = 1
	kindBroadcast byte = 2
	kindAccess    byte = 3
	kindGather    byte = 4
	kindBarrier   byte = 5
	kindHeartbeat byte = 6
	// kindRetired carried the v3 resume negotiation, which v7 folded
	// into membership negotiation; kindRetiredTouched carried the
	// overlap touched announcement (v5), which v9 retired. Neither is
	// ever to be reused: a frame of either kind is rejected like any
	// other undefined kind.
	kindRetired        byte = 7
	kindMembership     byte = 8
	kindTransfer       byte = 9
	kindRetiredTouched byte = 10

	headerBytes = 9
)

// Exported frame-kind values for InspectFrame consumers (currently the
// fault-injection harness, which keys its kill points off frame kinds).
const (
	FrameReduce     = kindReduce
	FrameBarrier    = kindBarrier
	FrameMembership = kindMembership
	FrameTransfer   = kindTransfer
)

// InspectFrame reports a wire frame's kind byte and round field (the
// barrier tag, for barrier frames) without validating the payload — a
// read-only diagnostic seam for tooling layered on Transport, such as
// the fault-injection harness. It is NOT part of the decode path.
func InspectFrame(payload []byte) (kind byte, round uint32) {
	if len(payload) < headerBytes {
		return 0, 0
	}
	return payload[0], binary.LittleEndian.Uint32(payload[1:])
}

// putHeader writes the message header into buf[:headerBytes].
func putHeader(buf []byte, kind byte, round, count uint32) {
	buf[0] = kind
	binary.LittleEndian.PutUint32(buf[1:], round)
	binary.LittleEndian.PutUint32(buf[5:], count)
}

// parseHeader decodes a message header.
func parseHeader(buf []byte) (kind byte, round, count uint32, err error) {
	if len(buf) < headerBytes {
		return 0, 0, 0, fmt.Errorf("gluon: short message (%d bytes)", len(buf))
	}
	return buf[0], binary.LittleEndian.Uint32(buf[1:]), binary.LittleEndian.Uint32(buf[5:]), nil
}

// barrierMessage builds an empty barrier frame carrying only a tag.
func barrierMessage(tag uint32) []byte {
	buf := make([]byte, headerBytes)
	putHeader(buf, kindBarrier, tag, 0)
	return buf
}

// heartbeatMessage builds the header-only liveness frame. Round and
// count are zero; the frame is filtered out on the receive path before
// it can reach the sync engine's pending queue.
func heartbeatMessage() []byte {
	buf := make([]byte, headerBytes)
	putHeader(buf, kindHeartbeat, 0, 0)
	return buf
}

// isHeartbeat reports whether a payload is a transport liveness frame.
func isHeartbeat(payload []byte) bool {
	return len(payload) == headerBytes && payload[0] == kindHeartbeat
}

// ErrFrameKind marks a frame whose kind byte the current protocol does
// not define: 0, the retired kinds 7 and 10, or anything past them.
var ErrFrameKind = errors.New("gluon: undefined frame kind")

// definedKind reports whether k is a frame kind of the current protocol.
func definedKind(k byte) bool {
	return k >= kindReduce && k <= kindTransfer && k != kindRetired
}

// appendAccessMessage packs the bits [lo, hi) of acc into an access
// announcement for the owner of that range: header, then (lo uint32,
// bits uint32, packed bytes), packed word-at-a-time (bitset.PackRange).
// The frame is appended to dst and the extended slice returned; with a
// pre-grown dst it allocates nothing — the sync engine reuses one
// buffer per peer across rounds.
func appendAccessMessage(dst []byte, round uint32, lo, hi int, acc *bitset.Bitset) []byte {
	bits := hi - lo
	nbytes := (bits + 7) / 8
	start := len(dst)
	need := headerBytes + 8 + nbytes
	dst = slices.Grow(dst, need)[:start+need]
	frame := dst[start:]
	putHeader(frame, kindAccess, round, uint32(1))
	binary.LittleEndian.PutUint32(frame[headerBytes:], uint32(lo))
	binary.LittleEndian.PutUint32(frame[headerBytes+4:], uint32(bits))
	acc.PackRange(frame[headerBytes+8:need], lo, hi)
	return dst
}

// parseAccessInto decodes an access announcement directly into a bitset
// (word-level, allocation-free), OR-ing the announced nodes in. The
// caller resets acc first for replacement semantics.
func parseAccessInto(payload []byte, acc *bitset.Bitset) error {
	if len(payload) < headerBytes+8 {
		return fmt.Errorf("gluon: short access message (%d bytes)", len(payload))
	}
	lo := int(binary.LittleEndian.Uint32(payload[headerBytes:]))
	bits := int(binary.LittleEndian.Uint32(payload[headerBytes+4:]))
	packed := payload[headerBytes+8:]
	if len(packed) != (bits+7)/8 {
		return fmt.Errorf("gluon: access bitmap length %d, want %d", len(packed), (bits+7)/8)
	}
	if lo < 0 || lo+bits > acc.Len() {
		return fmt.Errorf("gluon: access range [%d,%d) outside node range [0,%d)", lo, lo+bits, acc.Len())
	}
	acc.UnpackRange(packed, lo, lo+bits)
	return nil
}
