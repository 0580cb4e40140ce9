package gluon

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"graphword2vec/internal/bitset"
)

// The wire-compat golden test: every frame kind is encoded from fixed
// inputs and compared byte-for-byte against testdata/wire_golden.txt.
// Any change to the encoded bytes is a wire protocol change: it must
// come with a meshVersion bump, a PROTOCOL.md update, and a deliberate
// regeneration of the golden file via
//
//	go test ./internal/gluon -run TestWireGolden -update-golden
//
// CI runs this test explicitly so an accidental format change fails
// fast instead of silently breaking mixed-build clusters.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_golden.txt from the current encoder")

const goldenPath = "testdata/wire_golden.txt"

// goldenVec are the fixed payloads: one dense entry, one with only the
// embedding half nonzero, one with only the training half nonzero.
// Values include negatives and a small magnitude.
func goldenVec(n int32, dst []float32) {
	switch n {
	case 0:
		copy(dst, []float32{1.5, -2, 0.25, 8})
	case 3:
		copy(dst, []float32{-0.5, 3, 0, 0})
	default:
		copy(dst, []float32{0, 0, 0.125, -42})
	}
}

// goldenFrames builds every pinned frame from fixed inputs.
func goldenFrames(t *testing.T) map[string][]byte {
	t.Helper()
	const dim = 2
	nodes := []int32{0, 3, 131}
	frames := map[string][]byte{
		"reduce-packed": encodeVectorFrame(kindReduce, 7, wireVarint|wireHalves, dim, nodes, nil, goldenVec),
		"broadcast-packed": encodeVectorFrame(kindBroadcast, 12, wireVarint|wireHalves, dim, []int32{1, 2},
			func(n int32) byte {
				if n == 1 {
					return halfEmb
				}
				return halfBoth
			},
			func(n int32, dst []float32) {
				copy(dst, []float32{float32(n), float32(n) + 0.5, float32(n) + 1, float32(n) + 1.5})
			}),
		"gather-varint": encodeVectorFrame(kindGather, 0, wireVarint, dim, []int32{5, 6, 7}, nil, func(n int32, dst []float32) {
			for i := range dst {
				dst[i] = float32(n)*10 + float32(i)
			}
		}),
		"barrier":   barrierMessage(9),
		"access":    appendAccessMessage(nil, 2, 3, 17, bitsetOf(17, 4, 9, 16)),
		"heartbeat": heartbeatMessage(),
		"membership-offer": membershipOfferMessage(MembershipOffer{
			OldHosts: 3, OldRank: 2,
			Rounds: []RoundSources{{Round: 4, Mask: 0b111, SelfHeld: true}, {Round: 6, Mask: 0b100}},
		}),
		"membership-offer-fresh": membershipOfferMessage(MembershipOffer{OldRank: FreshRank}),
		"membership-decision": membershipDecisionMessage(MembershipDecision{
			Round: 4, OldHosts: 3, Sources: []int{0, 0, 1},
		}),
		"membership-decision-plain": membershipDecisionMessage(MembershipDecision{Plain: true, Round: 6, OldHosts: 3}),
		// Transfer frames reuse the vector-frame encoding with the round
		// field carrying the migrated old rank (here: old rank 1).
		"transfer-varint": encodeVectorFrame(kindTransfer, 1, wireVarint, dim, []int32{5, 6, 7}, nil, func(n int32, dst []float32) {
			for i := range dst {
				dst[i] = float32(n)*10 + float32(i)
			}
		}),
	}

	// The session frame (every TCP frame since v8): rank 1 sending seq 7 / ack 3 wrapping the
	// pinned barrier payload, and the session resume hello: rank 1,
	// token 0x1122334455667788, lastRecv 42.
	frames["session-data"] = sessionFrameAppend(nil, 1, 7, 3, barrierMessage(9))
	frames["session-hello"] = goldenSessionHello(t)

	// The mesh hello, captured off a pipe: rank 1 of 3, checksum
	// 0x0123456789ABCDEF, session token 0x1122334455667788.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	helloCh := make(chan []byte, 1)
	go func() {
		buf := make([]byte, meshHelloBytes)
		b.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(b, buf); err != nil {
			helloCh <- nil
			return
		}
		helloCh <- buf
	}()
	cfg := MeshConfig{Rank: 1, Peers: []string{"a", "b", "c"}, Checksum: 0x0123456789ABCDEF}
	if err := writeHello(a, cfg, 0x1122334455667788, time.Now().Add(5*time.Second)); err != nil {
		t.Fatalf("writeHello: %v", err)
	}
	hello := <-helloCh
	if hello == nil {
		t.Fatal("hello capture failed")
	}
	frames["mesh-hello"] = hello
	return frames
}

// goldenSessionHello captures the v6 session resume hello off a pipe.
func goldenSessionHello(t *testing.T) []byte {
	t.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ch := make(chan []byte, 1)
	go func() {
		buf := make([]byte, sessionHelloBytes)
		b.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(b, buf); err != nil {
			ch <- nil
			return
		}
		ch <- buf
	}()
	if err := writeSessionHello(a, 1, 0x1122334455667788, 42); err != nil {
		t.Fatalf("writeSessionHello: %v", err)
	}
	hello := <-ch
	if hello == nil {
		t.Fatal("session hello capture failed")
	}
	return hello
}

// goldenFuzzTargets maps golden frame names, by prefix, to the fuzz
// target that parses them and the target's arguments after the frame,
// in corpus-file syntax.
var goldenFuzzTargets = []struct{ prefix, target, args string }{
	{"access", "FuzzParseAccessInto", "uint16(17)\n"},
	{"reduce", "FuzzDecodeVectorFrame", "uint8(1)\n"},
	{"broadcast", "FuzzDecodeVectorFrame", "uint8(1)\n"},
	{"gather", "FuzzDecodeVectorFrame", "uint8(1)\n"},
	{"transfer", "FuzzDecodeVectorFrame", "uint8(1)\n"},
	{"membership-offer", "FuzzParseMembershipOffer", ""},
	{"membership-decision", "FuzzParseMembershipDecision", ""},
	{"mesh-hello", "FuzzParseMeshHello", ""},
	{"session-data", "FuzzParseSessionFrame", ""},
	{"session-hello", "FuzzReadSessionHello", ""},
}

// goldenCorpus renders the golden frames as named seed-corpus files,
// testdata/fuzz/<Target>/golden-<name> → contents, so each fuzz case
// keeps its name whatever other golden lines come and go.
func goldenCorpus(frames map[string][]byte) map[string]string {
	out := map[string]string{}
	for name, frame := range frames {
		for _, g := range goldenFuzzTargets {
			if !strings.HasPrefix(name, g.prefix) {
				continue
			}
			var sb strings.Builder
			sb.WriteString("go test fuzz v1\n[]byte(\"")
			for _, b := range frame {
				fmt.Fprintf(&sb, "\\x%02x", b)
			}
			sb.WriteString("\")\n" + g.args)
			out[filepath.Join("testdata", "fuzz", g.target, "golden-"+name)] = sb.String()
		}
	}
	return out
}

// goldenCorpusGlob matches every golden seed-corpus file on disk.
const goldenCorpusGlob = "testdata/fuzz/*/golden-*"

// readGolden parses the checked-in golden file: frame name → bytes.
func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden after a deliberate format change): %v", err)
	}
	golden := map[string][]byte{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		raw, err := hex.DecodeString(hexStr)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		golden[name] = raw
	}
	return golden
}

func TestWireGolden(t *testing.T) {
	frames := goldenFrames(t)

	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# Golden wire frames, protocol version 10 (PROTOCOL.md).\n")
		sb.WriteString("# Regenerate ONLY on a deliberate, version-bumped format change:\n")
		sb.WriteString("#   go test ./internal/gluon -run TestWireGolden -update-golden\n")
		names := make([]string, 0, len(frames))
		for name := range frames {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&sb, "%s %s\n", name, hex.EncodeToString(frames[name]))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		stale, err := filepath.Glob(goldenCorpusGlob)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range stale {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
		corpus := goldenCorpus(frames)
		for p, contents := range corpus {
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, []byte(contents), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %s with %d frames and %d fuzz seeds", goldenPath, len(frames), len(corpus))
		return
	}

	golden := readGolden(t)
	for name, want := range golden {
		got, ok := frames[name]
		if !ok {
			t.Errorf("golden frame %q no longer produced", name)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %q changed:\n  got  %s\n  want %s\n(wire format change without a version bump — see PROTOCOL.md §7)",
				name, hex.EncodeToString(got), hex.EncodeToString(want))
		}
	}
	for name := range frames {
		if _, ok := golden[name]; !ok {
			t.Errorf("frame %q not pinned in %s (add it with -update-golden)", name, goldenPath)
		}
	}

	// The fuzz targets' golden seeds are the golden file's frames, one
	// named corpus file each, and nothing else.
	corpus := goldenCorpus(golden)
	for p, want := range corpus {
		got, err := os.ReadFile(p)
		if err != nil || string(got) != want {
			t.Errorf("fuzz seed %s does not match %s (regenerate with -update-golden): %v", p, goldenPath, err)
		}
	}
	onDisk, err := filepath.Glob(goldenCorpusGlob)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range onDisk {
		if _, ok := corpus[p]; !ok {
			t.Errorf("fuzz seed %s has no frame in %s", p, goldenPath)
		}
	}
}

// TestWireGoldenDecodes: the checked-in bytes must decode to the fixed
// inputs — the decoder side of the compatibility pin.
func TestWireGoldenDecodes(t *testing.T) {
	const dim = 2
	lookup := readGolden(t)

	decodeAll := func(name string, flags byte) (nodes []int32, halves []byte, vecs [][]float32) {
		t.Helper()
		err := decodeVectorFrame(lookup[name], dim, flags, func(n int32, half byte, vec []float32) error {
			nodes = append(nodes, n)
			halves = append(halves, half)
			vecs = append(vecs, append([]float32(nil), vec...))
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return
	}

	nodes, _, vecs := decodeAll("reduce-packed", wireVarint|wireHalves)
	if len(nodes) != 3 || nodes[0] != 0 || nodes[1] != 3 || nodes[2] != 131 {
		t.Fatalf("reduce-packed nodes = %v", nodes)
	}
	want := make([]float32, 2*dim)
	for i, n := range nodes {
		goldenVec(n, want)
		for j := range want {
			if vecs[i][j] != want[j] {
				t.Fatalf("reduce-packed node %d: %v, want %v", n, vecs[i], want)
			}
		}
	}

	// Broadcast frame: the half masks must survive.
	nodes, halves, _ := decodeAll("broadcast-packed", wireVarint|wireHalves)
	if len(nodes) != 2 || halves[0] != halfEmb || halves[1] != halfBoth {
		t.Fatalf("broadcast-packed masks = %v (nodes %v)", halves, nodes)
	}

	// Barrier and access frames.
	kind, tag, _, err := parseHeader(lookup["barrier"])
	if err != nil || kind != kindBarrier || tag != 9 {
		t.Fatalf("barrier = (%d, %d, %v)", kind, tag, err)
	}
	accessed := bitset.New(17)
	if err := parseAccessInto(lookup["access"], accessed); err != nil {
		t.Fatal(err)
	}
	if accessed.Count() != 3 || !accessed.Get(4) || !accessed.Get(9) || !accessed.Get(16) {
		t.Fatalf("access nodes = %v", accessed.AppendRange(nil, 0, 17))
	}

	// Heartbeat frame (protocol v3).
	if !isHeartbeat(lookup["heartbeat"]) {
		t.Fatalf("heartbeat frame not recognised: %x", lookup["heartbeat"])
	}

	// Membership frames (protocol v4).
	offer, err := parseMembershipOffer(lookup["membership-offer"])
	if err != nil || offer.OldHosts != 3 || offer.OldRank != 2 || len(offer.Rounds) != 2 {
		t.Fatalf("membership-offer = %+v, %v", offer, err)
	}
	if r := offer.Rounds[0]; r.Round != 4 || r.Mask != 0b111 || !r.SelfHeld {
		t.Fatalf("membership-offer round[0] = %+v", r)
	}
	if r := offer.Rounds[1]; r.Round != 6 || r.Mask != 0b100 || r.SelfHeld {
		t.Fatalf("membership-offer round[1] = %+v", r)
	}
	offer, err = parseMembershipOffer(lookup["membership-offer-fresh"])
	if err != nil || offer.OldHosts != 0 || offer.OldRank != FreshRank || len(offer.Rounds) != 0 {
		t.Fatalf("membership-offer-fresh = %+v, %v", offer, err)
	}
	dec, err := parseMembershipDecision(lookup["membership-decision"])
	if err != nil || dec.Plain || dec.Round != 4 || dec.OldHosts != 3 ||
		len(dec.Sources) != 3 || dec.Sources[0] != 0 || dec.Sources[1] != 0 || dec.Sources[2] != 1 {
		t.Fatalf("membership-decision = %+v, %v", dec, err)
	}
	dec, err = parseMembershipDecision(lookup["membership-decision-plain"])
	if err != nil || !dec.Plain || dec.Round != 6 || dec.OldHosts != 3 || dec.Sources != nil {
		t.Fatalf("membership-decision-plain = %+v, %v", dec, err)
	}
	var transferred []int32
	kind, tag, _, _ = parseHeader(lookup["transfer-varint"])
	if kind != kindTransfer || tag != 1 {
		t.Fatalf("transfer-varint header = (%d, %d)", kind, tag)
	}
	if err := decodeVectorFrame(lookup["transfer-varint"], dim, wireVarint, func(n int32, half byte, vec []float32) error {
		transferred = append(transferred, n)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(transferred) != 3 || transferred[0] != 5 || transferred[2] != 7 {
		t.Fatalf("transfer-varint nodes = %v", transferred)
	}

	// Session frames (protocol v6): the pinned bytes must decode to the
	// fixed seq/ack/payload, the CRC must verify, and the resume hello
	// must round-trip through readSessionHello.
	sd := lookup["session-data"]
	if wantSD := sessionFrameAppend(nil, 1, 7, 3, barrierMessage(9)); !bytes.Equal(sd, wantSD) {
		t.Fatalf("session-data = %x, want %x", sd, wantSD)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() { a.Write(lookup["session-hello"]) }()
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	rank, token, lastRecv, err := readSessionHello(b)
	if err != nil || rank != 1 || token != 0x1122334455667788 || lastRecv != 42 {
		t.Fatalf("session-hello = (%d, %#x, %d, %v)", rank, token, lastRecv, err)
	}
}
