package gluon

import (
	"errors"
	"testing"
	"time"

	"graphword2vec/internal/bitset"
)

// testVectorFrame builds a vector frame the way a RepModel host would,
// for tests that hand-craft protocol traffic.
func testVectorFrame(kind byte, round uint32, dim int, nodes []int32, vecAt func(int32, []float32)) []byte {
	if vecAt == nil {
		vecAt = func(int32, []float32) {}
	}
	return encodeVectorFrame(kind, round, frameFlags(kind, RepModelOpt), dim, nodes, nil, vecAt)
}

func TestVectorFrameRoundTrip(t *testing.T) {
	dim := 3
	nodes := []int32{2, 5, 9}
	vals := map[int32][]float32{
		2: {0, 0, 0, 0, 0, 0},    // zero delta: both halves suppressed
		5: {1, 2, 3, 4, 5, 6},    // dense
		9: {-1, 0.5, 7, 0, 0, 0}, // training half suppressed
	}
	msg := encodeVectorFrame(kindReduce, 42, wireVarint|wireHalves, dim, nodes, nil, func(n int32, dst []float32) {
		copy(dst, vals[n])
	})
	kind, round, count, err := parseHeader(msg)
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindReduce || round != 42 || count != 3 {
		t.Fatalf("header = (%d, %d, %d)", kind, round, count)
	}
	var gotNodes []int32
	err = decodeVectorFrame(msg, dim, wireVarint|wireHalves, func(n int32, half byte, vec []float32) error {
		gotNodes = append(gotNodes, n)
		want := vals[n]
		for i := range vec {
			if vec[i] != want[i] {
				t.Fatalf("node %d vec = %v, want %v", n, vec, want)
			}
		}
		wantHalf := nonzeroHalves(want, dim)
		if half != wantHalf {
			t.Fatalf("node %d half mask = %#x, want %#x", n, half, wantHalf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotNodes) != 3 || gotNodes[0] != 2 || gotNodes[1] != 5 || gotNodes[2] != 9 {
		t.Fatalf("nodes = %v", gotNodes)
	}
}

func TestVectorFrameEmpty(t *testing.T) {
	msg := testVectorFrame(kindBroadcast, 7, 4, nil, nil)
	if len(msg) != headerBytes+1 {
		t.Fatalf("empty message length = %d", len(msg))
	}
	n := 0
	if err := decodeVectorFrame(msg, 4, frameFlags(kindBroadcast, RepModelOpt), func(int32, byte, []float32) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("entries decoded from empty message")
	}
}

func TestDecodeVectorFrameRejectsCorrupt(t *testing.T) {
	if err := decodeVectorFrame([]byte{1, 2}, 4, 0, nil); err == nil {
		t.Error("short message accepted")
	}
	// Header only, no flag byte.
	msg := make([]byte, headerBytes)
	putHeader(msg, kindReduce, 1, 0)
	if err := decodeVectorFrame(msg, 4, 0, nil); err == nil {
		t.Error("frame without flag byte accepted")
	}
	// Valid header claiming 2 entries but truncated body.
	msg = make([]byte, headerBytes+3)
	putHeader(msg, kindReduce, 1, 2)
	if err := decodeVectorFrame(msg, 4, 0, nil); err == nil {
		t.Error("truncated message accepted")
	}
}

// bitsetOf returns an n-node bitset with exactly the given nodes set.
func bitsetOf(n int, nodes ...int) *bitset.Bitset {
	b := bitset.New(n)
	for _, i := range nodes {
		b.Set(i)
	}
	return b
}

func TestAccessMessageRoundTrip(t *testing.T) {
	msg := appendAccessMessage(nil, 3, 10, 25, bitsetOf(25, 10, 13, 24))
	kind, round, _, err := parseHeader(msg)
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindAccess || round != 3 {
		t.Fatalf("header = (%d, %d)", kind, round)
	}
	got := bitset.New(25)
	if err := parseAccessInto(msg, got); err != nil {
		t.Fatal(err)
	}
	if got.Count() != 3 || !got.Get(10) || !got.Get(13) || !got.Get(24) {
		t.Fatalf("access nodes = %v", got.AppendRange(nil, 0, 25))
	}
}

func TestAccessMessageEmptyRange(t *testing.T) {
	msg := appendAccessMessage(nil, 0, 5, 5, allNodesBitset(8))
	got := bitset.New(8)
	if err := parseAccessInto(msg, got); err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 {
		t.Fatal("entries from empty range")
	}
}

func TestParseAccessMessageRejectsCorrupt(t *testing.T) {
	acc := bitset.New(64)
	if err := parseAccessInto([]byte{1}, acc); err == nil {
		t.Error("short access message accepted")
	}
	msg := appendAccessMessage(nil, 0, 0, 64, allNodesBitset(64))
	if err := parseAccessInto(msg[:len(msg)-2], acc); err == nil {
		t.Error("truncated access bitmap accepted")
	}
	if err := parseAccessInto(msg, bitset.New(63)); err == nil {
		t.Error("access range past the node count accepted")
	}
}

func TestCostModel(t *testing.T) {
	cm := CostModel{BandwidthBytesPerSec: 1000, LatencySec: 0.01}
	if got := cm.CommSeconds(2000, 5); got != 2.05 {
		t.Errorf("CommSeconds = %v, want 2.05", got)
	}
	if cm.CommDuration(1000, 0).Seconds() != 1 {
		t.Error("CommDuration wrong")
	}
	zero := CostModel{}
	if zero.CommSeconds(1e9, 1e6) != 0 {
		t.Error("zero-bandwidth model should return 0")
	}
	def := DefaultCostModel()
	if def.BandwidthBytesPerSec != 7e9 {
		t.Errorf("default bandwidth = %v, want 7e9 (56 Gb/s)", def.BandwidthBytesPerSec)
	}
}

func TestModeString(t *testing.T) {
	if RepModelNaive.String() != "RepModel-Naive" ||
		RepModelOpt.String() != "RepModel-Opt" ||
		PullModel.String() != "PullModel" {
		t.Error("mode names wrong")
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode has empty string")
	}
	for _, s := range []string{"RepModel-Naive", "RepModel-Opt", "PullModel", "naive", "opt", "pull"} {
		if _, err := ParseMode(s); err != nil {
			t.Errorf("ParseMode(%q): %v", s, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
}

// TestUndefinedFrameKindRejected: a frame whose kind byte the current
// protocol does not define — 0, the retired resume kind 7 or the
// retired touched kind 10 — fails the receive with ErrFrameKind in
// every mode, instead of parking in the pending queue under a key
// nobody pops.
func TestUndefinedFrameKindRejected(t *testing.T) {
	for _, mode := range []Mode{RepModelNaive, RepModelOpt, PullModel} {
		for _, kind := range []byte{0, kindRetired, kindRetiredTouched} {
			c := newCluster(t, 2, 8, 2, mode, "SUM")
			frame := make([]byte, headerBytes)
			putHeader(frame, kind, 0, 0)
			if err := c.tr.Send(1, 0, frame); err != nil {
				t.Fatal(err)
			}
			_, _, err := c.syncs[0].nextMessage(kindBarrier, 1)
			if !errors.Is(err, ErrFrameKind) {
				t.Fatalf("%v, kind %d: nextMessage error %v, want ErrFrameKind", mode, kind, err)
			}
			if n := c.syncs[0].pendingCount(); n != 0 {
				t.Fatalf("%v, kind %d: %d pending keys buffered, want 0", mode, kind, n)
			}
		}
	}
}

// CommDuration is CommSeconds as a time.Duration.
func (c CostModel) CommDuration(bytes, messages int64) time.Duration {
	return time.Duration(c.CommSeconds(bytes, messages) * float64(time.Second))
}
