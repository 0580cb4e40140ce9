package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"graphword2vec/internal/xrand"
)

func TestNewShapesAndZero(t *testing.T) {
	m := New(10, 8)
	if m.VocabSize() != 10 || m.Dim != 8 {
		t.Fatalf("shape = %d×%d", m.VocabSize(), m.Dim)
	}
	for _, v := range m.Emb.Data {
		if v != 0 {
			t.Fatal("Emb not zeroed")
		}
	}
	if m.MemoryBytes() != 10*8*4*2 {
		t.Errorf("MemoryBytes = %d", m.MemoryBytes())
	}
	if m.BytesPerWord() != 8*4*2 {
		t.Errorf("BytesPerWord = %d", m.BytesPerWord())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, c := range [][2]int{{0, 5}, {5, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c[0], c[1])
				}
			}()
			New(c[0], c[1])
		}()
	}
}

func TestInitRandomDeterministicAndBounded(t *testing.T) {
	a := New(100, 16)
	b := New(100, 16)
	a.InitRandom(42)
	b.InitRandom(42)
	for i := range a.Emb.Data {
		if a.Emb.Data[i] != b.Emb.Data[i] {
			t.Fatal("same seed produced different init")
		}
	}
	bound := 0.5 / 16.0
	for _, v := range a.Emb.Data {
		if float64(v) < -bound || float64(v) >= bound {
			t.Fatalf("init value %v outside [-0.5/dim, 0.5/dim)", v)
		}
	}
	for _, v := range a.Ctx.Data {
		if v != 0 {
			t.Fatal("Ctx layer must start at zero")
		}
	}
	c := New(100, 16)
	c.InitRandom(43)
	same := 0
	for i := range a.Emb.Data {
		if a.Emb.Data[i] == c.Emb.Data[i] {
			same++
		}
	}
	if same > len(a.Emb.Data)/10 {
		t.Errorf("different seeds produced %d/%d identical values", same, len(a.Emb.Data))
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	m := New(5, 4)
	m.InitRandom(1)
	c := m.Clone()
	c.EmbRow(0)[0] = 999
	if m.EmbRow(0)[0] == 999 {
		t.Fatal("Clone shares storage")
	}
	m2 := New(5, 4)
	m2.CopyFrom(m)
	for i := range m.Emb.Data {
		if m2.Emb.Data[i] != m.Emb.Data[i] {
			t.Fatal("CopyFrom mismatch")
		}
	}
}

func TestRowViews(t *testing.T) {
	m := New(3, 2)
	m.EmbRow(1)[1] = 7
	if m.Emb.Data[3] != 7 {
		t.Fatal("EmbRow not a view")
	}
	m.CtxRow(2)[0] = 5
	if m.Ctx.Data[4] != 5 {
		t.Fatal("CtxRow not a view")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := New(37, 13)
	m.InitRandom(99)
	m.Ctx.Data[5] = -3.25
	m.Emb.Data[0] = float32(math.Inf(1)) // must survive bit-exactly

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := loadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.VocabSize() != m.VocabSize() || got.Dim != m.Dim {
		t.Fatalf("shape mismatch after load")
	}
	for i := range m.Emb.Data {
		if math.Float32bits(got.Emb.Data[i]) != math.Float32bits(m.Emb.Data[i]) {
			t.Fatalf("Emb[%d] differs", i)
		}
	}
	for i := range m.Ctx.Data {
		if math.Float32bits(got.Ctx.Data[i]) != math.Float32bits(m.Ctx.Data[i]) {
			t.Fatalf("Ctx[%d] differs", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.bin")
	m := New(4, 3)
	m.InitRandom(7)
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Emb.Data[5] != m.Emb.Data[5] {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________________"),
		append([]byte(magic), make([]byte, 8)...), // truncated header
	}
	for i, c := range cases {
		if _, err := loadBytes(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestLoadRejectsBadHeader(t *testing.T) {
	m := New(2, 2)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the version field (bytes 8..16 little-endian).
	data[8] = 0xFF
	if _, err := loadBytes(data); err == nil {
		t.Error("bad version accepted")
	}
}

// loadBytes loads a model from an in-memory encoding.
func loadBytes(data []byte) (*Model, error) {
	return Load(bytes.NewReader(data), int64(len(data)))
}

// header encodes a bare model header: magic, version, vocab, dim.
func header(ver, vocab, dim uint64) []byte {
	h := []byte(magic)
	for _, v := range []uint64{ver, vocab, dim} {
		h = binary.LittleEndian.AppendUint64(h, v)
	}
	return h
}

// TestLoadRejectsHeaderPastInput: a header whose implied length the
// input does not hold is rejected by name before anything is allocated
// — a 32-byte file claiming 2^20×2^12 (32 GiB of floats) or 2^31×2^20
// (past any slice length) must not exhaust memory or panic, from bytes
// or from a file. Input longer than the header implies is rejected too.
func TestLoadRejectsHeaderPastInput(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := New(2, 3).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"vocab 2^20 dim 2^12", header(version, 1<<20, 1<<12), ErrTruncated},
		{"vocab 2^31 dim 2^20", header(version, 1<<31, 1<<20), ErrTruncated},
		{"truncated 2x3", valid()[:headerLen+5], ErrTruncated},
		{"short header", valid()[:headerLen-1], ErrTruncated},
		{"trailing byte", append(valid(), 0), ErrTrailingBytes},
		{"bad magic", append([]byte("NOTMAGIC"), valid()[len(magic):]...), ErrFormat},
	}
	dir := t.TempDir()
	for i, tc := range cases {
		if _, err := loadBytes(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: Load = %v, want %v", tc.name, err, tc.want)
		}
		path := filepath.Join(dir, fmt.Sprintf("case%d.bin", i))
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); !errors.Is(err, tc.want) {
			t.Errorf("%s: LoadFile = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestSaveLoadProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		vs := 1 + r.Intn(20)
		dim := 1 + r.Intn(20)
		m := New(vs, dim)
		for i := range m.Emb.Data {
			m.Emb.Data[i] = float32(r.NormFloat64())
			m.Ctx.Data[i] = float32(r.NormFloat64())
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return false
		}
		got, err := loadBytes(buf.Bytes())
		if err != nil {
			return false
		}
		for i := range m.Emb.Data {
			if got.Emb.Data[i] != m.Emb.Data[i] || got.Ctx.Data[i] != m.Ctx.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSaveLoad(b *testing.B) {
	m := New(5000, 100)
	m.InitRandom(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := loadBytes(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}
