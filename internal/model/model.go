// Package model holds the Word2Vec Skip-Gram model state: one embedding
// ("hidden layer") vector and one training ("output layer") vector per
// vocabulary word, exactly the two node labels of the GraphWord2Vec graph
// (paper §4.2: "Each node in the graph has 2 labels: (1) embedding vector
// for the first (or hidden) layer of the model and (2) training vector for
// the second (or output) layer").
package model

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"graphword2vec/internal/vecmath"
	"graphword2vec/internal/xrand"
)

// Model is the full two-layer SGNS model.
type Model struct {
	// Dim is the embedding dimensionality (the paper uses 200).
	Dim int
	// Emb is the per-word embedding matrix (input layer), V×Dim.
	Emb *vecmath.Matrix
	// Ctx is the per-word training matrix (output layer), V×Dim.
	Ctx *vecmath.Matrix
}

// New allocates a model for vocabSize words with the given dimensionality.
// Both layers are zero; call InitRandom before training (word2vec.c
// initialises the input layer uniformly in [-0.5/dim, 0.5/dim) and leaves
// the output layer at zero).
func New(vocabSize, dim int) *Model {
	if vocabSize <= 0 || dim <= 0 {
		panic("model: vocabSize and dim must be positive")
	}
	return &Model{
		Dim: dim,
		Emb: vecmath.NewMatrix(vocabSize, dim),
		Ctx: vecmath.NewMatrix(vocabSize, dim),
	}
}

// VocabSize returns the number of words (rows).
func (m *Model) VocabSize() int { return m.Emb.Rows }

// InitRandom initialises the embedding layer with the word2vec.c
// distribution and zeroes the training layer. The same seed always
// produces the same initial model, which is what lets every simulated host
// start from an identical replica (paper §4.2: each host stores the entire
// model).
func (m *Model) InitRandom(seed uint64) {
	r := xrand.New(seed)
	inv := 1 / float32(m.Dim)
	for i := range m.Emb.Data {
		m.Emb.Data[i] = (r.Float32() - 0.5) * inv
	}
	vecmath.Zero(m.Ctx.Data)
}

// Clone returns a deep copy.
func (m *Model) Clone() *Model {
	return &Model{Dim: m.Dim, Emb: m.Emb.Clone(), Ctx: m.Ctx.Clone()}
}

// CopyFrom overwrites m with src. Shapes must match.
func (m *Model) CopyFrom(src *Model) {
	m.Emb.CopyFrom(src.Emb)
	m.Ctx.CopyFrom(src.Ctx)
}

// EmbRow returns word id's embedding vector (a view).
func (m *Model) EmbRow(id int32) []float32 { return m.Emb.Row(int(id)) }

// CtxRow returns word id's training vector (a view).
func (m *Model) CtxRow(id int32) []float32 { return m.Ctx.Row(int(id)) }

// MemoryBytes returns the model's in-memory footprint.
func (m *Model) MemoryBytes() int64 { return m.Emb.MemoryBytes() + m.Ctx.MemoryBytes() }

// BytesPerWord returns the synchronisation payload size of one node's
// labels: both vectors, 4 bytes per float32. This is the unit the Gluon
// substrate's communication accounting uses.
func (m *Model) BytesPerWord() int64 { return int64(m.Dim) * 4 * 2 }

const (
	magic   = "GW2VMODL"
	version = 1
	// headerLen is the magic plus three uint64 fields: version, vocab
	// size and dimension.
	headerLen = len(magic) + 3*8
)

// Load rejects input by one of these names, never by a panic or an
// allocation its header alone asked for.
var (
	// ErrFormat marks input that is not a version-1 GW2V model: wrong
	// magic, another version, or an implausible shape.
	ErrFormat = errors.New("model: not a GW2V model file")
	// ErrTruncated marks input shorter than its header implies.
	ErrTruncated = errors.New("model: truncated model file")
	// ErrTrailingBytes marks input longer than its header implies.
	ErrTrailingBytes = errors.New("model: trailing bytes after model")
)

// encodedSize is the byte length of a saved vocab×dim model.
func encodedSize(vocab, dim uint64) uint64 { return uint64(headerLen) + 2*4*vocab*dim }

// Save writes the model in a compact little-endian binary format.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	hdr := []uint64{version, uint64(m.VocabSize()), uint64(m.Dim)}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("model: save header: %w", err)
		}
	}
	for _, mat := range []*vecmath.Matrix{m.Emb, m.Ctx} {
		if err := writeFloats(bw, mat.Data); err != nil {
			return fmt.Errorf("model: save matrix: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("model: save flush: %w", err)
	}
	return nil
}

// Load reads a model written by Save from r, which holds exactly size
// bytes. The header's implied length is checked against size before
// anything is allocated, so a damaged or hostile header is rejected as
// ErrTruncated or ErrTrailingBytes instead of exhausting memory.
func Load(r io.Reader, size int64) (*Model, error) {
	if size < int64(headerLen) {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", ErrTruncated, size, headerLen)
	}
	br := bufio.NewReaderSize(r, 1<<20)
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, readErr("header", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, ErrFormat
	}
	ver := binary.LittleEndian.Uint64(hdr[len(magic):])
	vs := binary.LittleEndian.Uint64(hdr[len(magic)+8:])
	dim := binary.LittleEndian.Uint64(hdr[len(magic)+16:])
	if ver != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, ver)
	}
	if vs == 0 || dim == 0 || vs > 1<<31 || dim > 1<<20 {
		return nil, fmt.Errorf("%w: implausible header vocab=%d dim=%d", ErrFormat, vs, dim)
	}
	want := encodedSize(vs, dim)
	if uint64(size) < want {
		return nil, fmt.Errorf("%w: %d bytes, header vocab=%d dim=%d implies %d", ErrTruncated, size, vs, dim, want)
	}
	if uint64(size) > want {
		return nil, fmt.Errorf("%w: %d bytes past the %d the header implies", ErrTrailingBytes, uint64(size)-want, want)
	}
	m := New(int(vs), int(dim))
	for _, mat := range []*vecmath.Matrix{m.Emb, m.Ctx} {
		if err := readFloats(br, mat.Data); err != nil {
			return nil, readErr("matrix", err)
		}
	}
	return m, nil
}

// readErr names a failed read of part what: running out of input is
// ErrTruncated (r held less than the size Load was told), anything else
// an I/O error.
func readErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s ends early", ErrTruncated, what)
	}
	return fmt.Errorf("model: load %s: %w", what, err)
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return Load(f, st.Size())
}

func writeFloats(w io.Writer, data []float32) error {
	buf := make([]byte, 4*4096)
	for off := 0; off < len(data); off += 4096 {
		end := off + 4096
		if end > len(data) {
			end = len(data)
		}
		n := 0
		for _, v := range data[off:end] {
			binary.LittleEndian.PutUint32(buf[n:], math.Float32bits(v))
			n += 4
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

func readFloats(r io.Reader, data []float32) error {
	buf := make([]byte, 4*4096)
	for off := 0; off < len(data); off += 4096 {
		end := off + 4096
		if end > len(data) {
			end = len(data)
		}
		n := (end - off) * 4
		if _, err := io.ReadFull(r, buf[:n]); err != nil {
			return err
		}
		for i := off; i < end; i++ {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[(i-off)*4:]))
		}
	}
	return nil
}
