// Package checkpoint persists consistent snapshots of one host's
// training state at BSP round boundaries, so a killed cluster can
// resume and finish with a model byte-identical to an uninterrupted
// run (DESIGN.md §10 gives the consistency argument for why round
// boundaries are the only safe cut).
//
// A snapshot is a single self-validating file: a fixed header (format
// version, the run's config checksum, rank/shape metadata), the raw
// per-thread generator states, the training counters, both model
// replicas (working and base — under PullModel the two can legally
// differ at a round boundary), and a trailing SHA-256 over everything
// before it. Writes are atomic (temp file + rename) and rotate the
// previous snapshot aside, so a crash while checkpointing can never
// destroy the last good state: a torn, truncated or bit-flipped file
// is rejected by hash at load time and the previous snapshot is used
// instead (see Store).
package checkpoint

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"graphword2vec/internal/model"
	"graphword2vec/internal/sgns"
)

const (
	magic = "GW2VCKPT"
	// Version is the snapshot format version. Bump it on any layout
	// change; Load rejects other versions with ErrVersion so a stale
	// binary cannot misparse a newer snapshot (or vice versa).
	Version = 1
)

// Distinct load failures, so the corruption test suite (and operators)
// can tell how a snapshot died. All are wrapped with file context;
// match with errors.Is.
var (
	// ErrNotSnapshot means the file does not start with the snapshot
	// magic — it is some other file, not a damaged snapshot.
	ErrNotSnapshot = errors.New("checkpoint: not a snapshot file")
	// ErrVersion means the snapshot was written by a different format
	// version of this package.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
	// ErrTruncated means the file ends before the length its own
	// header implies — the classic torn write.
	ErrTruncated = errors.New("checkpoint: truncated snapshot")
	// ErrCorrupt means the trailing SHA-256 does not match the
	// contents — a bit flip or partial overwrite.
	ErrCorrupt = errors.New("checkpoint: content hash mismatch")
	// ErrConfigMismatch means the snapshot is internally valid but was
	// written by a run with a different core.Config.Checksum — resuming
	// from it would silently train a divergent model.
	ErrConfigMismatch = errors.New("checkpoint: config checksum mismatch")
)

// Snapshot is one host's complete training state at a round boundary:
// everything Engine.Restore needs to continue bit-identically. The
// model fields may alias live engine buffers — Save serializes them
// synchronously and retains nothing.
type Snapshot struct {
	// Checksum is the run's core.Config.Checksum; Load verifies it so
	// a resume with different flags or data fails loudly.
	Checksum uint64
	// Rank and Hosts identify the snapshot's place in the cluster.
	Rank, Hosts int
	// NextRound is the first global sync round still to execute
	// (epoch*SyncRounds + round).
	NextRound uint32
	// Local is the working replica, Base the replica state as of the
	// last synchronisation. They agree in the RepModel schemes but can
	// differ under PullModel, so both are stored.
	Local, Base *model.Model
	// RNG holds the per-thread xoshiro256** states.
	RNG [][4]uint64
	// EpochStats are the partial counters of the epoch in progress;
	// TotalStats the accumulated counters of fully finished epochs.
	EpochStats, TotalStats sgns.Stats
}

// headerLen is the fixed-size prefix: magic, version, config checksum,
// then rank, hosts, nextRound, threads, vocab, dim as uint32.
const headerLen = len(magic) + 4 + 8 + 6*4

const statsLen = 5 * 8

// hashLen is the size of the trailing SHA-256.
const hashLen = sha256.Size

// encodedSize returns the exact file size the snapshot serializes to.
func encodedSize(threads, vocab, dim uint64) uint64 {
	return uint64(headerLen) + threads*32 + 2*statsLen + 4*(4*vocab*dim) + hashLen
}

// Save writes the snapshot to path atomically: the bytes land in
// path.tmp first and are renamed over path only after a successful
// flush and fsync, so a crash mid-write leaves any previous file at
// path untouched.
func Save(path string, s *Snapshot) error {
	if s.Local == nil || s.Base == nil {
		return errors.New("checkpoint: snapshot needs both model replicas")
	}
	if s.Local.VocabSize() != s.Base.VocabSize() || s.Local.Dim != s.Base.Dim {
		return errors.New("checkpoint: local and base replica shapes differ")
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := writeSnapshot(f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// writeSnapshot streams the snapshot body plus trailing hash to w.
func writeSnapshot(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	h := sha256.New()
	hw := io.MultiWriter(bw, h)

	hdr := make([]byte, headerLen)
	off := copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[off:], Version)
	binary.LittleEndian.PutUint64(hdr[off+4:], s.Checksum)
	for i, v := range []uint32{
		uint32(s.Rank), uint32(s.Hosts), s.NextRound,
		uint32(len(s.RNG)), uint32(s.Local.VocabSize()), uint32(s.Local.Dim),
	} {
		binary.LittleEndian.PutUint32(hdr[off+12+4*i:], v)
	}
	if _, err := hw.Write(hdr); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}

	var u64 [8]byte
	putU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := hw.Write(u64[:])
		return err
	}
	for _, st := range s.RNG {
		for _, w := range st {
			if err := putU64(w); err != nil {
				return fmt.Errorf("checkpoint: write rng: %w", err)
			}
		}
	}
	for _, st := range []sgns.Stats{s.EpochStats, s.TotalStats} {
		for _, v := range []uint64{
			uint64(st.TokensSeen), uint64(st.TokensKept), uint64(st.Pairs),
			math.Float64bits(st.LossSum), uint64(st.LossEdges),
		} {
			if err := putU64(v); err != nil {
				return fmt.Errorf("checkpoint: write stats: %w", err)
			}
		}
	}
	for _, m := range []*model.Model{s.Local, s.Base} {
		for _, data := range [][]float32{m.Emb.Data, m.Ctx.Data} {
			if err := writeFloats(hw, data); err != nil {
				return fmt.Errorf("checkpoint: write model: %w", err)
			}
		}
	}
	if _, err := bw.Write(h.Sum(nil)); err != nil {
		return fmt.Errorf("checkpoint: write hash: %w", err)
	}
	return bw.Flush()
}

// Load reads and validates a snapshot written by Save, returning a
// distinct error for each failure class (see the Err variables).
// The caller still owns the config-checksum check: compare
// Snapshot.Checksum, or use ScanDir which does it.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return parse(path, data)
}

// parse validates and decodes the bytes of a snapshot file; name labels
// its errors. Every accepted input re-encodes (writeSnapshot) to the
// same bytes.
func parse(name string, data []byte) (*Snapshot, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		if len(data) == 0 {
			return nil, fmt.Errorf("%w: %s is empty", ErrTruncated, name)
		}
		return nil, fmt.Errorf("%w: %s", ErrNotSnapshot, name)
	}
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %s has only %d header bytes", ErrTruncated, name, len(data))
	}
	off := len(magic)
	if v := binary.LittleEndian.Uint32(data[off:]); v != Version {
		return nil, fmt.Errorf("%w: %s is version %d, want %d", ErrVersion, name, v, Version)
	}
	s := &Snapshot{Checksum: binary.LittleEndian.Uint64(data[off+4:])}
	var rank, hosts, threads, vocab, dim uint32
	for i, p := range []*uint32{&rank, &hosts, &s.NextRound, &threads, &vocab, &dim} {
		*p = binary.LittleEndian.Uint32(data[off+12+4*i:])
	}
	// The shape bound comes first: it keeps encodedSize far from
	// wrapping, so a forged header cannot claim a body-less size.
	if vocab == 0 || dim == 0 || vocab > 1<<31 || dim > 1<<20 {
		return nil, fmt.Errorf("%w: %s has implausible shape vocab=%d dim=%d", ErrCorrupt, name, vocab, dim)
	}
	want := encodedSize(uint64(threads), uint64(vocab), uint64(dim))
	if uint64(len(data)) < want {
		return nil, fmt.Errorf("%w: %s is %d bytes, header implies %d", ErrTruncated, name, len(data), want)
	}
	if uint64(len(data)) > want {
		return nil, fmt.Errorf("%w: %s has %d trailing bytes", ErrCorrupt, name, uint64(len(data))-want)
	}
	body := data[:len(data)-hashLen]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(data[len(body):]) {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, name)
	}
	s.Rank, s.Hosts = int(rank), int(hosts)

	p := body[headerLen:]
	s.RNG = make([][4]uint64, threads)
	for i := range s.RNG {
		for j := 0; j < 4; j++ {
			s.RNG[i][j] = binary.LittleEndian.Uint64(p[8*(4*i+j):])
		}
	}
	p = p[threads*32:]
	for _, st := range []*sgns.Stats{&s.EpochStats, &s.TotalStats} {
		st.TokensSeen = int64(binary.LittleEndian.Uint64(p))
		st.TokensKept = int64(binary.LittleEndian.Uint64(p[8:]))
		st.Pairs = int64(binary.LittleEndian.Uint64(p[16:]))
		st.LossSum = math.Float64frombits(binary.LittleEndian.Uint64(p[24:]))
		st.LossEdges = int64(binary.LittleEndian.Uint64(p[32:]))
		p = p[statsLen:]
	}
	s.Local = model.New(int(vocab), int(dim))
	s.Base = model.New(int(vocab), int(dim))
	for _, m := range []*model.Model{s.Local, s.Base} {
		for _, dst := range [][]float32{m.Emb.Data, m.Ctx.Data} {
			for i := range dst {
				dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
			}
			p = p[4*len(dst):]
		}
	}
	return s, nil
}

// writeFloats streams data as little-endian float32 words in chunks.
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

// Store manages the two snapshot generations one rank keeps on disk:
// the current one and, rotated aside on every save, the previous one.
// Keeping two is what makes a torn current file recoverable, and what
// lets a cluster whose ranks crashed at different rounds agree on a
// common restart round (core's membership negotiation, which reads
// every generation back through ScanDir).
type Store struct {
	// Dir is the checkpoint directory; all ranks of one run may share
	// it (file names embed the rank).
	Dir string
	// Rank is this host's id.
	Rank int
}

// NewStore returns the store for one rank. The directory is created on
// first Save.
func NewStore(dir string, rank int) *Store { return &Store{Dir: dir, Rank: rank} }

// Path returns the current snapshot's file name.
func (st *Store) Path() string {
	return filepath.Join(st.Dir, fmt.Sprintf("rank%04d.ckpt", st.Rank))
}

// PrevPath returns the rotated previous snapshot's file name.
func (st *Store) PrevPath() string { return st.Path() + ".prev" }

// Save rotates the current snapshot to PrevPath and writes s to Path
// atomically. A crash between the two renames leaves a valid previous
// snapshot and the fully-written new one at the temp name; ScanDir
// offers the valid previous generation in that window.
func (st *Store) Save(s *Snapshot) error {
	if err := os.MkdirAll(st.Dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Write the new snapshot fully (Save is atomic into a temp name
	// internally) before touching the old generations.
	tmp := st.Path() + ".new"
	if err := Save(tmp, s); err != nil {
		return err
	}
	if _, err := os.Stat(st.Path()); err == nil {
		if err := os.Rename(st.Path(), st.PrevPath()); err != nil {
			return fmt.Errorf("checkpoint: rotate: %w", err)
		}
	}
	if err := os.Rename(tmp, st.Path()); err != nil {
		return fmt.Errorf("checkpoint: install: %w", err)
	}
	return nil
}
