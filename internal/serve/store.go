package serve

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"graphword2vec/internal/index"
	"graphword2vec/internal/model"
	"graphword2vec/internal/vocab"
)

// Snapshot is one immutable, fully indexed model version: the raw
// model, its vocabulary, the normalized query index, and (optionally)
// the HNSW approximate index. A snapshot is never mutated after
// LoadSnapshot returns — hot reload builds a complete replacement and
// swaps an atomic pointer, so every structure here is safe for
// unsynchronised concurrent readers (DESIGN.md §9).
type Snapshot struct {
	// ID identifies the snapshot: the FNV-64a hash of the model file
	// and vocabulary sidecar bytes, in hex. Equal content ⇒ equal id,
	// so a rewrite with identical bytes is not a new snapshot.
	ID string
	// ModelPath is the file the snapshot was loaded from ("" when
	// constructed in memory).
	ModelPath string
	Model     *model.Model
	Vocab     *vocab.Vocabulary
	Norm      *index.Normalized
	// ANN is the approximate index, nil when the store is exact-only.
	ANN *index.HNSW
	// LoadedAt is when the snapshot became current.
	LoadedAt time.Time
	// BuildTime is how long index construction took.
	BuildTime time.Duration

	mtime time.Time
	size  int64
}

// StoreConfig configures snapshot loading.
type StoreConfig struct {
	// BuildANN builds the HNSW index on load; false serves exact-only.
	BuildANN bool
	// HNSW are the index build parameters (zero value = defaults).
	HNSW index.HNSWConfig
}

// LoadSnapshot reads a model (and its .vocab sidecar) from disk and
// builds the query indexes. A torn read — the training cluster mid-way
// through publishing a new snapshot — surfaces as a parse or size
// mismatch error; the caller (the store's poller) keeps the current
// snapshot and retries on the next tick.
func LoadSnapshot(modelPath string, cfg StoreConfig) (*Snapshot, error) {
	st, err := os.Stat(modelPath)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	modelBytes, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	vocabBytes, err := os.ReadFile(modelPath + ".vocab")
	if err != nil {
		return nil, fmt.Errorf("serve: vocabulary sidecar: %w", err)
	}

	h := fnv.New64a()
	h.Write(modelBytes)
	h.Write([]byte{0})
	h.Write(vocabBytes)
	id := fmt.Sprintf("%016x", h.Sum64())

	m, err := model.Load(bytes.NewReader(modelBytes), int64(len(modelBytes)))
	if err != nil {
		return nil, err
	}
	voc, err := vocab.ReadCounts(bytes.NewReader(vocabBytes), vocab.Options{MinCount: 1})
	if err != nil {
		return nil, err
	}
	if voc.Size() != m.VocabSize() {
		return nil, fmt.Errorf("serve: vocabulary has %d words but model has %d rows", voc.Size(), m.VocabSize())
	}
	snap := NewSnapshot(id, m, voc, cfg)
	snap.ModelPath = modelPath
	snap.mtime, snap.size = st.ModTime(), st.Size()
	return snap, nil
}

// NewSnapshot builds the query indexes over an in-memory model — the
// path tests use; LoadSnapshot routes through it too.
func NewSnapshot(id string, m *model.Model, voc *vocab.Vocabulary, cfg StoreConfig) *Snapshot {
	start := time.Now()
	snap := &Snapshot{
		ID:    id,
		Model: m,
		Vocab: voc,
		Norm:  index.NewNormalized(m),
	}
	if cfg.BuildANN {
		snap.ANN = index.BuildHNSW(snap.Norm, cfg.HNSW)
	}
	snap.BuildTime = time.Since(start)
	snap.LoadedAt = time.Now()
	return snap
}

// IndexName returns the scorer the snapshot answers with by default.
func (s *Snapshot) IndexName() string {
	if s.ANN != nil {
		return "hnsw"
	}
	return "exact"
}

// Store holds the current snapshot behind an atomic pointer and hot
// swaps it when the model file changes on disk. Readers call Current
// once per request and keep that pointer for the request's lifetime:
// in-flight requests finish on the snapshot they started with, new
// requests see the new one, and the old snapshot is garbage collected
// when the last in-flight request drops it. There are no locks on the
// read path and readers are never stalled by a reload (the MVPipe
// principle: updates are prepared off to the side and installed
// in-place).
type Store struct {
	cur  atomic.Pointer[Snapshot]
	cfg  StoreConfig
	path string

	// OnSwap, when set before StartPolling, observes every successful
	// swap (logging, metrics).
	OnSwap func(old, new *Snapshot)
	// OnError, when set before StartPolling, observes failed reload
	// attempts (the store keeps serving the current snapshot).
	OnError func(error)

	pollMu   sync.Mutex
	reloadMu sync.Mutex
	stop     chan struct{}
	done     chan struct{}
	swapped  atomic.Uint64
	failures atomic.Uint64
}

// NewStore wraps an already-loaded snapshot. path may be empty for
// purely in-memory stores (tests, benchmarks); polling then has
// nothing to watch and StartPolling is a no-op.
func NewStore(snap *Snapshot, cfg StoreConfig) *Store {
	st := &Store{cfg: cfg, path: snap.ModelPath}
	st.cur.Store(snap)
	return st
}

// OpenStore loads the snapshot at modelPath and wraps it.
func OpenStore(modelPath string, cfg StoreConfig) (*Store, error) {
	snap, err := LoadSnapshot(modelPath, cfg)
	if err != nil {
		return nil, err
	}
	return NewStore(snap, cfg), nil
}

// Current returns the live snapshot. The result is immutable; callers
// use it for at most one request.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// Swaps returns how many hot swaps have been installed.
func (s *Store) Swaps() uint64 { return s.swapped.Load() }

// TryReload checks the model file and swaps in a new snapshot when its
// content changed. It reports whether a swap happened. The mtime/size
// pair is the cheap first-level check (no hashing on an idle tick);
// the content hash is the authoritative second level, so a rewrite
// with identical bytes — or a touch(1) — swaps nothing.
func (s *Store) TryReload() (bool, error) {
	if s.path == "" {
		return false, nil
	}
	// Serialise reloads: the poller goroutine and any direct caller
	// (tests, an admin endpoint) must not race on the stat cache below.
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cur := s.Current()
	st, err := os.Stat(s.path)
	if err != nil {
		s.failures.Add(1)
		return false, err
	}
	if st.ModTime().Equal(cur.mtime) && st.Size() == cur.size {
		return false, nil
	}
	next, err := LoadSnapshot(s.path, s.cfg)
	if err != nil {
		s.failures.Add(1)
		return false, err
	}
	if next.ID == cur.ID {
		// Same content, new stat — remember the stat so the next tick
		// is cheap again. cur is shared with readers, but these two
		// fields are only ever read by TryReload itself, which callers
		// serialise (the poller is a single goroutine).
		cur.mtime, cur.size = next.mtime, next.size
		return false, nil
	}
	s.cur.Store(next)
	s.swapped.Add(1)
	if s.OnSwap != nil {
		s.OnSwap(cur, next)
	}
	return true, nil
}

// StartPolling launches the reload poller at the given interval. The
// poller is the store's only writer; stop it with Close.
func (s *Store) StartPolling(interval time.Duration) {
	if s.path == "" || interval <= 0 {
		return
	}
	s.pollMu.Lock()
	defer s.pollMu.Unlock()
	if s.stop != nil {
		return // already polling
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if _, err := s.TryReload(); err != nil && s.OnError != nil {
					s.OnError(err)
				}
			}
		}
	}(s.stop, s.done)
}

// Close stops the poller (idempotent).
func (s *Store) Close() {
	s.pollMu.Lock()
	defer s.pollMu.Unlock()
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop, s.done = nil, nil
}
