package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/model"
	"graphword2vec/internal/vocab"
)

// writeModelFiles saves a model plus its vocabulary sidecar.
func writeModelFiles(t testing.TB, path string, m *model.Model, voc *vocab.Vocabulary) {
	t.Helper()
	if err := m.SaveFile(path); err != nil {
		t.Fatalf("save model: %v", err)
	}
	if err := cliutil.SaveVocabSidecar(path, voc); err != nil {
		t.Fatalf("save vocab sidecar: %v", err)
	}
}

func diskModel(t testing.TB, dir string, n, dim int, seed uint64) (string, *vocab.Vocabulary) {
	t.Helper()
	path := filepath.Join(dir, "model.bin")
	voc := testVocab(t, n)
	m := model.New(n, dim)
	m.InitRandom(seed)
	writeModelFiles(t, path, m, voc)
	return path, voc
}

func TestLoadSnapshotRoundTrip(t *testing.T) {
	path, voc := diskModel(t, t.TempDir(), 40, 8, 3)
	snap, err := LoadSnapshot(path, StoreConfig{BuildANN: true})
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if snap.Vocab.Size() != voc.Size() || snap.Model.Dim != 8 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.ANN == nil || snap.Norm == nil || snap.ID == "" {
		t.Fatalf("indexes missing: %+v", snap)
	}
	if snap.Vocab.Text(0) != voc.Text(0) {
		t.Fatalf("vocab id order changed across round trip")
	}
}

func TestLoadSnapshotErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadSnapshot(filepath.Join(dir, "missing.bin"), StoreConfig{}); err == nil {
		t.Fatal("missing model should error")
	}
	// Model without sidecar.
	path := filepath.Join(dir, "nosidecar.bin")
	m := model.New(10, 4)
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path, StoreConfig{}); err == nil {
		t.Fatal("missing sidecar should error")
	}
	// Torn model file: truncated mid-matrix must be rejected, not served.
	tornPath, _ := diskModel(t, dir, 40, 8, 3)
	raw, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(tornPath, StoreConfig{}); err == nil {
		t.Fatal("torn model file should error")
	}
	// Sidecar/model size mismatch.
	mmPath, _ := diskModel(t, dir, 40, 8, 3)
	small := testVocab(t, 20)
	if err := cliutil.SaveVocabSidecar(mmPath, small); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(mmPath, StoreConfig{}); err == nil {
		t.Fatal("vocab/model size mismatch should error")
	}
}

// bumpMtime rewrites path with the same or new content and guarantees
// the mtime moves, so TryReload's cheap stat check fires even on
// filesystems with coarse timestamps.
func bumpMtime(t testing.TB, path string) {
	t.Helper()
	future := time.Now().Add(time.Duration(mtimeBumps.Add(1)) * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
}

var mtimeBumps atomic.Int64

// TestReloadIndexEqualsOpenIndex: a hot reload builds its HNSW on one
// worker fewer than a store open, and equal model bytes must still give
// equal indexes (DESIGN.md §9). GOMAXPROCS is raised to at least 3 so
// both paths build concurrently, on different worker counts.
func TestReloadIndexEqualsOpenIndex(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(3, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if reloadWorkers() == runtime.GOMAXPROCS(0) {
		t.Fatalf("reload and open both build on %d workers", reloadWorkers())
	}

	dir := t.TempDir()
	path, voc := diskModel(t, dir, 1000, 16, 3)
	cfg := StoreConfig{BuildANN: true}
	store, err := OpenStore(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	m2 := model.New(1000, 16)
	m2.InitRandom(11)
	writeModelFiles(t, path, m2, voc)
	bumpMtime(t, path)
	if swapped, err := store.TryReload(); err != nil || !swapped {
		t.Fatalf("reload: swapped=%v err=%v", swapped, err)
	}
	reloaded := store.Current()

	opened, err := OpenStore(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if got := opened.Current(); got.ID != reloaded.ID || !got.ANN.Equal(reloaded.ANN) {
		t.Fatalf("reloaded snapshot %s and opened snapshot %s of the same bytes have different ANN graphs", reloaded.ID, got.ID)
	}
}

func TestTryReloadSwapsOnContentChange(t *testing.T) {
	dir := t.TempDir()
	path, voc := diskModel(t, dir, 40, 8, 3)
	store, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	first := store.Current()

	// Touch without content change: stat differs, hash equal → no swap.
	bumpMtime(t, path)
	if swapped, err := store.TryReload(); err != nil || swapped {
		t.Fatalf("touch-only reload: swapped=%v err=%v", swapped, err)
	}
	if store.Current() != first {
		t.Fatal("touch-only reload replaced the snapshot")
	}

	// Real content change: new model bytes → swap.
	m2 := model.New(40, 8)
	m2.InitRandom(99)
	writeModelFiles(t, path, m2, voc)
	bumpMtime(t, path)
	swapped, err := store.TryReload()
	if err != nil || !swapped {
		t.Fatalf("content reload: swapped=%v err=%v", swapped, err)
	}
	second := store.Current()
	if second == first || second.ID == first.ID {
		t.Fatal("snapshot not replaced on content change")
	}
	if store.Swaps() != 1 {
		t.Fatalf("Swaps() = %d, want 1", store.Swaps())
	}
}

func TestTryReloadKeepsServingOnTornWrite(t *testing.T) {
	dir := t.TempDir()
	path, voc := diskModel(t, dir, 40, 8, 3)
	store, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	first := store.Current()

	// Simulate a torn write: truncated file on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	bumpMtime(t, path)
	if swapped, err := store.TryReload(); err == nil || swapped {
		t.Fatalf("torn write: swapped=%v err=%v, want error and no swap", swapped, err)
	}
	if store.Current() != first {
		t.Fatal("torn write replaced the live snapshot")
	}

	// Publisher finishes the write: next tick picks it up.
	m2 := model.New(40, 8)
	m2.InitRandom(77)
	writeModelFiles(t, path, m2, voc)
	bumpMtime(t, path)
	if swapped, err := store.TryReload(); err != nil || !swapped {
		t.Fatalf("completed write: swapped=%v err=%v", swapped, err)
	}
}

// TestHotReloadUnderLoad is the -race lane's core serving test: queries
// hammer the server while snapshots swap underneath. Every response
// must be internally consistent (a snapshot id the store actually
// served) and the server must never error.
func TestHotReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	path, voc := diskModel(t, dir, 60, 8, 1)
	store, err := OpenStore(path, StoreConfig{BuildANN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, Config{})
	defer srv.Close()

	ids := map[string]bool{store.Current().ID: true}
	var idsMu sync.Mutex

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for seed := uint64(2); ; seed++ {
			select {
			case <-stop:
				return
			default:
			}
			m := model.New(60, 8)
			m.InitRandom(seed)
			writeModelFiles(t, path, m, voc)
			bumpMtime(t, path)
			if swapped, err := store.TryReload(); err != nil {
				t.Errorf("reload: %v", err)
				return
			} else if swapped {
				idsMu.Lock()
				ids[store.Current().ID] = true
				idsMu.Unlock()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				word := voc.Text(int32((g*13 + i) % 60))
				w := do(t, srv, http.MethodPost, "/v1/neighbors", NeighborsRequest{Word: word, K: 5})
				if w.Code != http.StatusOK {
					t.Errorf("reader %d query %d: status %d body %q", g, i, w.Code, w.Body.String())
					return
				}
				var resp NeighborsResponse
				decodeAs(t, w, &resp)
				idsMu.Lock()
				known := ids[resp.Snapshot]
				idsMu.Unlock()
				if !known {
					t.Errorf("response snapshot %q was never installed", resp.Snapshot)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writers.Wait()

	if store.Swaps() == 0 {
		t.Log("no swap landed during the read window (slow filesystem); swap coverage comes from TestTryReloadSwapsOnContentChange")
	}
}

// TestCacheCorrectAcrossSwap: a query cached under the old snapshot must
// not answer after a swap — the snapshot-id key guarantees a miss and a
// fresh ranking from the new model.
func TestCacheCorrectAcrossSwap(t *testing.T) {
	dir := t.TempDir()
	path, voc := diskModel(t, dir, 50, 8, 5)
	store, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, Config{})
	defer srv.Close()

	req := NeighborsRequest{Word: "w010", K: 5}
	var before NeighborsResponse
	decodeAs(t, do(t, srv, http.MethodPost, "/v1/neighbors", req), &before)
	decodeAs(t, do(t, srv, http.MethodPost, "/v1/neighbors", req), &before) // cache hit
	if srv.cache.Info().Hits != 1 {
		t.Fatalf("expected a warm cache before the swap")
	}

	m2 := model.New(50, 8)
	m2.InitRandom(1234)
	writeModelFiles(t, path, m2, voc)
	bumpMtime(t, path)
	if swapped, err := store.TryReload(); err != nil || !swapped {
		t.Fatalf("swap: %v %v", swapped, err)
	}

	var after NeighborsResponse
	decodeAs(t, do(t, srv, http.MethodPost, "/v1/neighbors", req), &after)
	if after.Snapshot == before.Snapshot {
		t.Fatal("post-swap response still carries the old snapshot id")
	}
	// A different random model must rank differently; identical rankings
	// would mean the cache leaked across the swap.
	same := len(after.Neighbors) == len(before.Neighbors)
	if same {
		for i := range after.Neighbors {
			if after.Neighbors[i] != before.Neighbors[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("post-swap ranking identical to pre-swap cache entry")
	}
	info := srv.cache.Info()
	if info.Misses < 2 {
		t.Fatalf("cache stats = %+v: post-swap query should have missed", info)
	}
}

func TestStartPollingSwaps(t *testing.T) {
	dir := t.TempDir()
	path, voc := diskModel(t, dir, 30, 8, 9)
	store, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	store.StartPolling(2 * time.Millisecond)
	defer store.Close()

	m2 := model.New(30, 8)
	m2.InitRandom(55)
	writeModelFiles(t, path, m2, voc)
	bumpMtime(t, path)

	deadline := time.Now().Add(5 * time.Second)
	for store.Swaps() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if store.Swaps() == 0 {
		t.Fatal("poller never picked up the new model")
	}
	store.Close()
	store.Close() // idempotent
}
