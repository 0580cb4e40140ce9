package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"graphword2vec/internal/model"
	"graphword2vec/internal/sgns"
	"graphword2vec/internal/xrand"
)

// randomSnapshot builds a snapshot with fully random state so a
// round-trip test exercises every field, including a PullModel-style
// divergence between the local and base replicas.
func randomSnapshot(seed uint64, threads int) *Snapshot {
	r := xrand.New(seed)
	vocab, dim := 5+r.Intn(40), 1+r.Intn(16)
	local := model.New(vocab, dim)
	base := model.New(vocab, dim)
	for _, m := range []*model.Model{local, base} {
		for _, data := range [][]float32{m.Emb.Data, m.Ctx.Data} {
			for i := range data {
				data[i] = r.Float32() - 0.5
			}
		}
	}
	rng := make([][4]uint64, threads)
	for i := range rng {
		for j := range rng[i] {
			rng[i][j] = r.Uint64()
		}
	}
	stats := func() sgns.Stats {
		return sgns.Stats{
			TokensSeen: int64(r.Uint32()), TokensKept: int64(r.Uint32()),
			Pairs: int64(r.Uint32()), LossSum: r.Float64(), LossEdges: int64(r.Uint32()),
		}
	}
	return &Snapshot{
		Checksum:   r.Uint64(),
		Rank:       r.Intn(8),
		Hosts:      8,
		NextRound:  r.Uint32(),
		Local:      local,
		Base:       base,
		RNG:        rng,
		EpochStats: stats(),
		TotalStats: stats(),
	}
}

func sameModel(a, b *model.Model) bool {
	if a.VocabSize() != b.VocabSize() || a.Dim != b.Dim {
		return false
	}
	for i := range a.Emb.Data {
		if a.Emb.Data[i] != b.Emb.Data[i] || a.Ctx.Data[i] != b.Ctx.Data[i] {
			return false
		}
	}
	return true
}

func assertSameSnapshot(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if got.Checksum != want.Checksum || got.Rank != want.Rank ||
		got.Hosts != want.Hosts || got.NextRound != want.NextRound {
		t.Fatalf("header mismatch: got %+v", got)
	}
	if len(got.RNG) != len(want.RNG) {
		t.Fatalf("rng count %d, want %d", len(got.RNG), len(want.RNG))
	}
	for i := range want.RNG {
		if got.RNG[i] != want.RNG[i] {
			t.Fatalf("rng[%d] mismatch", i)
		}
	}
	if got.EpochStats != want.EpochStats || got.TotalStats != want.TotalStats {
		t.Fatalf("stats mismatch: got %+v/%+v want %+v/%+v",
			got.EpochStats, got.TotalStats, want.EpochStats, want.TotalStats)
	}
	if !sameModel(want.Local, got.Local) || !sameModel(want.Base, got.Base) {
		t.Fatal("model replicas not bit-identical after round trip")
	}
}

// TestSaveLoadRoundTripProperty is the lossless round-trip property
// over many randomized snapshots (the engine-level, per-sync-mode
// round trip is TestEngineCheckpointRoundTripModes in core).
func TestSaveLoadRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	for seed := uint64(1); seed <= 25; seed++ {
		s := randomSnapshot(seed, 1+int(seed)%4)
		path := filepath.Join(dir, "snap.ckpt")
		if err := Save(path, s); err != nil {
			t.Fatalf("seed %d: save: %v", seed, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("seed %d: load: %v", seed, err)
		}
		assertSameSnapshot(t, s, got)
	}
}

// TestCorruptionSuite damages a valid snapshot in every way the loader
// must distinguish and asserts each yields its own sentinel error.
func TestCorruptionSuite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	s := randomSnapshot(7, 2)
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated},
		{"truncated-header", func(b []byte) []byte { return b[:headerLen-3] }, ErrTruncated},
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"flipped-byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[headerLen+len(c)/2] ^= 0x40
			return c
		}, ErrCorrupt},
		{"trailing-junk", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xFF) }, ErrCorrupt},
		{"stale-version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(magic)] = 99 // version field
			return c
		}, ErrVersion},
		{"not-a-snapshot", func(b []byte) []byte { return []byte("GW2VMODL garbage") }, ErrNotSnapshot},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(dir, tc.name+".ckpt")
			if err := os.WriteFile(bad, tc.mutate(valid), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(bad)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got error %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("wrong-config-checksum", func(t *testing.T) {
		st := &Store{Dir: t.TempDir(), Rank: 9}
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		entries, damage := ScanDir(st.Dir, s.Checksum+1)
		if len(entries) != 0 || len(damage) != 1 || !errors.Is(damage[0], ErrConfigMismatch) {
			t.Fatalf("ScanDir = (%v, %v), want one ErrConfigMismatch", entries, damage)
		}
	})
}

// TestStoreRotationAndFallback covers the two-generation story as the
// resume path reads it through ScanDir: saves rotate, a torn current
// file is reported as damage while the previous snapshot is still
// offered, and both generations damaged is reported damage (never a
// silent fresh start).
func TestStoreRotationAndFallback(t *testing.T) {
	st := &Store{Dir: t.TempDir(), Rank: 3}
	sum := uint64(0xfeed)
	first := randomSnapshot(11, 1)
	first.Checksum, first.Rank = sum, st.Rank
	first.NextRound = 4
	second := randomSnapshot(11, 1)
	second.Checksum, second.Rank = sum, st.Rank
	second.NextRound = 8

	rounds := func() ([]uint32, []error) {
		t.Helper()
		entries, damage := ScanDir(st.Dir, sum)
		var got []uint32
		for _, e := range entries {
			if e.Rank != st.Rank {
				t.Fatalf("entry %+v, want rank %d", e, st.Rank)
			}
			got = append(got, e.NextRound)
		}
		return got, damage
	}

	if err := st.Save(first); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(second); err != nil {
		t.Fatal(err)
	}
	if got, damage := rounds(); len(damage) != 0 || len(got) != 2 || got[0] != 8 || got[1] != 4 {
		t.Fatalf("want generations [8 4], got %v damage %v", got, damage)
	}

	// Tear the current generation: ScanDir must reject it by hash and
	// still offer the previous one.
	data, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(), data[:len(data)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	if got, damage := rounds(); len(damage) != 1 || len(got) != 1 || got[0] != 4 {
		t.Fatalf("torn current: want fallback to round 4 plus one damage report, got %v damage %v", got, damage)
	}

	// Both generations damaged: named damage, not an empty store.
	if err := os.WriteFile(st.PrevPath(), []byte("GW2VCKPT"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, damage := rounds(); len(got) != 0 || len(damage) != 2 {
		t.Fatalf("both damaged: want no entries and two damage reports, got %v damage %v", got, damage)
	}
}
