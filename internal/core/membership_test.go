package core

import (
	"fmt"
	"testing"

	"graphword2vec/internal/gluon"
)

// elasticPolicy builds the per-rank RunOptions of an elastic relaunch:
// shared checkpoint dir, every rank resuming, oldRank(h) mapping each
// new rank to its identity in the old cluster (FreshRank for joiners).
func elasticPolicy(dir string, every int, oldRank func(h int) int) func(int) RunOptions {
	return func(h int) RunOptions {
		return RunOptions{Checkpoint: &CheckpointPolicy{
			Dir: dir, Every: every, Resume: true, OldRank: oldRank(h),
		}}
	}
}

// TestElasticReshardRoundTrip is the satellite N→N−1→N contract: a
// 3-host run's final checkpoints are re-sharded onto 2 hosts and back
// onto 3, and the canonical model bytes survive both hops exactly.
// Every resume lands on the final round, so no training happens — the
// test isolates the membership change itself (scan, negotiate, range
// transfer, re-shard restore, gather under the new partition map).
func TestElasticReshardRoundTrip(t *testing.T) {
	for _, mode := range []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			cfg3 := smallConfig(3) // 2 epochs × 3 rounds = 6 global rounds
			cfg3.Mode = mode
			dir := t.TempDir()

			// The 3-host reference run, checkpointing to the shared dir
			// (every=3 leaves the final round-6 generation).
			_, refHash := runCluster(t, cfg3, func(int) RunOptions {
				return RunOptions{Checkpoint: &CheckpointPolicy{Dir: dir, Every: 3}}
			})

			// Down to 2 hosts: ranks 0 and 1 survive with their old
			// identities, old rank 2's range must migrate.
			cfg2 := cfg3
			cfg2.Hosts = 2
			res2, hash2 := runCluster(t, cfg2, elasticPolicy(dir, 3, func(h int) int { return h }))
			if hash2 != refHash {
				t.Fatalf("2-host reshard hash %s, want %s", hash2, refHash)
			}
			for h, r := range res2 {
				if r.ResumedFrom != 6 {
					t.Fatalf("rank %d resumed from %d, want 6", h, r.ResumedFrom)
				}
			}

			// Back up to 3 hosts: ranks 0 and 1 keep their identities in
			// the 2-host generation, rank 2 joins fresh.
			res3, hash3 := runCluster(t, cfg3, elasticPolicy(dir, 3, func(h int) int {
				if h < 2 {
					return h
				}
				return FreshRank
			}))
			if hash3 != refHash {
				t.Fatalf("3-host reshard hash %s, want %s", hash3, refHash)
			}
			for h, r := range res3 {
				if r.ResumedFrom != 6 {
					t.Fatalf("rank %d resumed from %d, want 6", h, r.ResumedFrom)
				}
			}
		})
	}
}

// TestElasticFreshStartEmptyDir: an elastic resume over an empty store
// degrades to a deterministic fresh start at the new shape, exactly
// like the plain-resume contract.
func TestElasticFreshStartEmptyDir(t *testing.T) {
	cfg := smallConfig(2)
	_, refHash := runCluster(t, cfg, func(int) RunOptions { return RunOptions{} })
	res, hash := runCluster(t, cfg, elasticPolicy(t.TempDir(), 2, func(h int) int { return h }))
	if hash != refHash {
		t.Fatalf("elastic fresh start hash %s, want %s", hash, refHash)
	}
	for h, r := range res {
		if r.ResumedFrom != 0 {
			t.Fatalf("rank %d resumed from %d, want 0", h, r.ResumedFrom)
		}
	}
}

// TestElasticUnchangedCluster: with the shape and every identity
// intact, the membership negotiation settles on a plain restore and
// reproduces the reference bits — elastic mode costs nothing when
// nothing changed.
func TestElasticUnchangedCluster(t *testing.T) {
	cfg := smallConfig(2)
	dir := t.TempDir()
	_, refHash := runCluster(t, cfg, func(int) RunOptions {
		return RunOptions{Checkpoint: &CheckpointPolicy{Dir: dir, Every: 3}}
	})
	res, hash := runCluster(t, cfg, elasticPolicy(dir, 3, func(h int) int { return h }))
	if hash != refHash {
		t.Fatalf("elastic plain resume hash %s, want %s", hash, refHash)
	}
	for h, r := range res {
		if r.ResumedFrom != 6 {
			t.Fatalf("rank %d resumed from %d, want 6", h, r.ResumedFrom)
		}
	}
}

// TestStopAfterRoundPauseResume: StopAfterRound pauses the cluster at
// a checkpointed boundary (the scale-up join's cut point), and a later
// resume completes the run bit-identically to an uninterrupted one.
func TestStopAfterRoundPauseResume(t *testing.T) {
	cfg := smallConfig(2)
	_, refHash := runCluster(t, cfg, func(int) RunOptions { return RunOptions{} })
	dir := t.TempDir()
	paused, _ := runCluster(t, cfg, func(int) RunOptions {
		return RunOptions{
			Checkpoint:     &CheckpointPolicy{Dir: dir, Every: 3},
			StopAfterRound: 3,
		}
	})
	for h, r := range paused {
		if !r.Engine.Paused {
			t.Fatalf("rank %d not paused at round 3", h)
		}
	}
	res, hash := runCluster(t, cfg, func(h int) RunOptions {
		return RunOptions{Checkpoint: &CheckpointPolicy{Dir: dir, Every: 3, Resume: true, OldRank: h}}
	})
	if hash != refHash {
		t.Fatalf("pause/resume hash %s, want %s", hash, refHash)
	}
	for h, r := range res {
		if r.ResumedFrom != 3 {
			t.Fatalf("rank %d resumed from %d, want 3", h, r.ResumedFrom)
		}
	}
}

// TestMembershipChecksum: sensitive to membership and base, stable
// across calls — the mesh-hello guard for degraded clusters.
func TestMembershipChecksum(t *testing.T) {
	base := uint64(0xDEAD)
	a := MembershipChecksum(base, []int{0, 2})
	if a != MembershipChecksum(base, []int{0, 2}) {
		t.Fatal("MembershipChecksum not deterministic")
	}
	for _, other := range [][]int{{0, 1}, {2, 0}, {0}, {0, 2, 3}} {
		if MembershipChecksum(base, other) == a {
			t.Fatalf("members %v collide with {0,2}", other)
		}
	}
	if MembershipChecksum(base+1, []int{0, 2}) == a {
		t.Fatal("base not folded")
	}
}
