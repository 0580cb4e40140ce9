package core

import (
	"fmt"

	"graphword2vec/internal/checkpoint"
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/graph"
	"graphword2vec/internal/model"
	"graphword2vec/internal/xrand"
)

// Resume after a crash or a membership change (PROTOCOL.md §10,
// DESIGN.md §11): negotiate a cut before the start barrier, restore,
// train. When the cluster kept its shape and identities and every rank
// holds its own snapshot at the best cut, each rank reloads its own
// snapshot (a plain restore). Otherwise — the host count changed, a
// member is fresh, a rank changed identity, or a straggler lacks the
// newest round others can cover — the full canonical model at the cut
// round is assembled from whichever snapshots survive, re-sharded under
// the new partition map, and immediately re-checkpointed on every rank.
//
// Why the checkpoint cut makes this safe: at a BSP round boundary the
// canonical model is fully determined — under the RepModel schemes every
// replica equals it, and under PullModel each owner's master range does
// — and everything else the engine carries is either re-derived (the
// per-thread generators are reseeded from (seed, epoch, round, host,
// thread) before every use) or starts empty on any fresh mesh (access
// sets). So a membership change at a boundary is indistinguishable from
// launching a brand-new cluster of the new shape directly from the
// re-sharded checkpoint — which is exactly the byte-identity the
// membership grid asserts.

// restoreAtCut runs the membership negotiation for one rank and
// applies the decision: a plain restore, a fresh start at the new
// shape, or a full re-shard restore (assemble canonical at the cut via
// range transfers, restore it as both replicas, checkpoint the result).
// Returns the cut round (0 = fresh start).
func restoreAtCut(eng *Engine, pol *CheckpointPolicy, opts *RunOptions, sum uint64, sink CheckpointSink) (uint32, error) {
	entries, damage := checkpoint.ScanDir(pol.Dir, sum)
	for _, err := range damage {
		opts.warnf("core: host %d: damaged checkpoint in %s (excluded from membership offer): %v", eng.host, pol.Dir, err)
	}
	offer := buildOffer(entries, pol.OldRank, eng.cfg.Mode)
	dec, err := eng.sync.NegotiateMembership(offer)
	if err != nil {
		return 0, err
	}
	switch {
	case dec.Plain:
		if dec.Round == 0 {
			return 0, nil
		}
		own := findEntry(entries, eng.host, eng.cfg.Hosts, dec.Round)
		if own == nil {
			// Unreachable if NegotiateMembership honoured our offer.
			return 0, fmt.Errorf("core: plain resume at round %d but rank %d holds no snapshot there", dec.Round, eng.host)
		}
		s, err := loadEntry(own.Path, sum)
		if err != nil {
			return 0, err
		}
		if err := eng.Restore(s); err != nil {
			return 0, fmt.Errorf("core: restore round %d: %w", dec.Round, err)
		}
		return dec.Round, nil
	case dec.Round == 0:
		if offer.OldHosts != 0 {
			opts.warnf("core: host %d: membership change could not cover every master range from surviving snapshots; restarting from round 0", eng.host)
		}
		return 0, nil
	}

	// Re-shard restore. Assemble the canonical model at the cut round:
	// rows this rank sources come from local snapshot files, the rest
	// arrive as transfer frames. Every rank with an assignment finishes
	// loading before it sends, and every rank's transfers are received
	// before it saves below, so the in-place overwrite of same-named
	// snapshot files in a shared directory cannot race a reader.
	opts.warnf("core: host %d: resharding %d-host run onto %d hosts at round %d", eng.host, dec.OldHosts, eng.cfg.Hosts, dec.Round)
	oldPart, err := graph.NewPartition(eng.voc.Size(), dec.OldHosts)
	if err != nil {
		return 0, fmt.Errorf("core: old partition: %w", err)
	}
	canonical := model.New(eng.voc.Size(), eng.dim)
	loaded := map[string]*checkpoint.Snapshot{}
	load := func(path string) (*checkpoint.Snapshot, error) {
		if s, ok := loaded[path]; ok {
			return s, nil
		}
		s, err := loadEntry(path, sum)
		if err != nil {
			return nil, err
		}
		loaded[path] = s
		return s, nil
	}
	for q, src := range dec.Sources {
		if src != eng.host {
			continue
		}
		entry := sourceEntry(entries, eng.cfg.Mode, q, dec.OldHosts, dec.Round)
		if entry == nil {
			// Unreachable if our offer was honest.
			return 0, fmt.Errorf("core: assigned old rank %d's range at round %d but no local snapshot covers it", q, dec.Round)
		}
		s, err := load(entry.Path)
		if err != nil {
			return 0, err
		}
		lo, hi := oldPart.MasterRange(q)
		for n := lo; n < hi; n++ {
			copy(canonical.EmbRow(int32(n)), s.Local.EmbRow(int32(n)))
			copy(canonical.CtxRow(int32(n)), s.Local.CtxRow(int32(n)))
		}
	}
	if err := eng.sync.MigrateRanges(dec, oldPart.MasterRange, canonical); err != nil {
		return 0, err
	}

	// Stats travel with rank identity, not with ranges: a surviving
	// rank keeps its own counters, a fresh one starts at zero. The
	// model bytes — the only thing byte-identity is asserted over — are
	// unaffected either way.
	snap := &checkpoint.Snapshot{
		Checksum:  sum,
		Rank:      eng.host,
		Hosts:     eng.cfg.Hosts,
		NextRound: dec.Round,
		Local:     canonical,
		Base:      canonical.Clone(),
		RNG:       freshRNGStates(eng.cfg.ThreadsPerHost),
	}
	if pol.OldRank >= 0 {
		if own := findEntry(entries, pol.OldRank, dec.OldHosts, dec.Round); own != nil {
			s, err := load(own.Path)
			if err != nil {
				return 0, err
			}
			snap.EpochStats, snap.TotalStats = s.EpochStats, s.TotalStats
		}
	}
	if err := eng.Restore(snap); err != nil {
		return 0, fmt.Errorf("core: reshard restore at round %d: %w", dec.Round, err)
	}
	// Checkpoint the re-sharded state immediately: the membership
	// change itself becomes durable (a second failure resumes from the
	// new shape without renegotiating transfers), and the saved
	// snapshot doubles as the reference the membership grid launches
	// its byte-identity check from.
	if err := sink.Save(snap); err != nil {
		return 0, fmt.Errorf("core: checkpoint resharded state: %w", err)
	}
	return dec.Round, nil
}

// buildOffer derives this rank's membership offer from a
// checkpoint-directory scan. The sync mode decides what a snapshot can
// source: under the RepModel schemes every replica equals the canonical
// model at a boundary, so ANY valid snapshot at a round covers every
// old master range; under PullModel only the owner's master range is
// guaranteed canonical, so old rank q's range requires rank q's own
// snapshot.
func buildOffer(entries []checkpoint.DirEntry, oldRank int, mode gluon.Mode) gluon.MembershipOffer {
	offer := gluon.MembershipOffer{OldRank: oldRank}
	// The snapshots to offer are the generation of cluster history this
	// rank believes is current: the stamp of its own newest snapshot,
	// or — for a fresh member scanning a shared directory — the stamp
	// of the newest snapshot any rank left.
	if oldRank >= 0 {
		for _, e := range entries {
			if e.Rank == oldRank {
				offer.OldHosts = e.Hosts // entries sorted newest-first per rank
				break
			}
		}
	}
	if offer.OldHosts == 0 {
		var best uint32
		for _, e := range entries {
			if offer.OldHosts == 0 || e.NextRound > best {
				offer.OldHosts, best = e.Hosts, e.NextRound
			}
		}
	}
	if offer.OldHosts == 0 || offer.OldHosts > 64 {
		return gluon.MembershipOffer{OldRank: oldRank}
	}
	full := uint64(1)<<uint(offer.OldHosts) - 1
	masks := map[uint32]uint64{}
	self := map[uint32]bool{}
	for _, e := range entries {
		if e.Hosts != offer.OldHosts || e.NextRound == 0 {
			continue
		}
		switch mode {
		case gluon.PullModel:
			if e.Rank >= 0 && e.Rank < offer.OldHosts {
				masks[e.NextRound] |= 1 << uint(e.Rank)
			}
		default: // RepModelNaive, RepModelOpt
			masks[e.NextRound] |= full
		}
		if e.Rank == oldRank {
			self[e.NextRound] = true
		}
	}
	for r, m := range masks {
		offer.Rounds = append(offer.Rounds, gluon.RoundSources{Round: r, Mask: m, SelfHeld: self[r]})
	}
	return offer
}

// findEntry returns the scanned entry for (rank, hosts, round), newest
// generation first, or nil.
func findEntry(entries []checkpoint.DirEntry, rank, hosts int, round uint32) *checkpoint.DirEntry {
	for i := range entries {
		e := &entries[i]
		if e.Rank == rank && e.Hosts == hosts && e.NextRound == round {
			return e
		}
	}
	return nil
}

// sourceEntry picks the snapshot file to source old rank q's master
// range from: under PullModel it must be q's own snapshot; under the
// RepModel schemes any snapshot at the round works and the
// lowest-ranked one is chosen deterministically.
func sourceEntry(entries []checkpoint.DirEntry, mode gluon.Mode, q, oldHosts int, round uint32) *checkpoint.DirEntry {
	if mode == gluon.PullModel {
		return findEntry(entries, q, oldHosts, round)
	}
	for i := range entries {
		e := &entries[i]
		if e.Hosts == oldHosts && e.NextRound == round {
			return e
		}
	}
	return nil
}

// loadEntry reloads a scanned snapshot file, re-validating the config
// checksum (ScanDir validated at scan time; the reload keeps the check
// local to the use).
func loadEntry(path string, sum uint64) (*checkpoint.Snapshot, error) {
	s, err := checkpoint.Load(path)
	if err != nil {
		return nil, err
	}
	if s.Checksum != sum {
		return nil, fmt.Errorf("%w: %s has %#x, run has %#x", checkpoint.ErrConfigMismatch, path, s.Checksum, sum)
	}
	return s, nil
}

// freshRNGStates returns the per-thread generator states of a freshly
// constructed engine. The engine reseeds every generator from (seed,
// epoch, round, host, thread) before each use, so these states never
// influence training — they exist so a re-sharded snapshot restores
// through the same Engine.Restore path as a regular one.
func freshRNGStates(threads int) [][4]uint64 {
	rng := make([][4]uint64, threads)
	for i := range rng {
		rng[i] = xrand.New(0).State()
	}
	return rng
}

// MembershipChecksum folds a degraded cluster's membership — the
// surviving ranks' original identities, in rank order — into a mesh
// checksum, so two workers with different views of who survived fail
// the handshake instead of forming a mesh with inconsistent partition
// maps. It is applied to the mesh hello only, never to snapshot
// checksums (snapshots must stay valid across membership changes).
func MembershipChecksum(base uint64, members []int) uint64 {
	parts := make([]uint64, 0, len(members)+1)
	parts = append(parts, uint64(len(members)))
	for _, m := range members {
		parts = append(parts, uint64(m))
	}
	return mixSeed(base^0x656C617374 /* "elast" */, parts...)
}
