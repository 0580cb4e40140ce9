package gluon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"graphword2vec/internal/model"
)

// Membership negotiation (wire protocol v4, PROTOCOL.md §10) — the
// one recovery negotiation every resume runs.
//
// It runs on a freshly formed mesh, before the start barrier. Each rank
// reports which *old* ranks' master ranges it can reconstruct from its
// checkpoint store, per candidate round; rank 0 picks the best jointly
// reachable cut. When the cluster kept its shape and every rank its
// identity, and every rank holds its own snapshot at the best cut, the
// verdict is a plain restore: each rank reloads its own snapshot, no
// ranges move (PROTOCOL.md §8). Otherwise — a rank died for good and
// the survivors continue as N−1, a replacement or extra rank joined, or
// a straggler lacks the newest snapshot others can cover — rank 0
// assigns one source rank per old master range. Assigned sources then
// broadcast their ranges as transfer frames so every rank can assemble
// the full canonical model at the cut round and re-shard it under the
// new partition map.
//
// The negotiation is deliberately mode- and storage-agnostic: callers
// (internal/core) compute the per-round source masks from their
// checkpoint stores and sync-mode semantics, and install transferred
// ranges into whatever replica layout they use.

// Membership-negotiation tags, carried in the membership frame's round
// field.
const (
	membershipOffer    = 0
	membershipDecision = 1
)

// Identity errors of the membership negotiation: rank 0 rejects offer
// sets whose old-rank claims are inconsistent instead of guessing.
var (
	ErrDuplicateOldRank = errors.New("gluon: old rank claimed twice")
	ErrOldRankRange     = errors.New("gluon: old rank outside the old cluster")
)

// FreshRank marks a MembershipOffer from a rank with no prior identity
// in the old cluster (a brand-new or wiped replacement member).
const FreshRank = -1

// maxOldHosts bounds the old-cluster size a source mask can describe.
// The mask is a uint64 bit per old rank; the paper's largest cluster is
// 64 hosts, so the bound is not limiting in practice.
const maxOldHosts = 64

// RoundSources describes, for one candidate cut round, which old
// ranks' master ranges this host can source from its checkpoint store
// (bit q of Mask = old rank q's range is reconstructible at Round).
type RoundSources struct {
	Round uint32
	// Mask has bit q set when this rank can supply old rank q's master
	// range at Round with canonical values.
	Mask uint64
	// SelfHeld reports that this rank holds its *own* old-rank snapshot
	// at Round — the requirement for a plain (non-resharding) restore.
	SelfHeld bool
}

// MembershipOffer is one rank's input to the membership negotiation.
type MembershipOffer struct {
	// OldHosts is the size of the cluster that wrote the snapshots this
	// offer describes; 0 when the rank has no usable snapshots at all.
	OldHosts int
	// OldRank is this rank's identity in the old cluster, or FreshRank.
	OldRank int
	// Rounds lists the candidate cut rounds (round 0 — a deterministic
	// fresh start — is always an implicit candidate and never listed).
	Rounds []RoundSources
}

// MembershipDecision is rank 0's verdict, broadcast to every rank.
type MembershipDecision struct {
	// Plain: every rank restores its own old-rank snapshot at Round —
	// possible only when the cluster shape and every rank's identity
	// are unchanged.
	Plain bool
	// Round is the agreed cut round (0 = fresh start at the new shape).
	Round uint32
	// OldHosts is the partition size the snapshots were written under
	// (meaningful when !Plain && Round > 0).
	OldHosts int
	// Sources[q] is the new rank assigned to broadcast old rank q's
	// master range (len == OldHosts when !Plain && Round > 0, nil
	// otherwise).
	Sources []int
}

// Reshard reports whether the decision requires range migration.
func (d MembershipDecision) Reshard() bool { return !d.Plain && d.Round > 0 }

// membershipOfferMessage packs a MembershipOffer into a wire frame:
// oldHosts u32 | oldRank u32 (0xFFFFFFFF = fresh) | count × {round u32,
// mask u64, selfHeld u8}.
func membershipOfferMessage(o MembershipOffer) []byte {
	const entry = 4 + 8 + 1
	buf := make([]byte, headerBytes+8+entry*len(o.Rounds))
	putHeader(buf, kindMembership, membershipOffer, uint32(len(o.Rounds)))
	binary.LittleEndian.PutUint32(buf[headerBytes:], uint32(o.OldHosts))
	oldRank := uint32(0xFFFFFFFF)
	if o.OldRank != FreshRank {
		oldRank = uint32(o.OldRank)
	}
	binary.LittleEndian.PutUint32(buf[headerBytes+4:], oldRank)
	at := headerBytes + 8
	for _, r := range o.Rounds {
		binary.LittleEndian.PutUint32(buf[at:], r.Round)
		binary.LittleEndian.PutUint64(buf[at+4:], r.Mask)
		if r.SelfHeld {
			buf[at+12] = 1
		}
		at += entry
	}
	return buf
}

// parseMembershipOffer decodes an offer frame.
func parseMembershipOffer(payload []byte) (MembershipOffer, error) {
	const entry = 4 + 8 + 1
	var o MembershipOffer
	count, err := parseMembershipHeader(payload, membershipOffer)
	if err != nil {
		return o, err
	}
	if len(payload) != headerBytes+8+entry*count {
		return o, fmt.Errorf("gluon: membership offer of %d bytes claims %d rounds", len(payload), count)
	}
	o.OldHosts = int(binary.LittleEndian.Uint32(payload[headerBytes:]))
	if o.OldHosts > maxOldHosts {
		return o, fmt.Errorf("gluon: membership offer from %d-host cluster exceeds the %d-host limit", o.OldHosts, maxOldHosts)
	}
	o.OldRank = FreshRank
	if v := binary.LittleEndian.Uint32(payload[headerBytes+4:]); v != 0xFFFFFFFF {
		o.OldRank = int(v)
	}
	o.Rounds = make([]RoundSources, count)
	at := headerBytes + 8
	for i := range o.Rounds {
		if payload[at+12] > 1 {
			return o, fmt.Errorf("gluon: membership offer round %d has self-held byte %d", i, payload[at+12])
		}
		o.Rounds[i] = RoundSources{
			Round:    binary.LittleEndian.Uint32(payload[at:]),
			Mask:     binary.LittleEndian.Uint64(payload[at+4:]),
			SelfHeld: payload[at+12] == 1,
		}
		at += entry
	}
	return o, nil
}

// parseMembershipHeader checks a membership frame's kind and tag and
// returns its entry count. Parsers accept only frames their encoder
// could have produced, so every accepted frame re-encodes to the same
// bytes.
func parseMembershipHeader(payload []byte, tag uint32) (int, error) {
	kind, round, count, err := parseHeader(payload)
	if err != nil {
		return 0, err
	}
	if kind != kindMembership || round != tag {
		return 0, fmt.Errorf("gluon: frame (kind %d, tag %d) is not a membership frame with tag %d", kind, round, tag)
	}
	return int(count), nil
}

// membershipDecisionMessage packs a MembershipDecision: verdict u8
// (0 = plain, 1 = reshard) | round u32 | oldHosts u32 | count × source
// u32.
func membershipDecisionMessage(d MembershipDecision) []byte {
	buf := make([]byte, headerBytes+9+4*len(d.Sources))
	putHeader(buf, kindMembership, membershipDecision, uint32(len(d.Sources)))
	if !d.Plain {
		buf[headerBytes] = 1
	}
	binary.LittleEndian.PutUint32(buf[headerBytes+1:], d.Round)
	binary.LittleEndian.PutUint32(buf[headerBytes+5:], uint32(d.OldHosts))
	for i, s := range d.Sources {
		binary.LittleEndian.PutUint32(buf[headerBytes+9+4*i:], uint32(s))
	}
	return buf
}

// parseMembershipDecision decodes a decision frame.
func parseMembershipDecision(payload []byte) (MembershipDecision, error) {
	var d MembershipDecision
	count, err := parseMembershipHeader(payload, membershipDecision)
	if err != nil {
		return d, err
	}
	if len(payload) != headerBytes+9+4*count {
		return d, fmt.Errorf("gluon: membership decision of %d bytes claims %d sources", len(payload), count)
	}
	if payload[headerBytes] > 1 {
		return d, fmt.Errorf("gluon: membership decision has verdict byte %d", payload[headerBytes])
	}
	d.Plain = payload[headerBytes] == 0
	d.Round = binary.LittleEndian.Uint32(payload[headerBytes+1:])
	d.OldHosts = int(binary.LittleEndian.Uint32(payload[headerBytes+5:]))
	if count > 0 {
		d.Sources = make([]int, count)
		for i := range d.Sources {
			d.Sources[i] = int(binary.LittleEndian.Uint32(payload[headerBytes+9+4*i:]))
		}
	}
	return d, nil
}

// NegotiateMembership agrees a cluster-wide cut before a resumed run:
// after a membership change, or on an unchanged cluster, where it
// usually settles on a plain restore of every rank's own snapshot.
// Every rank sends its offer to rank 0; rank 0 decides and broadcasts.
// It must run before the start barrier on a freshly formed mesh, and
// apart from the identity errors of decideMembership it cannot fail
// outright — round 0 at the new shape is always reachable — only
// degrade. The returned decision is validated against the local offer:
// a source assignment this rank did not offer is a protocol error.
func (hs *HostSync) NegotiateMembership(offer MembershipOffer) (MembershipDecision, error) {
	if offer.OldHosts > maxOldHosts {
		return MembershipDecision{}, fmt.Errorf("gluon: membership offer from %d-host cluster exceeds the %d-host limit", offer.OldHosts, maxOldHosts)
	}
	n := hs.part.NumHosts()
	if hs.host != 0 {
		msg := membershipOfferMessage(offer)
		if err := hs.send(0, msg); err != nil {
			return MembershipDecision{}, fmt.Errorf("gluon: membership offer: %w", err)
		}
		hs.stats.ControlBytes += int64(len(msg))
		_, payload, err := hs.nextMessage(kindMembership, membershipDecision)
		if err != nil {
			return MembershipDecision{}, fmt.Errorf("gluon: membership decision: %w", err)
		}
		d, err := parseMembershipDecision(payload)
		if err != nil {
			return MembershipDecision{}, err
		}
		if err := checkMembershipDecision(d, offer, hs.host, n); err != nil {
			return MembershipDecision{}, err
		}
		return d, nil
	}
	offers := make([]MembershipOffer, n)
	offers[0] = offer
	for need := n - 1; need > 0; need-- {
		from, payload, err := hs.nextMessage(kindMembership, membershipOffer)
		if err != nil {
			return MembershipDecision{}, fmt.Errorf("gluon: membership collect: %w", err)
		}
		if offers[from], err = parseMembershipOffer(payload); err != nil {
			return MembershipDecision{}, err
		}
	}
	d, err := decideMembership(offers)
	if err != nil {
		return MembershipDecision{}, err
	}
	msg := membershipDecisionMessage(d)
	for g := 1; g < n; g++ {
		if err := hs.send(g, msg); err != nil {
			return MembershipDecision{}, fmt.Errorf("gluon: membership broadcast: %w", err)
		}
		hs.stats.ControlBytes += int64(len(msg))
	}
	if err := checkMembershipDecision(d, offer, 0, n); err != nil {
		return MembershipDecision{}, err
	}
	return d, nil
}

// decideMembership is rank 0's verdict over all collected offers. The
// policy: prefer a plain restore (shape unchanged, every rank keeps its
// identity and holds its own snapshot) at the highest common round;
// otherwise re-shard from the highest round at which the union of the
// offered source masks covers every old master range; otherwise start
// fresh at the new shape from round 0. Each migrated range is assigned
// to the lowest-ranked host able to source it, deterministically.
//
// Identities are checked first, by name: two ranks claiming the same
// old rank (ErrDuplicateOldRank) or an old rank outside the old cluster
// (ErrOldRankRange) are rejected, never resolved — a caller that left
// every OldRank at 0 would otherwise trigger a silent reshard.
func decideMembership(offers []MembershipOffer) (MembershipDecision, error) {
	n := len(offers)
	oldHosts := 0
	claimedBy := map[int]int{}
	for i, o := range offers {
		if o.OldRank != FreshRank {
			if o.OldRank < 0 {
				return MembershipDecision{}, fmt.Errorf("%w: rank %d claims old rank %d", ErrOldRankRange, i, o.OldRank)
			}
			if j, dup := claimedBy[o.OldRank]; dup {
				return MembershipDecision{}, fmt.Errorf("%w: ranks %d and %d both claim old rank %d", ErrDuplicateOldRank, j, i, o.OldRank)
			}
			claimedBy[o.OldRank] = i
		}
		if o.OldHosts == 0 {
			continue
		}
		if oldHosts == 0 {
			oldHosts = o.OldHosts
		} else if o.OldHosts != oldHosts {
			return MembershipDecision{}, fmt.Errorf("gluon: rank %d offers snapshots from a %d-host cluster, others from %d hosts", i, o.OldHosts, oldHosts)
		}
	}
	for i, o := range offers {
		if oldHosts > 0 && o.OldRank >= oldHosts {
			return MembershipDecision{}, fmt.Errorf("%w: rank %d claims old rank %d of a %d-host cluster", ErrOldRankRange, i, o.OldRank, oldHosts)
		}
	}
	if oldHosts == 0 {
		// Nobody has usable history: fresh start at the new shape.
		return MembershipDecision{Round: 0}, nil
	}

	// Highest round where the union of masks covers all old ranges.
	full := uint64(1)<<uint(oldHosts) - 1
	union := map[uint32]uint64{}
	for _, o := range offers {
		for _, r := range o.Rounds {
			union[r.Round] |= r.Mask
		}
	}
	var reshardRound uint32
	for r, m := range union {
		if m&full == full && r > reshardRound {
			reshardRound = r
		}
	}

	// Highest round every rank self-holds, valid only for an unchanged
	// cluster (same size, every rank keeping its old identity).
	plainOK := oldHosts == n
	for i, o := range offers {
		if o.OldRank != i {
			plainOK = false
		}
	}
	if plainOK {
		held := map[uint32]int{}
		for _, o := range offers {
			for _, r := range o.Rounds {
				if r.SelfHeld {
					held[r.Round]++
				}
			}
		}
		var plainRound uint32
		for r, c := range held {
			if c == n && r > plainRound {
				plainRound = r
			}
		}
		// A self-held round is by construction also coverable, so
		// plainRound <= reshardRound; prefer plain on ties — every rank
		// restores its own snapshot exactly (including per-rank mirror
		// staleness under PullModel and its own training counters).
		if plainRound >= reshardRound {
			return MembershipDecision{Plain: true, Round: plainRound, OldHosts: oldHosts}, nil
		}
	}
	if reshardRound == 0 {
		return MembershipDecision{Round: 0}, nil
	}
	d := MembershipDecision{Round: reshardRound, OldHosts: oldHosts, Sources: make([]int, oldHosts)}
	for q := 0; q < oldHosts; q++ {
		d.Sources[q] = -1
		for i, o := range offers {
			if offerMask(o, reshardRound)&(1<<uint(q)) != 0 {
				d.Sources[q] = i
				break
			}
		}
		if d.Sources[q] < 0 {
			return MembershipDecision{}, fmt.Errorf("gluon: no source for old rank %d at round %d", q, reshardRound)
		}
	}
	return d, nil
}

// offerMask returns an offer's source mask at one round.
func offerMask(o MembershipOffer, round uint32) uint64 {
	for _, r := range o.Rounds {
		if r.Round == round {
			return r.Mask
		}
	}
	return 0
}

// checkMembershipDecision validates rank 0's verdict against this
// rank's own offer and the mesh size.
func checkMembershipDecision(d MembershipDecision, offer MembershipOffer, host, n int) error {
	if d.Plain {
		if d.Round > 0 && !selfHeldAt(offer, d.Round) {
			return fmt.Errorf("gluon: plain resume at round %d but this rank does not hold its own snapshot there", d.Round)
		}
		return nil
	}
	if d.Round == 0 {
		return nil
	}
	if len(d.Sources) != d.OldHosts || d.OldHosts <= 0 || d.OldHosts > maxOldHosts {
		return fmt.Errorf("gluon: membership decision carries %d sources for %d old hosts", len(d.Sources), d.OldHosts)
	}
	mine := offerMask(offer, d.Round)
	for q, s := range d.Sources {
		if s < 0 || s >= n {
			return fmt.Errorf("gluon: membership decision assigns old rank %d to out-of-mesh source %d", q, s)
		}
		if s == host && mine&(1<<uint(q)) == 0 {
			return fmt.Errorf("gluon: assigned to source old rank %d's range at round %d without offering it", q, d.Round)
		}
	}
	return nil
}

// selfHeldAt reports whether the offer self-holds the given round.
func selfHeldAt(o MembershipOffer, round uint32) bool {
	for _, r := range o.Rounds {
		if r.Round == round && r.SelfHeld {
			return true
		}
	}
	return false
}

// MigrateRanges executes a reshard decision's range transfers: each
// assigned source broadcasts its old ranks' master ranges (read from
// canonical via ranges/valueAt) to every other rank, and every rank
// installs the ranges it did not source into canonical. On return,
// canonical holds the complete model at the cut round on every rank;
// the caller re-shards it under the new partition map (set local = base
// = canonical) and checkpoints the result. ranges(q) returns old rank
// q's master node range [lo, hi). Transfer frames always carry full
// exact values (frameFlags strips fp16/half-suppression), so migration
// is bit-exact regardless of the negotiated codec. Runs between the
// negotiation and the start barrier; transfers for distinct old ranks
// are disambiguated by the frame's round field, so arrival order does
// not matter.
func (hs *HostSync) MigrateRanges(d MembershipDecision, ranges func(q int) (lo, hi int), canonical *model.Model) error {
	if !d.Reshard() {
		return nil
	}
	if canonical.VocabSize() != hs.part.NumNodes() {
		return fmt.Errorf("gluon: canonical model size %d does not match partition %d", canonical.VocabSize(), hs.part.NumNodes())
	}
	n := hs.part.NumHosts()
	flags := hs.frameFlags(kindTransfer)
	for q, src := range d.Sources {
		if src != hs.host {
			continue
		}
		lo, hi := ranges(q)
		nodes := make([]int32, 0, hi-lo)
		for node := lo; node < hi; node++ {
			nodes = append(nodes, int32(node))
		}
		msg := encodeVectorFrame(kindTransfer, uint32(q), flags, hs.dim, nodes, nil, func(node int32, dst []float32) {
			nodeValue(canonical, node, dst)
		})
		for g := 0; g < n; g++ {
			if g == hs.host {
				continue
			}
			if err := hs.send(g, msg); err != nil {
				return fmt.Errorf("gluon: transfer of old rank %d's range: %w", q, err)
			}
			hs.stats.ControlBytes += int64(len(msg))
		}
	}
	for q, src := range d.Sources {
		if src == hs.host {
			continue
		}
		from, payload, err := hs.nextMessage(kindTransfer, uint32(q))
		if err != nil {
			return fmt.Errorf("gluon: transfer of old rank %d's range: %w", q, err)
		}
		if from != src {
			return fmt.Errorf("gluon: old rank %d's range arrived from host %d, assigned source is %d", q, from, src)
		}
		lo, hi := ranges(q)
		err = decodeVectorFrame(payload, hs.dim, flags, func(node int32, half byte, vec []float32) error {
			if int(node) < lo || int(node) >= hi {
				return fmt.Errorf("gluon: transferred node %d outside old rank %d's range [%d,%d)", node, q, lo, hi)
			}
			setNodeHalves(canonical, node, half, vec, hs.dim)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// SourceCount returns how many old ranges a mask can supply — a
// diagnostic for offer construction and grid reporting.
func SourceCount(mask uint64) int { return bits.OnesCount64(mask) }
