package gluon

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"graphword2vec/internal/graph"
	"graphword2vec/internal/model"
	"graphword2vec/internal/xrand"
)

// offerFor builds a MembershipOffer for old rank q of an oldHosts-sized
// cluster that self-holds (and can fully source) every listed round.
func offerFor(oldHosts, q int, rounds ...uint32) MembershipOffer {
	o := MembershipOffer{OldHosts: oldHosts, OldRank: q}
	full := uint64(1)<<uint(oldHosts) - 1
	for _, r := range rounds {
		o.Rounds = append(o.Rounds, RoundSources{Round: r, Mask: full, SelfHeld: true})
	}
	return o
}

// ownOffer builds old rank q's offer under own-range (PullModel) masks:
// it self-holds every listed round but sources only its own range.
func ownOffer(oldHosts, q int, rounds ...uint32) MembershipOffer {
	o := MembershipOffer{OldHosts: oldHosts, OldRank: q}
	for _, r := range rounds {
		o.Rounds = append(o.Rounds, RoundSources{Round: r, Mask: 1 << uint(q), SelfHeld: true})
	}
	return o
}

// TestDecideMembership pins rank 0's policy: plain restore preferred
// when the cluster is unchanged, reshard from the highest coverable
// round otherwise, fresh start when nothing is coverable, and an error
// on irreconcilable histories or inconsistent identities. The resume-*
// rows are plain restarts of an unchanged cluster, each rank keeping
// its identity.
func TestDecideMembership(t *testing.T) {
	cases := []struct {
		name    string
		offers  []MembershipOffer
		want    MembershipDecision
		wantErr string
		wantIs  error
	}{
		{
			// Same size, same identities, everyone self-holds round 6:
			// exactly the v3 resume — a plain restore, no transfers.
			name:   "unchanged-plain",
			offers: []MembershipOffer{offerFor(3, 0, 6, 3), offerFor(3, 1, 6, 3), offerFor(3, 2, 6, 3)},
			want:   MembershipDecision{Plain: true, Round: 6, OldHosts: 3},
		},
		{
			// One rank lost its round-6 file but others (RepModel full
			// masks) can cover it: the reshard round (6) beats the plain
			// round (3), so the cluster reshards rather than rewinding.
			name:   "unchanged-straggler",
			offers: []MembershipOffer{offerFor(3, 0, 6, 3), offerFor(3, 1, 3), offerFor(3, 2, 6, 3)},
			want:   MembershipDecision{Round: 6, OldHosts: 3, Sources: []int{0, 0, 0}},
		},
		{
			// All ranks checkpointed the same rounds: resume the newest.
			name:   "resume-aligned",
			offers: []MembershipOffer{ownOffer(3, 0, 6, 3), ownOffer(3, 1, 6, 3), ownOffer(3, 2, 6, 3)},
			want:   MembershipDecision{Plain: true, Round: 6, OldHosts: 3},
		},
		{
			// The straggler under own-range masks: nobody else can cover
			// rank 1's range at round 6, so the cluster rewinds to the
			// newest common generation (the RepModel case is
			// unchanged-straggler above).
			name:   "resume-straggler-own-masks",
			offers: []MembershipOffer{ownOffer(3, 0, 6, 3), ownOffer(3, 1, 3), ownOffer(3, 2, 6, 3)},
			want:   MembershipDecision{Plain: true, Round: 3, OldHosts: 3},
		},
		{
			// A rank with a wiped disk keeps its identity but holds
			// nothing: a plain fresh start.
			name:   "resume-wiped-rank",
			offers: []MembershipOffer{ownOffer(3, 0, 6, 3), {OldRank: 1}, ownOffer(3, 2, 6, 3)},
			want:   MembershipDecision{Plain: true, Round: 0, OldHosts: 3},
		},
		{
			// Disjoint generations share only the implicit round 0.
			name:   "resume-disjoint",
			offers: []MembershipOffer{ownOffer(3, 0, 8), ownOffer(3, 1, 4), ownOffer(3, 2, 2)},
			want:   MembershipDecision{Plain: true, Round: 0, OldHosts: 3},
		},
		{
			// Two ranks claiming one identity — e.g. a caller that left
			// every OldRank at 0 — is an error, not a silent reshard.
			name:   "duplicate-old-rank",
			offers: []MembershipOffer{offerFor(3, 0, 4), offerFor(3, 0, 4), offerFor(3, 2, 4)},
			wantIs: ErrDuplicateOldRank,
		},
		{
			// An identity outside the cluster that wrote the snapshots,
			// even from a rank that holds none.
			name:   "old-rank-out-of-range",
			offers: []MembershipOffer{offerFor(2, 0, 4), offerFor(2, 1, 4), {OldRank: 2}},
			wantIs: ErrOldRankRange,
		},
		{
			// Two survivors of a three-host cluster: never plain.
			name:   "depart-reshard",
			offers: []MembershipOffer{offerFor(3, 0, 4), offerFor(3, 2, 4)},
			want:   MembershipDecision{Round: 4, OldHosts: 3, Sources: []int{0, 0, 0}},
		},
		{
			// Replacement member with a wiped disk (FreshRank, no
			// snapshots): survivors cover everything, fresh rank sources
			// nothing.
			name: "replacement-fresh",
			offers: []MembershipOffer{
				offerFor(3, 0, 4),
				{OldRank: FreshRank},
				offerFor(3, 2, 4),
			},
			want: MembershipDecision{Round: 4, OldHosts: 3, Sources: []int{0, 0, 0}},
		},
		{
			// PullModel-style masks: each offer only covers its own old
			// range, so sources follow ownership and the highest round
			// every range is covered at wins.
			name: "pull-masks",
			offers: []MembershipOffer{
				{OldHosts: 3, OldRank: 0, Rounds: []RoundSources{{Round: 4, Mask: 0b001, SelfHeld: true}, {Round: 2, Mask: 0b001, SelfHeld: true}}},
				{OldHosts: 3, OldRank: 2, Rounds: []RoundSources{{Round: 4, Mask: 0b100, SelfHeld: true}, {Round: 2, Mask: 0b110, SelfHeld: true}}},
			},
			want: MembershipDecision{Round: 2, OldHosts: 3, Sources: []int{0, 1, 1}},
		},
		{
			// No offer carries history: fresh start at the new shape.
			name:   "all-fresh",
			offers: []MembershipOffer{{OldRank: FreshRank}, {OldRank: FreshRank}},
			want:   MembershipDecision{Round: 0},
		},
		{
			// Coverage exists at no round > 0: fresh start, not an error.
			name: "uncoverable",
			offers: []MembershipOffer{
				{OldHosts: 3, OldRank: 0, Rounds: []RoundSources{{Round: 4, Mask: 0b001, SelfHeld: true}}},
				{OldRank: FreshRank},
			},
			want: MembershipDecision{Round: 0},
		},
		{
			// Snapshots from two different cluster generations cannot be
			// reconciled automatically.
			name:    "conflicting-history",
			offers:  []MembershipOffer{offerFor(3, 0, 4), offerFor(2, 1, 4)},
			wantErr: "2-host cluster",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := decideMembership(tc.offers)
			if tc.wantIs != nil {
				if !errors.Is(err, tc.wantIs) {
					t.Fatalf("decideMembership = (%+v, %v), want %v", got, err, tc.wantIs)
				}
				return
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("decideMembership = (%+v, %v), want error containing %q", got, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Plain != tc.want.Plain || got.Round != tc.want.Round || got.OldHosts != tc.want.OldHosts {
				t.Fatalf("decideMembership = %+v, want %+v", got, tc.want)
			}
			if len(got.Sources) != len(tc.want.Sources) {
				t.Fatalf("sources = %v, want %v", got.Sources, tc.want.Sources)
			}
			for q := range got.Sources {
				if got.Sources[q] != tc.want.Sources[q] {
					t.Fatalf("sources = %v, want %v", got.Sources, tc.want.Sources)
				}
			}
		})
	}
}

// TestDecideMembershipPlainTie: when the plain round equals the best
// reshard round, plain wins — it keeps exact v3 restore semantics.
func TestDecideMembershipPlainTie(t *testing.T) {
	offers := []MembershipOffer{offerFor(2, 0, 4), offerFor(2, 1, 4)}
	d, err := decideMembership(offers)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Plain || d.Round != 4 {
		t.Fatalf("decideMembership = %+v, want plain at round 4", d)
	}
}

// TestCheckMembershipDecision: a rank rejects verdicts that contradict
// its own offer — the guard against a buggy or byzantine rank 0.
func TestCheckMembershipDecision(t *testing.T) {
	offer := MembershipOffer{OldHosts: 3, OldRank: 1, Rounds: []RoundSources{{Round: 4, Mask: 0b010, SelfHeld: true}}}
	cases := []struct {
		name    string
		d       MembershipDecision
		wantErr string
	}{
		{"plain-held", MembershipDecision{Plain: true, Round: 4, OldHosts: 3}, ""},
		{"plain-unheld", MembershipDecision{Plain: true, Round: 6, OldHosts: 3}, "does not hold"},
		{"fresh", MembershipDecision{Round: 0}, ""},
		{"reshard-ok", MembershipDecision{Round: 4, OldHosts: 3, Sources: []int{0, 1, 0}}, ""},
		{"reshard-unoffered", MembershipDecision{Round: 4, OldHosts: 3, Sources: []int{1, 1, 0}}, "without offering"},
		{"reshard-bad-source", MembershipDecision{Round: 4, OldHosts: 3, Sources: []int{0, 1, 7}}, "out-of-mesh"},
		{"reshard-short-sources", MembershipDecision{Round: 4, OldHosts: 3, Sources: []int{0}}, "1 sources for 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkMembershipDecision(tc.d, offer, 1, 3)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("checkMembershipDecision = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// negotiateMembership runs NegotiateMembership concurrently on every
// host of a fresh cluster and returns the per-host decisions.
func negotiateMembership(t *testing.T, offers []MembershipOffer) []MembershipDecision {
	t.Helper()
	hosts := len(offers)
	c := newCluster(t, hosts, 16, 2, RepModelOpt, "SUM")
	got := make([]MembershipDecision, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			got[h], errs[h] = c.syncs[h].NegotiateMembership(offers[h])
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
	return got
}

// TestNegotiateMembership: the full offer/decision round trip over an
// in-process mesh — every rank receives the same verdict, and the
// verdict matches what decideMembership picks from the same offers.
func TestNegotiateMembership(t *testing.T) {
	offers := []MembershipOffer{
		offerFor(3, 0, 4, 2),
		{OldRank: FreshRank}, // replacement with a wiped disk
		offerFor(3, 2, 4, 2),
	}
	want, err := decideMembership(offers)
	if err != nil {
		t.Fatal(err)
	}
	got := negotiateMembership(t, offers)
	for h, d := range got {
		if d.Plain != want.Plain || d.Round != want.Round || d.OldHosts != want.OldHosts || len(d.Sources) != len(want.Sources) {
			t.Fatalf("host %d decision %+v, want %+v", h, d, want)
		}
		for q := range d.Sources {
			if d.Sources[q] != want.Sources[q] {
				t.Fatalf("host %d sources %v, want %v", h, d.Sources, want.Sources)
			}
		}
	}
}

// TestNegotiateMembershipSingleHost: a one-host cluster needs no
// traffic; its own offer decides.
func TestNegotiateMembershipSingleHost(t *testing.T) {
	c := newCluster(t, 1, 8, 2, RepModelOpt, "SUM")
	d, err := c.syncs[0].NegotiateMembership(offerFor(1, 0, 4, 2))
	if err != nil || !d.Plain || d.Round != 4 {
		t.Fatalf("NegotiateMembership = (%+v, %v), want plain at round 4", d, err)
	}
}

// TestNegotiateResume: a plain restart of an unchanged cluster is the
// unchanged-shape case of membership negotiation. Every rank keeps its
// identity and offers its own snapshots (own-range masks); all ranks
// must agree on the highest round every rank can restore, degrading to
// 0 (fresh start) when the snapshot sets share nothing else.
func TestNegotiateResume(t *testing.T) {
	cases := []struct {
		name   string
		rounds [][]uint32
		want   uint32
	}{
		// All ranks checkpointed the same rounds: resume the newest.
		{"aligned", [][]uint32{{6, 3}, {6, 3}, {6, 3}}, 6},
		// One rank died before its round-6 save: fall back to the
		// newest common generation.
		{"straggler", [][]uint32{{6, 3}, {3}, {6, 3}}, 3},
		// A rank with a wiped disk forces a fresh start.
		{"wiped-rank", [][]uint32{{6, 3}, nil, {6, 3}}, 0},
		// Disjoint generations share only the implicit round 0.
		{"disjoint", [][]uint32{{8}, {4}, {2}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hosts := len(tc.rounds)
			offers := make([]MembershipOffer, hosts)
			for q, rs := range tc.rounds {
				offers[q] = ownOffer(hosts, q, rs...)
			}
			for h, d := range negotiateMembership(t, offers) {
				if !d.Plain || d.Round != tc.want {
					t.Fatalf("host %d decided %+v, want plain at round %d", h, d, tc.want)
				}
			}
		})
	}
}

// TestNegotiateResumeSingleHost: a one-host restart needs no traffic
// and picks its own newest snapshot, whatever order it lists them in.
func TestNegotiateResumeSingleHost(t *testing.T) {
	c := newCluster(t, 1, 8, 2, RepModelOpt, "SUM")
	d, err := c.syncs[0].NegotiateMembership(ownOffer(1, 0, 2, 4))
	if err != nil || !d.Plain || d.Round != 4 {
		t.Fatalf("NegotiateMembership = (%+v, %v), want plain at round 4", d, err)
	}
}

// TestMigrateRanges: three survivors of a four-host cluster assemble
// the full canonical model from partial local copies. Each new rank
// starts with only the rows its snapshots cover; after MigrateRanges
// every rank holds the complete reference model, bit-exact.
func TestMigrateRanges(t *testing.T) {
	const nodes, dim, oldHosts = 23, 4, 4
	c := newCluster(t, 3, nodes, dim, PullModel, "SUM")
	oldPart, err := graph.NewPartition(nodes, oldHosts)
	if err != nil {
		t.Fatal(err)
	}
	ref := model.New(nodes, dim)
	ref.InitRandom(99)

	// Old ranks 0 and 1 survive as new ranks 0 and 1; old ranks 2 and 3
	// died but rank 2 (a fresh replacement) holds nothing, so their
	// ranges are sourced from rank 0, which kept replica copies.
	d := MembershipDecision{Round: 4, OldHosts: oldHosts, Sources: []int{0, 1, 0, 0}}
	canon := make([]*model.Model, 3)
	for h := range canon {
		canon[h] = model.New(nodes, dim)
		for q, src := range d.Sources {
			if src != h {
				continue
			}
			lo, hi := oldPart.MasterRange(q)
			for n := lo; n < hi; n++ {
				copy(canon[h].EmbRow(int32(n)), ref.EmbRow(int32(n)))
				copy(canon[h].CtxRow(int32(n)), ref.CtxRow(int32(n)))
			}
		}
	}

	errs := make([]error, 3)
	var wg sync.WaitGroup
	for h := 0; h < 3; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			errs[h] = c.syncs[h].MigrateRanges(d, oldPart.MasterRange, canon[h])
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
	for h := 0; h < 3; h++ {
		for n := int32(0); n < nodes; n++ {
			for i, v := range canon[h].EmbRow(n) {
				if v != ref.EmbRow(n)[i] {
					t.Fatalf("host %d: emb row %d differs after migration", h, n)
				}
			}
			for i, v := range canon[h].CtxRow(n) {
				if v != ref.CtxRow(n)[i] {
					t.Fatalf("host %d: ctx row %d differs after migration", h, n)
				}
			}
		}
	}
}

// TestMigrateRangesNoop: plain and fresh-start decisions migrate
// nothing and touch no transport state.
func TestMigrateRangesNoop(t *testing.T) {
	c := newCluster(t, 2, 8, 2, RepModelOpt, "SUM")
	m := model.New(8, 2)
	if err := c.syncs[0].MigrateRanges(MembershipDecision{Plain: true, Round: 4}, nil, m); err != nil {
		t.Fatal(err)
	}
	if err := c.syncs[0].MigrateRanges(MembershipDecision{Round: 0}, nil, m); err != nil {
		t.Fatal(err)
	}
}

// TestMembershipOfferRoundTrip: wire encode/parse of offers and
// decisions, including the fresh-rank sentinel.
func TestMembershipOfferRoundTrip(t *testing.T) {
	offers := []MembershipOffer{
		{OldHosts: 3, OldRank: 2, Rounds: []RoundSources{{Round: 4, Mask: 0b111, SelfHeld: true}, {Round: 6, Mask: 0b100}}},
		{OldRank: FreshRank},
	}
	for _, o := range offers {
		got, err := parseMembershipOffer(membershipOfferMessage(o))
		if err != nil {
			t.Fatal(err)
		}
		if got.OldHosts != o.OldHosts || got.OldRank != o.OldRank || len(got.Rounds) != len(o.Rounds) {
			t.Fatalf("offer round trip: got %+v, want %+v", got, o)
		}
		for i := range o.Rounds {
			if got.Rounds[i] != o.Rounds[i] {
				t.Fatalf("offer round trip: round %d got %+v, want %+v", i, got.Rounds[i], o.Rounds[i])
			}
		}
	}
	decisions := []MembershipDecision{
		{Plain: true, Round: 6, OldHosts: 3},
		{Round: 0},
		{Round: 4, OldHosts: 3, Sources: []int{0, 0, 1}},
	}
	for _, d := range decisions {
		got, err := parseMembershipDecision(membershipDecisionMessage(d))
		if err != nil {
			t.Fatal(err)
		}
		if got.Plain != d.Plain || got.Round != d.Round || len(got.Sources) != len(d.Sources) {
			t.Fatalf("decision round trip: got %+v, want %+v", got, d)
		}
		if d.Round > 0 && got.OldHosts != d.OldHosts {
			t.Fatalf("decision round trip: got %+v, want %+v", got, d)
		}
	}
}

// randomOffers draws one cluster's offer set: 1–8 new ranks over a 1–8
// host old cluster, ranks keeping an old identity, holding none
// (fresh), or — rarely — claiming one twice; each offer lists a random
// subset of the candidate rounds, its masks full (RepModel), own-range
// (PullModel) or arbitrary, and a rank may hold no snapshot at all.
func randomOffers(r *xrand.Rand) []MembershipOffer {
	n, oldHosts := 1+r.Intn(8), 1+r.Intn(8)
	unchanged := r.Intn(2) == 0
	if unchanged {
		n = oldHosts
	}
	ids := make([]int, oldHosts)
	for i := range ids {
		ids[i] = i
	}
	for i := len(ids) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
	maskKind := r.Intn(3)
	full := uint64(1)<<uint(oldHosts) - 1
	offers := make([]MembershipOffer, n)
	for i := range offers {
		o := MembershipOffer{OldRank: FreshRank}
		switch {
		case unchanged:
			o.OldRank = i
		case i < oldHosts && r.Intn(3) > 0:
			o.OldRank = ids[i]
		}
		if r.Intn(20) == 0 {
			o.OldRank = r.Intn(oldHosts + 1) // a duplicate or out-of-range claim
		}
		offers[i] = o
		if r.Intn(6) == 0 {
			continue // no usable snapshot
		}
		o.OldHosts = oldHosts
		for _, round := range []uint32{2, 4, 6, 8} {
			if r.Intn(3) == 0 {
				continue // missing round
			}
			rs := RoundSources{Round: round, SelfHeld: o.OldRank >= 0 && o.OldRank < oldHosts && r.Intn(4) > 0}
			switch maskKind {
			case 0:
				rs.Mask = full
			case 1:
				if rs.SelfHeld {
					rs.Mask = 1 << uint(o.OldRank)
				}
			default:
				rs.Mask = r.Uint64() & full
			}
			if rs.SelfHeld {
				rs.Mask |= 1 << uint(o.OldRank)
			}
			if rs.Mask != 0 || rs.SelfHeld {
				o.Rounds = append(o.Rounds, rs)
			}
		}
		offers[i] = o
	}
	return offers
}

// TestDecideMembershipProperties: over random offer sets, every
// decision rank 0 reaches passes every member's own check, and the
// decision does not depend on which of ranks 1..n−1 sent which offer
// beyond identity: permuting their offers keeps the verdict's class
// (the same identity error, or success) and the agreed cut round, and
// a plain restore stays plain exactly when every rank still holds its
// own old identity.
func TestDecideMembershipProperties(t *testing.T) {
	r := xrand.New(25)
	errClass := func(err error) error {
		for _, e := range []error{ErrDuplicateOldRank, ErrOldRankRange} {
			if errors.Is(err, e) {
				return e
			}
		}
		return err
	}
	checkAll := func(d MembershipDecision, offers []MembershipOffer) {
		t.Helper()
		for h, o := range offers {
			if err := checkMembershipDecision(d, o, h, len(offers)); err != nil {
				t.Fatalf("offers %+v: decision %+v fails rank %d's check: %v", offers, d, h, err)
			}
		}
	}
	kept := func(offers []MembershipOffer) bool {
		for i, o := range offers {
			if o.OldRank != i {
				return false
			}
		}
		return true
	}
	var plain, reshard, fresh, failed int
	for trial := 0; trial < 3000; trial++ {
		offers := randomOffers(r)
		d, err := decideMembership(offers)
		switch {
		case err != nil:
			failed++
		case d.Plain && d.Round > 0:
			plain++
		case d.Reshard():
			reshard++
		default:
			fresh++
		}
		if err == nil {
			checkAll(d, offers)
		}
		perm := append([]MembershipOffer(nil), offers...)
		for i := len(perm) - 1; i > 1; i-- {
			j := 1 + r.Intn(i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		d2, err2 := decideMembership(perm)
		if (err == nil) != (err2 == nil) || err != nil && errClass(err) != errClass(err2) {
			t.Fatalf("offers %+v: error %v, permuted %v", offers, err, err2)
		}
		if err != nil {
			continue
		}
		checkAll(d2, perm)
		if d2.Round != d.Round {
			t.Fatalf("offers %+v: cut round %d, permuted %d", offers, d.Round, d2.Round)
		}
		if d.Plain && d.Round > 0 && d2.Plain != kept(perm) {
			t.Fatalf("offers %+v: plain restore, permuted plain=%v with identities kept=%v", offers, d2.Plain, kept(perm))
		}
		if d.Reshard() && d2.Reshard() && d2.OldHosts != d.OldHosts {
			t.Fatalf("offers %+v: reshard from %d old hosts, permuted %d", offers, d.OldHosts, d2.OldHosts)
		}
	}
	if plain == 0 || reshard == 0 || fresh == 0 || failed == 0 {
		t.Fatalf("generator missed a verdict: %d plain, %d reshard, %d fresh, %d identity errors", plain, reshard, fresh, failed)
	}
	t.Logf("%d plain, %d reshard, %d fresh, %d identity errors", plain, reshard, fresh, failed)
}
