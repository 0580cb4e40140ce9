package gluon

import (
	"bytes"
	"testing"
)

// FuzzParseMembershipOffer: an offer frame is either rejected or
// re-encodes to exactly the bytes it was parsed from.
func FuzzParseMembershipOffer(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		o, err := parseMembershipOffer(payload)
		if err != nil {
			return
		}
		if got := membershipOfferMessage(o); !bytes.Equal(got, payload) {
			t.Fatalf("offer %+v re-encodes to %x, parsed from %x", o, got, payload)
		}
	})
}

// FuzzParseMembershipDecision: a decision frame is either rejected or
// re-encodes to exactly the bytes it was parsed from.
func FuzzParseMembershipDecision(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		d, err := parseMembershipDecision(payload)
		if err != nil {
			return
		}
		if got := membershipDecisionMessage(d); !bytes.Equal(got, payload) {
			t.Fatalf("decision %+v re-encodes to %x, parsed from %x", d, got, payload)
		}
	})
}
