package gluon

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// goldenSeeds returns the pinned frames whose names start with prefix,
// the fuzz targets' seed corpus.
func goldenSeeds(f *testing.F, prefix string) [][]byte {
	f.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, line := range strings.Split(string(data), "\n") {
		name, hexStr, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok || !strings.HasPrefix(name, prefix) {
			continue
		}
		raw, err := hex.DecodeString(hexStr)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	if len(seeds) == 0 {
		f.Fatalf("no %s* frames in %s", prefix, goldenPath)
	}
	return seeds
}

// FuzzParseMembershipOffer: an offer frame is either rejected or
// re-encodes to exactly the bytes it was parsed from.
func FuzzParseMembershipOffer(f *testing.F) {
	for _, s := range goldenSeeds(f, "membership-offer") {
		f.Add(s)
	}
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
	for _, s := range goldenSeeds(f, "membership-decision") {
		f.Add(s)
	}
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
