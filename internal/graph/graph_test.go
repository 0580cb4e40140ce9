package graph

import (
	"testing"
	"testing/quick"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/xrand"
)

func TestNewPartitionErrors(t *testing.T) {
	if _, err := NewPartition(0, 4); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewPartition(10, 0); err == nil {
		t.Error("zero hosts accepted")
	}
	if _, err := NewPartition(-5, 2); err == nil {
		t.Error("negative nodes accepted")
	}
}

func TestPartitionInvariantsProperty(t *testing.T) {
	f := func(nodesRaw uint16, hostsRaw uint8) bool {
		nodes := int(nodesRaw)%10000 + 1
		hosts := int(hostsRaw)%64 + 1
		p, err := NewPartition(nodes, hosts)
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		// Every node maps to exactly the host whose range contains it.
		total := 0
		for h := 0; h < hosts; h++ {
			lo, hi := p.MasterRange(h)
			total += hi - lo
			if p.OwnedCount(h) != hi-lo {
				return false
			}
			for n := lo; n < hi; n++ {
				if p.MasterOf(n) != h {
					return false
				}
			}
		}
		if total != nodes {
			return false
		}
		// Balance within one node.
		min, max := nodes, 0
		for h := 0; h < hosts; h++ {
			c := p.OwnedCount(h)
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMasterOfBoundsPanics(t *testing.T) {
	p, err := NewPartition(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MasterOf(%d) did not panic", n)
				}
			}()
			p.MasterOf(n)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MasterRange(-1) did not panic")
			}
		}()
		p.MasterRange(-1)
	}()
}

func TestMoreHostsThanNodes(t *testing.T) {
	p, err := NewPartition(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	owned := 0
	for h := 0; h < 8; h++ {
		owned += p.OwnedCount(h)
	}
	if owned != 3 {
		t.Errorf("total owned = %d, want 3", owned)
	}
}

func TestTouchedPerOwnerRouting(t *testing.T) {
	p, err := NewPartition(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	touched := bitset.New(100)
	r := xrand.New(9)
	want := map[int]bool{}
	for i := 0; i < 30; i++ {
		n := r.Intn(100)
		touched.Set(n)
		want[n] = true
	}
	perOwner := p.TouchedPerOwner(touched)
	// Union of per-owner sets == touched, and each entry is owned.
	seen := 0
	for h, bs := range perOwner {
		bs.ForEach(func(n int) {
			seen++
			if p.MasterOf(n) != h {
				t.Errorf("node %d routed to host %d, owner is %d", n, h, p.MasterOf(n))
			}
			if !want[n] {
				t.Errorf("node %d in per-owner set but not touched", n)
			}
		})
	}
	if seen != len(want) {
		t.Errorf("routed %d nodes, touched %d", seen, len(want))
	}
}

func TestTouchedPerOwnerSizeMismatchPanics(t *testing.T) {
	p, _ := NewPartition(10, 2)
	defer func() {
		if recover() == nil {
			t.Error("size mismatch did not panic")
		}
	}()
	p.TouchedPerOwner(bitset.New(11))
}

func TestReplicationFactor(t *testing.T) {
	p, _ := NewPartition(100, 8)
	if p.ReplicationFactor() != 8 {
		t.Errorf("ReplicationFactor = %v", p.ReplicationFactor())
	}
}

// OwnedCount returns the number of nodes host owns.
func (p *Partition) OwnedCount(host int) int {
	lo, hi := p.MasterRange(host)
	return hi - lo
}

// ReplicationFactor returns the average number of proxies per node under
// the fully replicated model: every host holds a proxy for every node, so
// the factor equals the host count. The paper cites replication factor as
// one of the causes of communication volume growth (§5.5); PullModel
// reduces the *materialised* replicas to the accessed set.
func (p *Partition) ReplicationFactor() float64 { return float64(p.numHosts) }

// TouchedPerOwner splits a host's touched-node bit-vector into per-owner
// bit-vectors restricted to each owner's master range. This is the
// routing step of the sparse reduce: host h sends node n's delta only to
// MasterOf(n).
func (p *Partition) TouchedPerOwner(touched *bitset.Bitset) []*bitset.Bitset {
	if touched.Len() != p.numNodes {
		panic("graph: touched bit-vector size mismatch")
	}
	out := make([]*bitset.Bitset, p.numHosts)
	for h := range out {
		out[h] = bitset.New(p.numNodes)
	}
	touched.ForEach(func(n int) {
		out[p.MasterOf(n)].Set(n)
	})
	return out
}
