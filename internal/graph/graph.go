// Package graph models the GraphWord2Vec word graph's distribution
// metadata: which host owns (holds the *master proxy* of) each vocabulary
// node, and which nodes each host mirrors.
//
// Following the paper (§4.2–4.3), edges are never materialised — they are
// generated on the fly from the worklist each round — so the "graph" a
// host sees is its full set of node proxies plus the per-round bit-vector
// of touched nodes. Masters are assigned by contiguous range: host 0 owns
// the first ⌈V/H⌉ node ids, host 1 the next, and so on, mirroring the
// paper's Figure 4 ("P1 has the master proxies for the first contiguous
// chunk or partition of the nodes").
package graph

import "fmt"

// Partition maps every node to its master host via contiguous ranges.
type Partition struct {
	numNodes int
	numHosts int
	// cuts[h] is the first node id owned by host h; cuts[numHosts] = V.
	cuts []int
}

// NewPartition creates a contiguous partition of numNodes nodes across
// numHosts hosts. Ranges are balanced to within one node.
func NewPartition(numNodes, numHosts int) (*Partition, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("graph: numNodes must be positive, got %d", numNodes)
	}
	if numHosts <= 0 {
		return nil, fmt.Errorf("graph: numHosts must be positive, got %d", numHosts)
	}
	p := &Partition{numNodes: numNodes, numHosts: numHosts, cuts: make([]int, numHosts+1)}
	for h := 0; h <= numHosts; h++ {
		p.cuts[h] = numNodes * h / numHosts
	}
	return p, nil
}

// NumNodes returns the node count.
func (p *Partition) NumNodes() int { return p.numNodes }

// NumHosts returns the host count.
func (p *Partition) NumHosts() int { return p.numHosts }

// MasterOf returns the host owning node's master proxy.
func (p *Partition) MasterOf(node int) int {
	if node < 0 || node >= p.numNodes {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", node, p.numNodes))
	}
	// Ranges are uniform to within one node, so a direct computation
	// lands on the right host or its neighbour; adjust locally instead
	// of binary searching.
	h := node * p.numHosts / p.numNodes
	for h > 0 && node < p.cuts[h] {
		h--
	}
	for h < p.numHosts-1 && node >= p.cuts[h+1] {
		h++
	}
	return h
}

// MasterRange returns the half-open node-id range [lo, hi) owned by host.
func (p *Partition) MasterRange(host int) (lo, hi int) {
	if host < 0 || host >= p.numHosts {
		panic(fmt.Sprintf("graph: host %d out of range [0,%d)", host, p.numHosts))
	}
	return p.cuts[host], p.cuts[host+1]
}

// Validate checks partition invariants: ranges are contiguous,
// non-overlapping, cover [0, V), and every node's MasterOf lies within
// the claimed range. Used by tests and the trainer's startup checks.
func (p *Partition) Validate() error {
	if p.cuts[0] != 0 || p.cuts[p.numHosts] != p.numNodes {
		return fmt.Errorf("graph: partition does not cover node range: cuts=%v", p.cuts)
	}
	for h := 0; h < p.numHosts; h++ {
		if p.cuts[h] > p.cuts[h+1] {
			return fmt.Errorf("graph: partition range for host %d inverted", h)
		}
	}
	return nil
}
