package gluon

import (
	"testing"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/xrand"
)

// benchTouched builds one sparse per-host update pattern: touchedPerHost
// random nodes perturbed on each host (deterministic across runs).
func benchTouched(c *cluster, touchedPerHost int) []*bitset.Bitset {
	r := xrand.New(7)
	touched := make([]*bitset.Bitset, c.hosts)
	for h := 0; h < c.hosts; h++ {
		nodes := make([]int, touchedPerHost)
		for i := range nodes {
			nodes[i] = r.Intn(c.nodes)
		}
		touched[h] = c.perturb(h, nodes, 0.01)
	}
	return touched
}

// BenchmarkSyncRound measures one full synchronisation round (all hosts,
// in-process transport) per mode on a sparse update pattern:
// 4 hosts, a 100k-node vocabulary, dim 100, 100 touched nodes per host
// (~0.1% density — the RepModel-Opt regime the paper's sparse rounds live
// in). The sparse-mode cells are dominated by set iteration and frame
// encode/decode, the Naive cells by dense payload volume.
func BenchmarkSyncRound(b *testing.B) {
	const hosts, nodes, dim, perHost = 4, 100_000, 100, 100
	for _, mode := range []Mode{RepModelNaive, RepModelOpt, PullModel} {
		b.Run(mode.String(), func(b *testing.B) {
			c := newCluster(b, hosts, nodes, dim, mode, "MC")
			touched := benchTouched(c, perHost)
			var access []*bitset.Bitset
			if mode == PullModel {
				// Next-round reads: a superset of the touched sets.
				access = make([]*bitset.Bitset, hosts)
				for h := range access {
					access[h] = touched[h].Clone()
					access[h].Or(touched[(h+1)%hosts])
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.syncAll(b, uint32(i), touched, access)
			}
		})
	}
}
