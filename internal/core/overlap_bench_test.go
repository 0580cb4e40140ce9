package core

import (
	"testing"
)

// BenchmarkSyncRoundOverlap compares the round loop's critical-path sync
// cost with and without the double-buffered overlap pipeline on a
// simulated 4-host RepModel-Opt cluster (the sparse regime the paper's
// sync rounds live in). The headline metric is sync-ms/round — the
// per-round sync critical path — which the overlapped variant shrinks by
// hiding the round behind gated next-round compute; hidden-ms/round
// reports how much was hidden per host.
func BenchmarkSyncRoundOverlap(b *testing.B) {
	// Enough corpus per round that compute dominates the round (the
	// regime training actually runs in — on perfbench's text-w2v
	// workload core.compute_s is nearly all of the round and core.sync_s
	// a small share); an overlap win means hiding sync behind that
	// compute, not shrinking sync itself.
	v, neg, c := testData(b, repeatedText(512))
	for _, bench := range []struct {
		name    string
		overlap bool
	}{
		{"serialized", false},
		{"overlapped", true},
	} {
		b.Run(bench.name, func(b *testing.B) {
			cfg := smallConfig(4)
			cfg.Epochs = 1
			cfg.SyncRounds = 8
			cfg.SyncOverlap = bench.overlap
			var critSync, hidden float64
			rounds := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := NewTrainer(cfg, v, neg, c, 32)
				if err != nil {
					b.Fatal(err)
				}
				res, err := tr.Run()
				if err != nil {
					b.Fatal(err)
				}
				critSync += res.CriticalSyncSeconds
				for _, s := range res.OverlapSeconds {
					hidden += s / float64(cfg.Hosts)
				}
				rounds += cfg.Epochs * cfg.SyncRounds
			}
			b.ReportMetric(1e3*critSync/float64(rounds), "sync-ms/round")
			b.ReportMetric(1e3*hidden/float64(rounds), "hidden-ms/round")
		})
	}
}
