package main

import (
	"fmt"
	"math"
	"path/filepath"
)

// closureTolerance is the largest share of a rank's wall time the
// ledger may leave unaccounted (compute, sync, inspect, input,
// checkpoint and gather must cover the rest).
const closureTolerance = 0.05

// layerMetrics reports the per-layer ledger of a traced run: counters
// and timers of the traced passes, the accounting closure per rank, the
// tracing overhead against the untraced passes, and the kernel-only,
// single-rank and in-process reference runs.
func layerMetrics(w workload, passes []passRecord, tr *tracer, ck *checks, dir string, put func(name, unit string, v float64)) error {
	traced := filterPasses(passes, true)
	if len(traced) == 0 {
		return fmt.Errorf("no traced training pass completed")
	}
	untraced := filterPasses(passes, false)
	med := func(f func(passRecord) float64) float64 { return median(collect(traced, f)) }
	sumRanks := func(p *trainPass, f func(*rankLedger) float64) float64 {
		s := 0.0
		for _, r := range p.ranks {
			s += f(r)
		}
		return s
	}
	perPass := func(f func(*rankLedger) float64) float64 {
		return med(func(r passRecord) float64 { return sumRanks(r.p, f) })
	}

	put("input.load_s", "s", median(collect(passes, func(r passRecord) float64 { return r.p.loadS })))
	put("input.epoch_tokens_s", "s", perPass(func(r *rankLedger) float64 { return r.inputS }))
	put("input.tokens", "count", med(func(r passRecord) float64 {
		t := 0.0
		for h := range r.p.src.tokens {
			t += float64(r.p.src.tokens[h].Load())
		}
		return t
	}))

	pairs := med(func(r passRecord) float64 { return float64(r.p.pairs) })
	compute := perPass(func(r *rankLedger) float64 { return r.engine.ComputeSeconds })
	put("sgns.pairs", "count", pairs)
	put("core.compute_s", "s", compute)
	put("sgns.mpairs_per_compute_s", "Mpairs/s", pairs/1e6/compute)
	kernel, err := kernelMpairsPerS(w, traced[0].p)
	if err != nil {
		return fmt.Errorf("kernel: %w", err)
	}
	put("sgns.kernel_mpairs_per_s", "Mpairs/s", kernel)

	sendBytes := perPass(func(r *rankLedger) float64 { return float64(r.transport.sendBytes.Load()) })
	put("gluon.send_calls", "count", perPass(func(r *rankLedger) float64 { return float64(r.transport.sendCalls.Load()) }))
	put("gluon.send_bytes", "bytes", sendBytes)
	put("gluon.send_s", "s", perPass(func(r *rankLedger) float64 { return float64(r.transport.sendNs.Load()) / 1e9 }))
	put("gluon.recv_wait_s", "s", perPass(func(r *rankLedger) float64 { return float64(r.transport.recvWaitNs.Load()) / 1e9 }))
	put("gluon.reduce_bytes", "bytes", perPass(func(r *rankLedger) float64 { return float64(r.engine.Comm.ReduceBytes) }))
	put("gluon.bcast_bytes", "bytes", perPass(func(r *rankLedger) float64 { return float64(r.engine.Comm.BroadcastBytes) }))
	put("gluon.control_bytes", "bytes", perPass(func(r *rankLedger) float64 { return float64(r.engine.Comm.ControlBytes) }))
	put("gluon.bytes_per_mpair", "bytes/Mpair", sendBytes/(pairs/1e6))
	put("gluon.rounds", "count", med(func(r passRecord) float64 { return float64(r.p.ranks[0].engine.Comm.Rounds) }))
	put("gluon.session_heals", "count", perPass(func(r *rankLedger) float64 { return float64(r.session.Heals) }))
	put("gluon.session_replays", "count", perPass(func(r *rankLedger) float64 { return float64(r.session.Replayed) }))
	put("core.sync_s", "s", perPass(func(r *rankLedger) float64 { return r.engine.SyncSeconds }))
	put("core.inspect_s", "s", perPass(func(r *rankLedger) float64 { return r.inspectS }))
	put("core.overlap_hidden_s", "s", perPass(func(r *rankLedger) float64 { return r.engine.OverlapSeconds }))

	var epochs []float64
	for _, r := range traced {
		for _, led := range r.p.ranks {
			prev := led.start
			for _, e := range led.epochEnds {
				epochs = append(epochs, e.Sub(prev).Seconds())
				prev = e
			}
		}
	}
	put("core.epoch_s.p50", "s", median(epochs))
	put("core.epoch_s.max", "s", maxOf(epochs))
	put("core.rank_skew_s", "s", med(func(r passRecord) float64 {
		lo, hi := r.p.ranks[0].end, r.p.ranks[0].end
		for _, led := range r.p.ranks {
			if led.end.Before(lo) {
				lo = led.end
			}
			if led.end.After(hi) {
				hi = led.end
			}
		}
		return hi.Sub(lo).Seconds()
	}))
	put("core.gather_s", "s", med(func(r passRecord) float64 {
		g := 0.0
		for _, led := range r.p.ranks {
			g = max(g, led.gather())
		}
		return g
	}))

	// Accounting closure: every rank's wall time is compute + sync +
	// inspect + input + checkpoint + gather + residual, and the residual
	// of each rank's median traced pass must stay within the tolerance:
	// a stall of the shared host that falls between the timed calls
	// inflates one pass's residual, not the ledger's completeness. The
	// reported share is the one furthest from zero, with its sign
	// (negative: counted twice).
	worst := 0.0
	for h := range traced[0].p.ranks {
		share := median(collect(traced, func(r passRecord) float64 {
			led := r.p.ranks[h]
			return led.residual() / led.wall()
		}))
		if math.Abs(share) > math.Abs(worst) {
			worst = share
		}
		if math.Abs(share) > closureTolerance {
			ck.failf("closure: rank %d's median traced pass leaves %.1f%% of its wall time unaccounted", h, 100*share)
		}
	}
	put("core.residual_share", "ratio", worst)

	one, err := singleRankMpairsPerS(w, traced[0].p, filepath.Join(dir, "ckpt1"))
	if err != nil {
		return fmt.Errorf("single-rank run: %w", err)
	}
	put("core.scaling_eff", "ratio", median(collect(untracedOr(untraced, traced), passRecord.mpairsPerS))/(2*one))

	same, err := inProcessIdentical(w, traced[0].p)
	if err != nil {
		return fmt.Errorf("in-process run: %w", err)
	}
	if !same {
		ck.failf("the TCP-trained model differs from the in-process model of the same configuration")
	}

	put("checkpoint.saves", "count", perPass(func(r *rankLedger) float64 {
		if r.sink == nil {
			return 0
		}
		return float64(r.sink.saves)
	}))
	put("checkpoint.save_s", "s", perPass(func(r *rankLedger) float64 {
		if r.sink == nil {
			return 0
		}
		return float64(r.sink.ns) / 1e9
	}))
	put("checkpoint.bytes", "bytes", perPass(func(r *rankLedger) float64 {
		if r.sink == nil {
			return 0
		}
		return float64(r.sink.bytes)
	}))

	put("model.save_s", "s", med(func(r passRecord) float64 { return r.fq.saveS }))
	put("model.load_s", "s", med(func(r passRecord) float64 { return r.fq.loadS }))
	put("index.normalize_s", "s", med(func(r passRecord) float64 { return r.fq.normalizeS }))
	put("index.hnsw_build_s", "s", med(func(r passRecord) float64 { return r.fq.hnswS }))

	thr := func(ps []passRecord) float64 { return median(collect(ps, passRecord.mpairsPerS)) }
	overhead := 0.0
	if len(untraced) > 0 {
		overhead = 1 - thr(traced)/thr(untraced)
	}
	put("trace.overhead_share", "ratio", overhead)
	return nil
}

func untracedOr(untraced, traced []passRecord) []passRecord {
	if len(untraced) > 0 {
		return untraced
	}
	return traced
}
