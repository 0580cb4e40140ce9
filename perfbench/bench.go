package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"graphword2vec/internal/serve"
)

// trainSeeds is how many training seeds the passes of a run cycle
// through, all derived from the benchmark seed.
const trainSeeds = 3

// latencyWindow is one measured stretch at the fixed offered rate: at
// queryRate it holds enough requests for a p99 with ten samples beyond
// it.
const latencyWindow = time.Second

// warmup precedes the windows on a fresh server: it opens the client
// connections and fills the result cache before anything is timed.
const warmup = 250 * time.Millisecond

// passRecord is what one training pass contributes to the metrics.
type passRecord struct {
	p       *trainPass
	traced  bool
	quality float64
	fq      firstQuery
	// heapMB is the largest live heap the sampler saw from the end of
	// the previous pass to the end of this pass's capacity bursts.
	heapMB float64
}

func (r passRecord) mpairsPerS() float64 { return float64(r.p.pairs) / 1e6 / r.p.wallS }

// tally counts operations: a rank run in training, a request in serving.
type tally struct{ attempted, failed int }

func (t *tally) add(attempted, failed int) {
	t.attempted += attempted
	t.failed += failed
}

// run executes one benchmark run of workload w and returns its result
// and diagnostics. Files go under dir, which the caller removes.
//
// A run repeats rounds of: set up, train over TCP, gather, save, load,
// index, answer a first query, (except on serve-reload) serve one
// latency window at the fixed rate, and measure the server's capacity
// with two bursts. Passes cycle through trainSeeds training seeds;
// quality is the mean over them, since one seed's accuracy moves by a
// fifth from the next seed's. Spreading training passes, latency
// windows and bursts over the whole run lets a burst of load from other
// tenants of the host spoil a few samples rather than a whole phase;
// every figure is a median over the samples. serve-reload then serves
// its windows while a second model file is reloaded, each followed by
// one more burst.
func run(w workload, seed uint64, budget time.Duration, trace bool, dir string) (*result, map[string]float64, error) {
	start := time.Now()
	steal := startSteal()
	heap := startHeapSampler()
	defer heap.stop()
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	var ck checks
	var ops tally

	var passes []passRecord
	// qps holds the rates the server completed capacity bursts at.
	var qps []float64
	var windows []loadResult
	var srv *served
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	modelPath := filepath.Join(dir, "serve", "model.bin")
	var reloadPaths [2]string
	// Passes of one training seed must train the same pairs and the same
	// model bytes; quality is scored once per seed.
	type seedRecord struct {
		pairs   int64
		model   []byte
		quality float64
	}
	bySeed := map[uint64]*seedRecord{}

	for i := 0; ; i++ {
		// In a traced run every other pass is traced, so the untraced
		// passes between them measure the tracing overhead.
		traced := trace && i%2 == 1
		var ptr *tracer
		if traced {
			ptr = tr
		}
		runID := fmt.Sprintf("pass%d", i)
		// serve-reload swaps the model files of the first two seeds.
		trainSeed := seed + 1 + uint64(i%trainSeeds)
		p, trs, err := setupPass(w, seed, trainSeed)
		if err != nil {
			return nil, nil, err
		}
		ops.add(p.cfg.Hosts, 0)
		if err := runPass(w, p, trs, ptr, runID, filepath.Join(dir, "ckpt")); err != nil {
			ops.add(0, 1)
			ck.failf("training pass %d: %v", i, err)
			break
		}
		mb, err := modelBytes(p.canonical)
		if err != nil {
			return nil, nil, err
		}
		sr := bySeed[trainSeed]
		if sr == nil {
			q, err := p.in.quality(p.canonical)
			if err != nil {
				return nil, nil, fmt.Errorf("quality: %w", err)
			}
			if q < w.qualityFloor {
				ck.failf("training seed %d: quality %.4f below the floor %.4f", trainSeed, q, w.qualityFloor)
			}
			sr = &seedRecord{pairs: p.pairs, model: mb, quality: q}
			bySeed[trainSeed] = sr
		}
		if p.pairs != sr.pairs {
			ck.failf("pass %d trained %d pairs, an earlier pass of the same seed %d", i, p.pairs, sr.pairs)
		}
		if !bytes.Equal(mb, sr.model) {
			ck.failf("pass %d trained a model that differs from an earlier pass of the same seed", i)
		}

		if srv != nil {
			srv.close()
			srv = nil
		}
		s, fq, err := serveModel(p.canonical, p.in.voc, modelPath, ptr, runID, tr)
		ops.add(1, 0)
		if err != nil {
			ops.add(0, 1)
			ck.failf("pass %d: %v", i, err)
			break
		}
		srv = s
		if w.reload && i < 2 {
			reloadPaths[i] = filepath.Join(dir, fmt.Sprintf("model%d.bin", i))
			if err := copyModel(modelPath, reloadPaths[i]); err != nil {
				return nil, nil, err
			}
		}
		// The first traced pass keeps its inputs for the reference runs
		// of the ledger.
		if !traced || len(filterPasses(passes, true)) > 0 {
			p.release()
		}
		if !w.reload {
			ops.add(countLoad(openLoop(srv, queryRate, warmup, seed*7919+uint64(2*i)), &ck))
			win := openLoop(srv, queryRate, latencyWindow, seed*7919+uint64(2*i+1))
			ops.add(countLoad(win, &ck))
			windows = append(windows, win)
		}
		for b := uint64(0); b < 2; b++ {
			rate, burst := capacity(srv, seed*7919+1<<20+2*uint64(i)+b)
			ops.add(countLoad(burst, &ck))
			qps = append(qps, rate)
		}
		heapMB := heap.take()
		passes = append(passes, passRecord{p: p, traced: traced, quality: sr.quality, fq: fq, heapMB: heapMB})
		logf("pass %d: setup %.3fs train %.3fs %d pairs quality %.4f first query %.3fs (index %.3fs) peak heap %.1fMiB capacity %.0f/s",
			i, p.setupS, p.wallS, p.pairs, sr.quality, fq.totalS, fq.indexS, heapMB, qps[len(qps)-1])
		if len(passes) >= w.minTrains && time.Since(start).Seconds() >= w.trainShare*budget.Seconds() {
			break
		}
	}
	if len(passes) == 0 || srv == nil {
		return &result{Correct: false, Attempted: max(ops.attempted, 1), Failed: max(ops.failed, 1), Metrics: map[string]metric{}},
			map[string]float64{"host.steal_share": steal.share()}, nil
	}

	var reloadS, reloadHeapMB []float64
	if w.reload {
		// Each window swaps the served file to the other model and
		// reloads it while the queries flow, so every window measures
		// queries beside an index build.
		ops.add(countLoad(openLoop(srv, queryRate, warmup, seed*7919), &ck))
		heap.take()
		// The first reload must change the served model: the last
		// pass served reloadPaths[0]'s model when its seed was the
		// first, else reloading reloadPaths[0] changes it.
		next := 0
		if (len(passes)-1)%trainSeeds == 0 {
			next = 1
		}
		for k := 0; k < 2 || time.Since(start).Seconds() < w.serveUntil*budget.Seconds(); k++ {
			done := make(chan reloadResult, 1)
			go func(src string) { done <- reloadOnce(srv, src, tr) }(reloadPaths[(next+k)%2])
			win := openLoop(srv, queryRate, w.reloadWindow, seed*7919+uint64(k+1))
			rr := <-done
			reloadHeapMB = append(reloadHeapMB, heap.take())
			ops.add(countLoad(win, &ck))
			windows = append(windows, win)
			if rr.err != nil {
				ck.failf("reload %d: %v", k, rr.err)
				break
			}
			reloadS = append(reloadS, rr.seconds)
			rate, burst := capacity(srv, seed*7919+1<<21+uint64(k))
			ops.add(countLoad(burst, &ck))
			qps = append(qps, rate)
		}
	}
	cache := cacheInfo(srv)
	pooled := pool(windows)
	logf("%d windows: p50 %.3fms, window p99s %v; run took %.1fs",
		len(windows), pooled.p(0.5), windowP99s(windows), time.Since(start).Seconds())
	stealShare := steal.share()
	diag := map[string]float64{"host.steal_share": stealShare}

	untraced := filterPasses(passes, false)
	res := &result{Attempted: ops.attempted, Failed: ops.failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !trace {
		put("setup_s", "s", median(collect(passes, func(r passRecord) float64 { return r.p.setupS })))
		put("train_mpairs_per_s", "Mpairs/s", median(collect(untraced, passRecord.mpairsPerS)))
		put("train_cpu_s_per_mpair", "s/Mpair", median(collect(untraced, func(r passRecord) float64 {
			return r.p.cpuS / (float64(r.p.pairs) / 1e6)
		})))
		put("first_query_s", "s", median(collect(untraced, func(r passRecord) float64 { return r.fq.totalS })))
		var qs []float64
		for _, sr := range bySeed {
			qs = append(qs, sr.quality)
		}
		put("quality", "ratio", mean(qs))
		// The typical pass's peak, or the typical reload window's when
		// the old and new snapshots are both live.
		put("peak_heap_mb", "MiB", max(median(collect(passes, func(r passRecord) float64 { return r.heapMB })), median(reloadHeapMB)))
		put("query_p50_ms", "ms", pooled.p(0.50))
		put("serve_max_qps", "1/s", median(qps))
		put("success_ratio", "ratio", 1-float64(ops.failed)/float64(max(ops.attempted, 1)))
	} else {
		if err := layerMetrics(w, passes, tr, &ck, dir, put); err != nil {
			return nil, nil, err
		}
		// The p99 follows the host's steal share (about 2 ms on a quiet
		// host, above 10 ms with a tenth of the CPU stolen), too far
		// for a regression bound, so it is reported here, unbounded.
		put("query_p99_ms", "ms", median(windowP99s(windows)))
		put("serve.swaps", "count", float64(srv.store.Swaps()))
		put("serve.reload_s", "s", median(reloadS))
		put("serve.cache_hit_ratio", "ratio", cache)
		put("serve.handler_s.p50", "s", srv.handlerP50())
		put("serve.generator_lag_ms", "ms", quantile(pooled.lagMs, 0.99))
		put("host.steal_share", "ratio", stealShare)
		put("trace.spans", "count", float64(tr.count()))
		self := tr.selfSeconds()
		for _, l := range []string{"core", "gluon", "input", "checkpoint", "model", "index", "serve"} {
			put("trace.self_s."+l, "s", self[l])
		}
		if err := tr.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
			return nil, nil, fmt.Errorf("write trace: %w", err)
		}
	}
	res.Correct = ck.ok()
	for _, f := range ck.failures {
		fmt.Printf("check failed: %s\n", f)
	}
	return res, diag, nil
}

// countLoad records a load phase's failures as check failures and
// returns its operation counts.
func countLoad(r loadResult, ck *checks) (int, int) {
	if r.failed > 0 {
		ck.failf("%d of %d queries failed, first: %v", r.failed, r.attempted, r.firstErr)
	}
	return r.attempted, r.failed
}

// pool merges the latencies of several windows.
func pool(windows []loadResult) loadResult {
	var out loadResult
	for _, w := range windows {
		out.latMs = append(out.latMs, w.latMs...)
		out.lagMs = append(out.lagMs, w.lagMs...)
	}
	return out
}

// windowP99s returns each window's p99 latency.
func windowP99s(windows []loadResult) []float64 {
	out := make([]float64, len(windows))
	for i, w := range windows {
		out[i] = w.p(0.99)
	}
	return out
}

// logf prints progress to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// cacheInfo returns the result cache's hit ratio from /v1/info.
func cacheInfo(s *served) float64 {
	resp, err := http.Get(s.url + "/v1/info")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var info serve.InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || info.Cache == nil {
		return 0
	}
	total := info.Cache.Hits + info.Cache.Misses
	if total == 0 {
		return 0
	}
	return float64(info.Cache.Hits) / float64(total)
}

func filterPasses(passes []passRecord, traced bool) []passRecord {
	var out []passRecord
	for _, r := range passes {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

func collect(passes []passRecord, f func(passRecord) float64) []float64 {
	out := make([]float64, len(passes))
	for i, r := range passes {
		out[i] = f(r)
	}
	return out
}
