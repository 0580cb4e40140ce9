package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/index"
	"graphword2vec/internal/model"
	"graphword2vec/internal/serve"
	"graphword2vec/internal/vocab"
)

// queryK is the neighbour count of every query.
const queryK = 10

// served is a running query server over one store.
type served struct {
	store  *serve.Store
	server *serve.Server
	http   *http.Server
	url    string
	words  []string
	// cumCount[i] is the summed corpus count of words 0..i: queries pick
	// words in proportion to how often they occurred in training.
	cumCount []int64
	// clients are the load generator's connections, one per CPU, kept
	// open across phases.
	clients []*http.Client
	// handlerNs collects the time spent inside ServeHTTP per request.
	mu        sync.Mutex
	handlerNs []int64
	tr        *tracer
	wg        sync.WaitGroup
}

func (s *served) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.server.ServeHTTP(w, r)
	end := time.Now()
	s.mu.Lock()
	s.handlerNs = append(s.handlerNs, int64(end.Sub(start)))
	s.mu.Unlock()
	s.tr.record(0, 0, "serve", "serve.handler", start, end)
}

// close stops the HTTP server, waits for it, and releases the scorer
// pool and store.
func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a timeout leaves nothing to clean up but the listener, closed below
	s.http.Close()
	s.wg.Wait()
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.server.Close()
	s.store.Close()
}

// firstQuery is the timed path from a trained model to its first
// answered query, layer by layer. normalizeS and hnswS are split only
// in traced passes; indexS is their sum as the store measured it.
type firstQuery struct {
	saveS, loadS, indexS, normalizeS, hnswS, totalS float64
}

// serveModel saves a trained model and its vocabulary sidecar with the
// program's own writers, opens a store over the file (read, hash,
// parse, normalise, HNSW build), starts a loopback HTTP server over it
// and answers one query, timing each step as spans of run on tr. The
// store measures its index build itself (Snapshot.BuildTime); the rest
// of the open is the load. In traced passes index.NewNormalized is timed
// once more after the first answer, to split the build into normalising
// and HNSW. The server stays up for the caller and records its handler
// spans on serverTr.
func serveModel(m *model.Model, voc *vocab.Vocabulary, path string, tr *tracer, run string, serverTr *tracer) (*served, firstQuery, error) {
	var fq firstQuery
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fq, err
	}
	rootID := tr.newID()
	start := time.Now()
	if err := m.SaveFile(path); err != nil {
		return nil, fq, fmt.Errorf("save model: %w", err)
	}
	if err := cliutil.SaveVocabSidecar(path, voc); err != nil {
		return nil, fq, fmt.Errorf("save vocabulary: %w", err)
	}
	saved := time.Now()
	store, err := serve.OpenStore(path, serve.StoreConfig{BuildANN: true})
	if err != nil {
		return nil, fq, fmt.Errorf("open store: %w", err)
	}
	opened := time.Now()
	snap := store.Current()
	s, err := startServer(store, snap.Vocab, serverTr)
	if err != nil {
		return nil, fq, err
	}
	if err := s.query(http.DefaultClient, s.words[0]); err != nil {
		s.close()
		return nil, fq, fmt.Errorf("first query: %w", err)
	}
	end := time.Now()

	fq.saveS = saved.Sub(start).Seconds()
	fq.indexS = snap.BuildTime.Seconds()
	fq.loadS = opened.Sub(saved).Seconds() - fq.indexS
	fq.totalS = end.Sub(start).Seconds()
	built := snap.LoadedAt
	buildStart := built.Add(-snap.BuildTime)
	tr.record(0, rootID, run, "model.save", start, saved)
	tr.record(0, rootID, run, "model.load", saved, buildStart)
	if tr != nil {
		t := time.Now()
		index.NewNormalized(snap.Model)
		norm := min(time.Since(t), snap.BuildTime)
		fq.normalizeS = norm.Seconds()
		fq.hnswS = fq.indexS - fq.normalizeS
		tr.record(0, rootID, run, "index.normalize", buildStart, buildStart.Add(norm))
		tr.record(0, rootID, run, "index.hnsw_build", buildStart.Add(norm), built)
	}
	tr.record(rootID, 0, run, "serve.first_query", start, end)
	return s, fq, nil
}

// startServer serves store over a loopback listener.
func startServer(store *serve.Store, voc *vocab.Vocabulary, tr *tracer) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	s := &served{
		store:  store,
		server: serve.New(store, serve.Config{}),
		url:    "http://" + ln.Addr().String(),
		tr:     tr,
	}
	var sum int64
	for id := int32(0); id < int32(voc.Size()); id++ {
		sum += voc.Count(id)
		s.words = append(s.words, voc.Text(id))
		s.cumCount = append(s.cumCount, sum)
	}
	for c := 0; c < runtime.NumCPU(); c++ {
		s.clients = append(s.clients, newClient())
	}
	s.http = &http.Server{Handler: s}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.http.Serve(ln) // returns ErrServerClosed on close
	}()
	return s, nil
}

// query asks for one word's neighbours and checks the answer: status
// 200 and exactly queryK neighbours.
func (s *served) query(c *http.Client, word string) error {
	body, _ := json.Marshal(serve.NeighborsRequest{Word: word, K: queryK}) // a struct of a string and an int always marshals
	resp, err := c.Post(s.url+"/v1/neighbors", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	var nr serve.NeighborsResponse
	if err := json.Unmarshal(data, &nr); err != nil {
		return err
	}
	if len(nr.Neighbors) != queryK {
		return fmt.Errorf("%d neighbours, want %d", len(nr.Neighbors), queryK)
	}
	return nil
}

// health returns the snapshot id /healthz reports.
func (s *served) health(c *http.Client) (string, error) {
	resp, err := c.Get(s.url + "/healthz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return h.Snapshot, nil
}

// loadResult summarises one open-loop phase.
type loadResult struct {
	attempted, failed int
	latMs             []float64
	// lagMs is how late the client sent requests it was free to send
	// on time: the generator's own limit, a diagnostic only.
	lagMs    []float64
	firstErr error
}

func (r loadResult) p(q float64) float64 { return quantile(r.latMs, q) }

// newClient returns a client that keeps at most one connection open.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
}

// queryRate is the fixed offered rate (requests/s) of the latency
// windows. It is no observed load: it puts 1000 requests in each
// one-second window, enough for a p99 with ten samples beyond it, and
// is a tenth or less of the highest rate the server sustains on two
// CPUs (serve_max_qps read 10 000 to 35 000/s as the host's load
// changed), so the windows time a lightly loaded server.
const queryRate = 1000.0

// openLoop offers Poisson arrivals at rate requests/s for dur over the
// server's client connections. Each asks for the neighbours of a word
// drawn in proportion to its count in the served vocabulary, the
// popularity the training corpus (or the graph's degrees) recorded.
// Every request is timed from the moment it was due, so a stall of the
// server, of the host or of the generator itself charges every request
// queued behind it. That includes the lateness of the sleep a free
// connection waits in (Go's timers wake through a millisecond epoll
// timeout, about 0.5 ms late on an idle host), which lagMs records apart
// as the generator's own share. Spinning out the last millisecond
// instead would remove it, but a spinning client holds one of the
// server's two processors, and on serve-reload it kept the handlers
// from running while the index build had the other.
func openLoop(s *served, rate float64, dur time.Duration, seed uint64) loadResult {
	rng := rand.New(rand.NewSource(int64(seed)))
	total := s.cumCount[len(s.cumCount)-1]
	var due []time.Duration
	var words []int
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			break
		}
		due = append(due, time.Duration(t*float64(time.Second)))
		r := rng.Int63n(total)
		words = append(words, sort.Search(len(s.cumCount), func(i int) bool { return s.cumCount[i] > r }))
	}
	n := len(due)
	lat := make([]float64, n)
	lag := make([]float64, n)
	for i := range lag {
		lag[i] = -1
	}
	errs := make([]error, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, client := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				at := start.Add(due[i])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
					lag[i] = float64(time.Since(at)) / 1e6
				}
				errs[i] = s.query(client, s.words[words[i]])
				lat[i] = float64(time.Since(at)) / 1e6
			}
		}()
	}
	wg.Wait()
	res := loadResult{attempted: n}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = errs[i]
			}
			continue
		}
		res.latMs = append(res.latMs, lat[i])
		if lag[i] >= 0 {
			res.lagMs = append(res.lagMs, lag[i])
		}
	}
	return res
}

// saturationBurst is how many requests one capacity burst sends: about
// a third of a second of the server's work on two CPUs.
const saturationBurst = 4000

// capacity sends a burst of requests all due at once and returns the
// rate the server completed them at. An offered rate above it grows a
// backlog without end, and any rate below it is sustained, so it is the
// highest rate the server sustains.
func capacity(s *served, seed uint64) (float64, loadResult) {
	t := time.Now()
	r := openLoop(s, saturationBurst*1e6, time.Microsecond, seed)
	return float64(r.attempted) / time.Since(t).Seconds(), r
}

// reloadResult is the outcome of one hot reload.
type reloadResult struct {
	seconds float64
	err     error
}

// reloadOnce replaces the served model file with src's bytes, reloads
// the store, and checks that /healthz then reports the new snapshot.
func reloadOnce(s *served, src string, tr *tracer) reloadResult {
	prev := s.store.Current()
	if err := copyModel(src, prev.ModelPath); err != nil {
		return reloadResult{err: err}
	}
	start := time.Now()
	swapped, err := s.store.TryReload()
	end := time.Now()
	tr.record(0, 0, "serve", "serve.reload", start, end)
	if err != nil {
		return reloadResult{err: fmt.Errorf("reload: %w", err)}
	}
	want := s.store.Current().ID
	if !swapped || want == prev.ID {
		return reloadResult{err: errors.New("reload: changed model file was not swapped in")}
	}
	client := newClient()
	defer client.CloseIdleConnections()
	got, err := s.health(client)
	if err != nil {
		return reloadResult{err: err}
	}
	if got != want {
		return reloadResult{err: fmt.Errorf("healthz reports snapshot %s after reload, want %s", got, want)}
	}
	return reloadResult{seconds: end.Sub(start).Seconds()}
}

// copyModel writes src's bytes over dst; both models share one
// vocabulary sidecar. No poller runs, so the store reads dst only on the
// next TryReload, after the write is complete.
func copyModel(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// handlerP50 returns the median time inside ServeHTTP, in seconds.
func (s *served) handlerP50() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	xs := make([]float64, len(s.handlerNs))
	for i, ns := range s.handlerNs {
		xs[i] = float64(ns) / 1e9
	}
	return median(xs)
}
