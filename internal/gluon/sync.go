package gluon

import (
	"errors"
	"fmt"
	"sync"

	"graphword2vec/internal/bitset"
	"graphword2vec/internal/combine"
	"graphword2vec/internal/graph"
	"graphword2vec/internal/model"
	"graphword2vec/internal/vecmath"
)

// Mode selects the synchronisation scheme (paper §4.4).
type Mode int

const (
	// RepModelNaive reduces and broadcasts every node every round.
	RepModelNaive Mode = iota
	// RepModelOpt communicates only touched/updated nodes (bit-vector
	// sparsity). This is the paper's default scheme.
	RepModelOpt
	// PullModel adds an inspection phase: hosts announce the node set
	// they will access next round, and masters are broadcast only to
	// mirrors that will read them.
	PullModel
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case RepModelNaive:
		return "RepModel-Naive"
	case RepModelOpt:
		return "RepModel-Opt"
	case PullModel:
		return "PullModel"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a paper-style mode name into a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "RepModel-Naive", "naive":
		return RepModelNaive, nil
	case "RepModel-Opt", "opt":
		return RepModelOpt, nil
	case "PullModel", "pull":
		return PullModel, nil
	}
	return 0, fmt.Errorf("gluon: unknown mode %q", s)
}

// Stats counts the traffic one host generated (sent side only, so summing
// across hosts counts each byte exactly once).
type Stats struct {
	// ReduceBytes / BroadcastBytes are payload bytes sent in each phase
	// (entry data plus per-message headers).
	ReduceBytes    int64
	BroadcastBytes int64
	// ControlBytes are non-training-protocol bytes: inspection/access
	// announcements (PullModel) plus bootstrap traffic — barriers and
	// the final master gather of the distributed mode.
	ControlBytes int64
	// Messages is the number of transport sends.
	Messages int64
	// ReduceEntries / BroadcastEntries count node vectors shipped.
	ReduceEntries    int64
	BroadcastEntries int64
	// Rounds is the number of Sync calls.
	Rounds int64
}

// TotalBytes returns all bytes sent by this host.
func (s Stats) TotalBytes() int64 { return s.ReduceBytes + s.BroadcastBytes + s.ControlBytes }

// RawBytes returns the size the reduce and broadcast traffic counted
// in s would have had in the uncompressed format of protocol v1 (the
// retired raw codec) on a cluster of the given size — the baseline the
// comm-volume experiment reports against. It is arithmetic over the
// counters: every completed round ships one reduce and one broadcast
// frame to each peer, and Rounds counts rounds per host (summed over
// hosts in an aggregate).
func (s Stats) RawBytes(hosts, dim int) (reduce, broadcast int64) {
	frames := s.Rounds * int64(hosts-1)
	return rawVectorBytes(frames, s.ReduceEntries, dim), rawVectorBytes(frames, s.BroadcastEntries, dim)
}

// Sub returns the component-wise difference s − prev (per-epoch deltas
// from cumulative counters).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		ReduceBytes:      s.ReduceBytes - prev.ReduceBytes,
		BroadcastBytes:   s.BroadcastBytes - prev.BroadcastBytes,
		ControlBytes:     s.ControlBytes - prev.ControlBytes,
		Messages:         s.Messages - prev.Messages,
		ReduceEntries:    s.ReduceEntries - prev.ReduceEntries,
		BroadcastEntries: s.BroadcastEntries - prev.BroadcastEntries,
		Rounds:           s.Rounds - prev.Rounds,
	}
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.ReduceBytes += other.ReduceBytes
	s.BroadcastBytes += other.BroadcastBytes
	s.ControlBytes += other.ControlBytes
	s.Messages += other.Messages
	s.ReduceEntries += other.ReduceEntries
	s.BroadcastEntries += other.BroadcastEntries
	s.Rounds += other.Rounds
}

// HostSync is one host's view of the synchronisation substrate. It owns no
// model data; the distributed trainer passes its local and base replicas
// to each round's SyncStart.
//
// A synchronisation round is a concurrent, steady-state-zero-allocation
// pipeline (DESIGN.md §8): per-peer reduce and broadcast frames are
// encoded and sent by parallel workers (they are independent by
// construction — each carries a different master range), and incoming
// reduce frames are decoded concurrently into the accumulator's disjoint
// per-(node, sender) slots. Every buffer a round needs — per-peer frame
// buffers, node-id lists, encode/decode scratch — is owned by the
// HostSync and reused across rounds. Determinism is untouched: the only
// order-sensitive step, the combiner fold, still presents deltas in
// ascending host order (combine.Accumulator.Fold), so models are
// byte-identical however the workers are scheduled.
//
// Frame buffers are reused across rounds even though Transport.Send
// forbids modifying a payload after the call — the BSP round structure
// makes the reuse safe. A peer can only emit a round-r+1 message after
// completing its round-r receive phases: reduce frames we sent in round
// r are decoded by the peer before it broadcasts in round r, and our
// round-r broadcast is consumed in its phase E before it can send any
// round-r+1 traffic. Since we do not touch the buffers again until our
// own round r+1 — which starts only after we received the peer's round-r
// traffic — every zero-copy reference (in-process transport, pending
// queue) is dead by the time the buffer is rewritten. The -race
// concurrency tests exercise exactly this overlap.
//
// SyncStart/SyncFinish, Barrier and GatherMasters must be called from
// one goroutine (the host's driver); the concurrency inside a round is
// HostSync's own.
type HostSync struct {
	host int
	part *graph.Partition
	tr   Transport
	dim  int
	mode Mode
	comb combine.Combiner

	// stats accumulates sent-side traffic.
	stats Stats

	// pending buffers messages that arrived ahead of the phase that
	// consumes them, keyed by kind and round. Queues are pooled: a
	// drained key is deleted and its backing array recycled, so the map
	// stays bounded (and allocation-free) over arbitrarily many
	// out-of-phase rounds.
	pending   map[pendingKey]*pendingQueue
	queuePool []*pendingQueue

	// accessByHost[g], PullModel only: the node set host g announced it
	// will access in the *next* round, restricted to our master range.
	// Announced during round r (phase A), consumed by our round-r
	// broadcast phase. Written only by the control goroutine.
	accessByHost []*bitset.Bitset

	// acc stages every host's decoded deltas for our master range until
	// the round's combine (decode-side accumulation, see
	// combine.Accumulator). Concurrent decode workers record into
	// disjoint per-sender columns.
	acc *combine.Accumulator

	// Round state shared with the prebuilt closures below; set by
	// prepRound.
	curLocal   *model.Model
	curBase    *model.Model
	curTouched *bitset.Bitset
	curAccess  *bitset.Bitset
	curRound   uint32

	// Reusable scratch: own-delta extraction, the combine fold output,
	// and the merged touched list of our own range (combine order +
	// RepModel-Opt broadcast set).
	scratch      []float32
	combScratch  []float32
	ownedTouched []int32

	// Round lifecycle state (overlap.go). inFlight guards the
	// SyncStart/SyncFinish pairing; progress publishes every round's
	// completion events, which gated compute waits on.
	inFlight bool
	progress SyncProgress
	roundCh  chan error
	goRound  func()

	// Shared broadcast frame for the RepModel schemes, where the frame
	// is identical for every peer: encoded once, sent n−1 times — plus
	// the cached dense own-range node list for the Naive scheme.
	bcastBuf []byte
	bcastVec []float32
	ownDense []int32

	// peers[g] is the reusable per-peer worker state; peers[host] is
	// unused.
	peers []peerState

	wg sync.WaitGroup
	// Per-peer error slots, split by worker role: within one overlapped
	// phase a peer's encode/send worker and its decode worker can run
	// at the same time, so they must never share a slot (a concurrent
	// interface write is a data race).
	sendErrs   []error
	decErrs    []error
	goOwnDelta func() // prebuilt spawn thunk, see peerState
	// ownRecord stages one of our own nodes' deltas into the
	// accumulator (prebuilt for allocation-free ForEachRange use).
	ownRecord func(n int)

	// Prebuilt encode callbacks (allocated once; they read the curLocal/
	// curBase fields so per-round closures are never needed).
	reduceVecAt func(n int32, dst []float32)
	bcastVecAt  func(n int32, dst []float32)
	bcastHalfAt func(n int32) byte
}

// peerState is the state one peer's encode and decode workers own. The
// buffers grow to the steady-state working set and are reused every
// round.
type peerState struct {
	lo, hi int // the peer's master range

	// Reduce encode: node list, frame buffer, vector scratch.
	nodes []int32
	buf   []byte
	vec   []float32

	// PullModel per-peer broadcast encode (the RepModel schemes share
	// one frame instead).
	bnodes []int32
	bbuf   []byte
	bvec   []float32

	// Access announcement buffer (PullModel phase A).
	abuf []byte

	// denseNodes caches the peer's full master range for the dense
	// (RepModel-Naive) scheme, built on first use.
	denseNodes []int32

	// Decode: per-sender scratch and prebuilt frame sinks, plus the
	// payload handed to the worker and per-round dedup flags.
	dec       decodeScratch
	decReduce func(node int32, half byte, vec []float32) error
	decBcast  func(node int32, half byte, vec []float32) error
	payload   []byte
	gotReduce bool
	gotBcast  bool

	// Prebuilt zero-argument spawn thunks: `go f(args)` heap-allocates a
	// closure per call since Go 1.17, `go thunk()` does not — and these
	// run every round, where the steady-state contract is 0 allocs.
	goReduce    func()
	goBcastSend func()
	goPullBcast func()
	goDecReduce func()
	goDecBcast  func()

	// Sent-side counters, merged into stats after the round's workers
	// join (workers never touch the shared Stats).
	sentMsgs    int64
	sentReduceB int64
	sentReduceE int64
	sentBcastB  int64
	sentBcastE  int64
}

type pendingKey struct {
	kind  byte
	round uint32
}

type pendingMsg struct {
	from    int
	payload []byte
}

// pendingQueue is a FIFO of buffered messages with an explicit head so
// consumed entries release their payload references immediately instead
// of stranding them in a sliced-off backing array.
type pendingQueue struct {
	msgs []pendingMsg
	head int
}

// NewHostSync creates the sync engine for one host. comb is the reduction
// operator applied at masters (paper §4.3); dim is the model
// dimensionality (payload vectors have length 2·dim).
func NewHostSync(host int, part *graph.Partition, tr Transport, dim int, mode Mode, comb combine.Combiner) (*HostSync, error) {
	if host < 0 || host >= part.NumHosts() {
		return nil, fmt.Errorf("gluon: host %d out of range [0,%d)", host, part.NumHosts())
	}
	if tr.NumHosts() != part.NumHosts() {
		return nil, fmt.Errorf("gluon: transport has %d hosts, partition %d", tr.NumHosts(), part.NumHosts())
	}
	if dim <= 0 {
		return nil, fmt.Errorf("gluon: dim must be positive, got %d", dim)
	}
	if comb == nil {
		return nil, fmt.Errorf("gluon: nil combiner")
	}
	lo, hi := part.MasterRange(host)
	n := part.NumHosts()
	hs := &HostSync{
		host:        host,
		part:        part,
		tr:          tr,
		dim:         dim,
		mode:        mode,
		comb:        comb,
		pending:     make(map[pendingKey]*pendingQueue),
		acc:         combine.NewAccumulator(lo, hi, n, dim),
		scratch:     make([]float32, 2*dim),
		combScratch: make([]float32, 2*dim),
		bcastVec:    make([]float32, 2*dim),
		peers:       make([]peerState, n),
		sendErrs:    make([]error, n),
		decErrs:     make([]error, n),
		roundCh:     make(chan error, 1),
	}
	hs.progress.init(n)
	hs.goRound = func() { hs.roundCh <- hs.runRound() }
	hs.reduceVecAt = func(nd int32, dst []float32) { nodeDelta(hs.curLocal, hs.curBase, nd, dst) }
	hs.bcastVecAt = func(nd int32, dst []float32) { nodeValue(hs.curLocal, nd, dst) }
	hs.bcastHalfAt = func(nd int32) byte {
		var half byte
		emb, ctx := hs.acc.Halves(int(nd))
		if emb {
			half |= halfEmb
		}
		if ctx {
			half |= halfCtx
		}
		return half
	}
	for g := 0; g < n; g++ {
		if g == host {
			continue
		}
		g := g
		p := &hs.peers[g]
		p.lo, p.hi = part.MasterRange(g)
		p.vec = make([]float32, 2*dim)
		p.bvec = make([]float32, 2*dim)
		p.decReduce = func(node int32, half byte, vec []float32) error {
			if int(node) < lo || int(node) >= hi {
				return fmt.Errorf("gluon: host %d sent reduce for node %d outside our range [%d,%d)", g, node, lo, hi)
			}
			hs.acc.Record(int(node), g, vec)
			return nil
		}
		p.decBcast = func(node int32, half byte, vec []float32) error {
			if int(node) < p.lo || int(node) >= p.hi {
				return fmt.Errorf("gluon: host %d broadcast node %d outside its range [%d,%d)", g, node, p.lo, p.hi)
			}
			setNodeHalves(hs.curLocal, node, half, vec, hs.dim)
			setNodeHalves(hs.curBase, node, half, vec, hs.dim)
			return nil
		}
		p.goReduce = func() { hs.reduceWorker(g) }
		p.goBcastSend = func() { hs.bcastSendWorker(g) }
		p.goPullBcast = func() { hs.pullBcastWorker(g) }
		p.goDecReduce = func() { hs.decodeReduceWorker(g) }
		p.goDecBcast = func() { hs.decodeBcastWorker(g) }
	}
	hs.goOwnDelta = hs.ownDeltaWorker
	hs.ownRecord = func(nd int) {
		nodeDelta(hs.curLocal, hs.curBase, int32(nd), hs.scratch)
		hs.acc.Record(nd, hs.host, hs.scratch)
	}
	if mode == PullModel {
		hs.accessByHost = make([]*bitset.Bitset, n)
		for g := range hs.accessByHost {
			hs.accessByHost[g] = bitset.New(part.NumNodes())
		}
	}
	return hs, nil
}

// Stats returns the traffic this host has sent so far.
func (hs *HostSync) Stats() Stats { return hs.stats }

// Mode returns the synchronisation scheme.
func (hs *HostSync) Mode() Mode { return hs.mode }

// prepRound validates and stages one round's inputs: the shared cur*
// fields the prebuilt closures read, per-peer dedup flags and error
// slots, and the progress events. Runs on the caller's goroutine, before
// any round worker exists.
func (hs *HostSync) prepRound(round uint32, local, base *model.Model, touched *bitset.Bitset, nextAccess *bitset.Bitset) error {
	if local.VocabSize() != hs.part.NumNodes() || base.VocabSize() != hs.part.NumNodes() {
		return fmt.Errorf("gluon: model size %d does not match partition %d", local.VocabSize(), hs.part.NumNodes())
	}
	if hs.mode == PullModel && nextAccess == nil {
		return fmt.Errorf("gluon: PullModel requires a nextAccess set")
	}
	hs.stats.Rounds++
	hs.curLocal, hs.curBase, hs.curTouched, hs.curRound = local, base, touched, round
	hs.curAccess = nextAccess
	for g := range hs.peers {
		p := &hs.peers[g]
		p.gotReduce, p.gotBcast = false, false
		p.sentMsgs = 0
		p.sentReduceB, p.sentReduceE = 0, 0
		p.sentBcastB, p.sentBcastE = 0, 0
		hs.sendErrs[g], hs.decErrs[g] = nil, nil
	}
	hs.progress.resetRound()
	return nil
}

// runRound executes one synchronisation round against the staged cur*
// state, on the background goroutine SyncStart launches.
func (hs *HostSync) runRound() error {
	h := hs.host
	nHosts := hs.part.NumHosts()
	// Whatever happens, unblock gated compute when the round ends: on
	// error the engine discards the overlapped work anyway.
	defer hs.progress.postDone()
	round := hs.curRound
	nextAccess := hs.curAccess

	// Phase A: announce next round's access sets (PullModel inspection).
	// Serial — the frames are cheap word-packed bitmaps.
	if hs.mode == PullModel {
		for g := 0; g < nHosts; g++ {
			if g == h {
				continue
			}
			p := &hs.peers[g]
			p.abuf = appendAccessMessage(p.abuf[:0], round, p.lo, p.hi, nextAccess)
			if err := hs.send(g, p.abuf); err != nil {
				return err
			}
			hs.stats.ControlBytes += int64(len(p.abuf))
		}
	}

	// Phases B+C, overlapped: per-peer workers encode and send our
	// reduce frames while a further worker records our own local deltas
	// and the control goroutine receives peer frames, handing each to a
	// decode worker. All accumulator writes land in disjoint per-sender
	// columns.
	for g := 0; g < nHosts; g++ {
		if g == h {
			continue
		}
		hs.wg.Add(1)
		go hs.peers[g].goReduce()
	}
	hs.wg.Add(1)
	go hs.goOwnDelta()
	recvErr := hs.receiveFrames(kindReduce, round)
	hs.wg.Wait()
	if err := hs.roundError(recvErr); err != nil {
		return err
	}

	// Serial midpoint: merge the per-sender staging and fold with the
	// reduction operator in deterministic host order, installing
	// canonical values for our own range.
	hs.acc.Commit()
	hs.combineOwned()

	// Phase D: broadcast canonical masters per the mode's rule. In the
	// RepModel schemes the frame is identical for every peer (only the
	// halves some host actually updated ship): encode once, send in
	// parallel. PullModel mirrors may be stale and each peer pulls a
	// different set, so per-peer workers encode their own frames with
	// full values.
	if hs.mode != PullModel {
		nodes := hs.ownedTouched // RepModel-Opt: only updated nodes
		if hs.mode == RepModelNaive {
			nodes = hs.denseOwnRange()
		}
		hs.bcastBuf = appendVectorFrame(hs.bcastBuf[:0], kindBroadcast, round, frameFlags(kindBroadcast, hs.mode), hs.dim, nodes, hs.bcastHalfAt, hs.bcastVecAt, hs.bcastVec)
		// Masters are canonical and the encode is done reading our rows:
		// our own range is final for gated compute.
		hs.progress.postOwnFinal()
		for g := 0; g < nHosts; g++ {
			if g == h {
				continue
			}
			hs.peers[g].sentBcastE = int64(len(nodes))
			hs.wg.Add(1)
			go hs.peers[g].goBcastSend()
		}
	} else {
		for g := 0; g < nHosts; g++ {
			if g == h {
				continue
			}
			hs.wg.Add(1)
			go hs.peers[g].goPullBcast()
		}
		// PullModel phase D reads accessByHost, which the receive loop
		// below may overwrite with next-round announcements from peers
		// that raced ahead — join before receiving.
		hs.wg.Wait()
		if err := hs.roundError(nil); err != nil {
			return err
		}
		// PullModel reads our rows per peer; final only once every
		// per-peer encode worker has joined.
		hs.progress.postOwnFinal()
	}

	// Phase E: receive and apply all broadcasts for this round. Each
	// sender's frame covers its own master range, so concurrent decode
	// workers write disjoint model rows.
	recvErr = hs.receiveFrames(kindBroadcast, round)
	hs.wg.Wait()
	if err := hs.roundError(recvErr); err != nil {
		return err
	}

	// Merge the workers' sent-side counters.
	for g := range hs.peers {
		p := &hs.peers[g]
		hs.stats.Messages += p.sentMsgs
		hs.stats.ReduceBytes += p.sentReduceB
		hs.stats.ReduceEntries += p.sentReduceE
		hs.stats.BroadcastBytes += p.sentBcastB
		hs.stats.BroadcastEntries += p.sentBcastE
	}

	hs.acc.Reset()
	return nil
}

// roundError folds a control-goroutine error and the per-peer worker
// error slots into the round's verdict. A closed transport is usually
// the echo of some other failure — a dying peer tears the links down
// under every worker still using them — so any error other than
// ErrTransportClosed wins, whether it came from a send, a decode or the
// receive (workers first in host order, for determinism), and the
// closed error is reported only when nothing else failed.
func (hs *HostSync) roundError(recvErr error) error {
	var closed error
	for g := range hs.sendErrs {
		for _, err := range [...]error{hs.sendErrs[g], hs.decErrs[g]} {
			switch {
			case err == nil:
			case !errors.Is(err, ErrTransportClosed):
				return err
			case closed == nil:
				closed = err
			}
		}
	}
	if closed == nil || recvErr != nil && !errors.Is(recvErr, ErrTransportClosed) {
		return recvErr
	}
	return closed
}

// reduceWorker builds and sends the reduce frame for peer g: our deltas
// for the nodes g owns, sparse modes iterating the touched set at word
// granularity.
func (hs *HostSync) reduceWorker(g int) {
	defer hs.wg.Done()
	p := &hs.peers[g]
	var nodes []int32
	if hs.mode == RepModelNaive {
		nodes = hs.denseNodes(p)
	} else {
		p.nodes = hs.curTouched.AppendRange(p.nodes[:0], p.lo, p.hi)
		nodes = p.nodes
	}
	p.buf = appendVectorFrame(p.buf[:0], kindReduce, hs.curRound, frameFlags(kindReduce, hs.mode), hs.dim, nodes, nil, hs.reduceVecAt, p.vec)
	if err := hs.tr.Send(hs.host, g, p.buf); err != nil {
		hs.sendErrs[g] = err
		return
	}
	p.sentMsgs++
	p.sentReduceB += int64(len(p.buf))
	p.sentReduceE += int64(len(nodes))
}

// ownDeltaWorker records this host's local deltas for its own master
// range into the accumulator (no wire traffic), concurrently with the
// peer decode workers — it writes our own sender column only.
func (hs *HostSync) ownDeltaWorker() {
	defer hs.wg.Done()
	lo, hi := hs.part.MasterRange(hs.host)
	if hs.mode == RepModelNaive {
		for n := lo; n < hi; n++ {
			hs.ownRecord(n)
		}
		return
	}
	hs.curTouched.ForEachRange(lo, hi, hs.ownRecord)
}

// bcastSendWorker ships the shared RepModel broadcast frame to peer g.
func (hs *HostSync) bcastSendWorker(g int) {
	defer hs.wg.Done()
	p := &hs.peers[g]
	if err := hs.tr.Send(hs.host, g, hs.bcastBuf); err != nil {
		hs.sendErrs[g] = err
		p.sentBcastE = 0
		return
	}
	p.sentMsgs++
	p.sentBcastB += int64(len(hs.bcastBuf))
}

// pullBcastWorker builds and sends peer g's PullModel broadcast: the
// owned nodes g announced it will read next round, whether or not
// updated, with full values (g's mirror may be arbitrarily stale).
func (hs *HostSync) pullBcastWorker(g int) {
	defer hs.wg.Done()
	p := &hs.peers[g]
	lo, hi := hs.part.MasterRange(hs.host)
	p.bnodes = hs.accessByHost[g].AppendRange(p.bnodes[:0], lo, hi)
	p.bbuf = appendVectorFrame(p.bbuf[:0], kindBroadcast, hs.curRound, frameFlags(kindBroadcast, hs.mode), hs.dim, p.bnodes, nil, hs.bcastVecAt, p.bvec)
	if err := hs.tr.Send(hs.host, g, p.bbuf); err != nil {
		hs.sendErrs[g] = err
		return
	}
	p.sentMsgs++
	p.sentBcastB += int64(len(p.bbuf))
	p.sentBcastE += int64(len(p.bnodes))
}

// decodeReduceWorker decodes the staged reduce payload from peer g into
// the accumulator's sender-g column.
func (hs *HostSync) decodeReduceWorker(g int) {
	defer hs.wg.Done()
	p := &hs.peers[g]
	if err := decodeVectorFrameInto(p.payload, hs.dim, frameFlags(kindReduce, hs.mode), &p.dec, p.decReduce); err != nil {
		hs.decErrs[g] = err
	}
}

// decodeBcastWorker decodes the staged broadcast payload from peer g
// into the g-owned rows of local and base.
func (hs *HostSync) decodeBcastWorker(g int) {
	defer hs.wg.Done()
	p := &hs.peers[g]
	if err := decodeVectorFrameInto(p.payload, hs.dim, frameFlags(kindBroadcast, hs.mode), &p.dec, p.decBcast); err != nil {
		hs.decErrs[g] = err
		return
	}
	// Peer g's master range is installed in full: final for gated
	// compute.
	hs.progress.postInstalled(g)
}

// receiveFrames collects one frame of the given kind from every peer,
// handing each to that peer's decode worker. Returns the first
// receive-path error; decode errors land in the per-peer error slots.
func (hs *HostSync) receiveFrames(kind byte, round uint32) error {
	for need := hs.part.NumHosts() - 1; need > 0; need-- {
		from, payload, err := hs.nextMessage(kind, round)
		if err != nil {
			return err
		}
		if from < 0 || from >= len(hs.peers) || from == hs.host {
			return fmt.Errorf("gluon: frame kind %d from invalid host %d", kind, from)
		}
		p := &hs.peers[from]
		if kind == kindReduce {
			if p.gotReduce {
				return fmt.Errorf("gluon: duplicate reduce frame from host %d in round %d", from, round)
			}
			p.gotReduce = true
		} else {
			if p.gotBcast {
				return fmt.Errorf("gluon: duplicate broadcast frame from host %d in round %d", from, round)
			}
			p.gotBcast = true
		}
		p.payload = payload
		hs.wg.Add(1)
		if kind == kindReduce {
			go p.goDecReduce()
		} else {
			go p.goDecBcast()
		}
	}
	return nil
}

// send forwards to the transport and counts the message (control
// goroutine only; workers count into their peer slots instead).
func (hs *HostSync) send(to int, payload []byte) error {
	hs.stats.Messages++
	return hs.tr.Send(hs.host, to, payload)
}

// denseNodes returns the cached full master range of peer g's owner
// (the RepModel-Naive reduce set), built on first use.
func (hs *HostSync) denseNodes(p *peerState) []int32 {
	if len(p.denseNodes) != p.hi-p.lo {
		p.denseNodes = p.denseNodes[:0]
		for n := p.lo; n < p.hi; n++ {
			p.denseNodes = append(p.denseNodes, int32(n))
		}
	}
	return p.denseNodes
}

// denseOwnRange returns the cached full master range of this host (the
// RepModel-Naive broadcast set), built on first use.
func (hs *HostSync) denseOwnRange() []int32 {
	lo, hi := hs.part.MasterRange(hs.host)
	if len(hs.ownDense) != hi-lo {
		hs.ownDense = hs.ownDense[:0]
		for n := lo; n < hi; n++ {
			hs.ownDense = append(hs.ownDense, int32(n))
		}
	}
	return hs.ownDense
}

// combineOwned folds the staged deltas with the reduction operator and
// installs canonical values into both local and base for our range,
// walking only the touched nodes (word-level iteration); the touched
// list doubles as the RepModel-Opt broadcast set.
func (hs *HostSync) combineOwned() {
	hs.ownedTouched = hs.acc.AppendTouched(hs.ownedTouched[:0])
	for _, n := range hs.ownedTouched {
		if !hs.acc.Fold(hs.comb, int(n), hs.combScratch) {
			continue
		}
		// canonical = base + combined, written into local and base.
		applyCanonical(hs.curLocal, hs.curBase, n, hs.combScratch, hs.dim)
	}
}

// popPending removes and returns the oldest buffered message for key,
// recycling the queue once drained.
func (hs *HostSync) popPending(key pendingKey) (pendingMsg, bool) {
	q := hs.pending[key]
	if q == nil {
		return pendingMsg{}, false
	}
	m := q.msgs[q.head]
	q.msgs[q.head] = pendingMsg{} // release the payload reference
	q.head++
	if q.head == len(q.msgs) {
		q.msgs = q.msgs[:0]
		q.head = 0
		delete(hs.pending, key)
		hs.queuePool = append(hs.queuePool, q)
	}
	return m, true
}

// pushPending buffers an out-of-phase message under key, reusing a
// pooled queue when one is free.
func (hs *HostSync) pushPending(key pendingKey, m pendingMsg) {
	q := hs.pending[key]
	if q == nil {
		if n := len(hs.queuePool); n > 0 {
			q = hs.queuePool[n-1]
			hs.queuePool = hs.queuePool[:n-1]
		} else {
			q = new(pendingQueue)
		}
		hs.pending[key] = q
	}
	q.msgs = append(q.msgs, m)
}

// pendingCount returns the number of distinct buffered (kind, round)
// keys — exposed for the queue-bound regression test.
func (hs *HostSync) pendingCount() int { return len(hs.pending) }

// nextMessage returns the next message of the wanted kind and round,
// buffering any other in-flight messages (access announcements for the
// next round, early reduces from hosts already past us, etc.). Control
// goroutine only.
func (hs *HostSync) nextMessage(kind byte, round uint32) (int, []byte, error) {
	if m, ok := hs.popPending(pendingKey{kind: kind, round: round}); ok {
		return m.from, m.payload, nil
	}
	for {
		from, payload, err := hs.tr.Recv(hs.host)
		if err != nil {
			return 0, nil, err
		}
		k, r, _, err := parseHeader(payload)
		if err != nil {
			return 0, nil, err
		}
		if !definedKind(k) {
			// Never buffer it: no caller would ever pop its key, so a
			// faulty peer could grow the pending queue without bound.
			return 0, nil, fmt.Errorf("%w %d from host %d", ErrFrameKind, k, from)
		}
		if k == kindHeartbeat {
			// Transport-level liveness; the TCP read loop filters these
			// before the inbox, but tolerate them from any transport.
			continue
		}
		if k == kindAccess {
			// Access messages are consumed immediately: they announce
			// round r+1's reads and update accessByHost.
			if hs.mode != PullModel {
				return 0, nil, fmt.Errorf("gluon: unexpected access message from host %d in mode %v", from, hs.mode)
			}
			if err := hs.recordAccess(from, payload); err != nil {
				return 0, nil, err
			}
			continue
		}
		if k == kind && r == round {
			return from, payload, nil
		}
		hs.pushPending(pendingKey{kind: k, round: r}, pendingMsg{from: from, payload: payload})
	}
}

// recordAccess updates host from's announced next-round access set.
func (hs *HostSync) recordAccess(from int, payload []byte) error {
	acc := hs.accessByHost[from]
	acc.Reset()
	return parseAccessInto(payload, acc)
}

// Barrier blocks until every host in the cluster has entered a Barrier
// call with the same tag: hosts report arrival to host 0, which releases
// them once all have checked in. Distinct synchronisation points must
// use distinct tags. Because stray messages are buffered through the
// same pending queue the synchronisation rounds use, a Barrier is safe
// to run before the first Sync and after the last one even when faster
// hosts have already raced ahead into the next phase.
func (hs *HostSync) Barrier(tag uint32) error {
	n := hs.part.NumHosts()
	if n == 1 {
		return nil
	}
	if hs.host == 0 {
		for need := n - 1; need > 0; need-- {
			if _, _, err := hs.nextMessage(kindBarrier, tag); err != nil {
				return fmt.Errorf("gluon: barrier %d collect: %w", tag, err)
			}
		}
		for g := 1; g < n; g++ {
			msg := barrierMessage(tag)
			if err := hs.send(g, msg); err != nil {
				return fmt.Errorf("gluon: barrier %d release: %w", tag, err)
			}
			hs.stats.ControlBytes += int64(len(msg))
		}
		return nil
	}
	msg := barrierMessage(tag)
	if err := hs.send(0, msg); err != nil {
		return fmt.Errorf("gluon: barrier %d arrive: %w", tag, err)
	}
	hs.stats.ControlBytes += int64(len(msg))
	if _, _, err := hs.nextMessage(kindBarrier, tag); err != nil {
		return fmt.Errorf("gluon: barrier %d release: %w", tag, err)
	}
	return nil
}

// GatherMasters assembles the canonical model on host 0 after training:
// every other host ships the canonical values of its master range, and
// host 0 combines them with its own range into a fresh model (the wire
// analogue of the simulated trainer's in-memory assembly). Host 0
// returns the assembled model; all other hosts return (nil, nil).
func (hs *HostSync) GatherMasters(local *model.Model) (*model.Model, error) {
	if local.VocabSize() != hs.part.NumNodes() {
		return nil, fmt.Errorf("gluon: model size %d does not match partition %d", local.VocabSize(), hs.part.NumNodes())
	}
	flags := frameFlags(kindGather, hs.mode)
	if hs.host != 0 {
		lo, hi := hs.part.MasterRange(hs.host)
		nodes := make([]int32, 0, hi-lo)
		for n := lo; n < hi; n++ {
			nodes = append(nodes, int32(n))
		}
		msg := encodeVectorFrame(kindGather, 0, flags, hs.dim, nodes, nil, func(n int32, dst []float32) {
			nodeValue(local, n, dst)
		})
		if err := hs.send(0, msg); err != nil {
			return nil, fmt.Errorf("gluon: gather send: %w", err)
		}
		hs.stats.ControlBytes += int64(len(msg))
		return nil, nil
	}
	out := model.New(hs.part.NumNodes(), hs.dim)
	lo, hi := hs.part.MasterRange(0)
	for n := lo; n < hi; n++ {
		copy(out.EmbRow(int32(n)), local.EmbRow(int32(n)))
		copy(out.CtxRow(int32(n)), local.CtxRow(int32(n)))
	}
	for need := hs.part.NumHosts() - 1; need > 0; need-- {
		from, payload, err := hs.nextMessage(kindGather, 0)
		if err != nil {
			return nil, fmt.Errorf("gluon: gather recv: %w", err)
		}
		fromLo, fromHi := hs.part.MasterRange(from)
		err = decodeVectorFrame(payload, hs.dim, flags, func(node int32, half byte, vec []float32) error {
			if int(node) < fromLo || int(node) >= fromHi {
				return fmt.Errorf("gluon: host %d gathered node %d outside its range [%d,%d)", from, node, fromLo, fromHi)
			}
			setNodeHalves(out, node, half, vec, hs.dim)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// nodeDelta writes (local − base) for node n's concatenated labels.
func nodeDelta(local, base *model.Model, n int32, dst []float32) {
	dim := local.Dim
	vecmath.Sub(dst[:dim], local.EmbRow(n), base.EmbRow(n))
	vecmath.Sub(dst[dim:], local.CtxRow(n), base.CtxRow(n))
}

// nodeValue writes node n's concatenated label values.
func nodeValue(m *model.Model, n int32, dst []float32) {
	dim := m.Dim
	copy(dst[:dim], m.EmbRow(n))
	copy(dst[dim:], m.CtxRow(n))
}

// setNodeHalves installs the present halves of a concatenated label
// vector into node n, leaving absent halves untouched.
func setNodeHalves(m *model.Model, n int32, half byte, vec []float32, dim int) {
	if half&halfEmb != 0 {
		copy(m.EmbRow(n), vec[:dim])
	}
	if half&halfCtx != 0 {
		copy(m.CtxRow(n), vec[dim:])
	}
}

// applyCanonical sets node n to base + combined in both replicas.
func applyCanonical(local, base *model.Model, n int32, combined []float32, dim int) {
	emb := base.EmbRow(n)
	ctx := base.CtxRow(n)
	vecmath.Axpy(1, combined[:dim], emb)
	vecmath.Axpy(1, combined[dim:], ctx)
	copy(local.EmbRow(n), emb)
	copy(local.CtxRow(n), ctx)
}
