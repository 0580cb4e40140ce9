// Package gluon is GraphWord2Vec's communication substrate, modelled on
// the Gluon system the paper builds on (§2.4, §4.3–4.4): bulk-synchronous
// reduce/broadcast synchronisation of node labels between master and
// mirror proxies, with a user-supplied reduction operator and sparse
// communication driven by per-round touched-node bit-vectors.
//
// Three synchronisation schemes are implemented, matching the paper's
// evaluation variants:
//
//   - RepModelNaive — dense: every proxy is reduced and every master is
//     broadcast every round.
//   - RepModelOpt — sparse: only proxies touched this round are reduced,
//     and only nodes updated on some host are broadcast (bit-vector
//     tracking; the paper's default).
//   - PullModel — sparse reduce plus pull-style broadcast: an inspection
//     pass announces the node set each host will access next round, and
//     masters are sent only to the mirrors that will read them.
//
// Beyond the per-round reduce/broadcast/access messages, the wire
// protocol carries cluster-control traffic: tagged barriers (used by the
// distributed runner's start/finish fences) and a final gather in which
// every owner ships its canonical master range to rank 0 for model
// assembly. Vector frames share one encoding (codec.go): index sets are
// varint-delta compressed and all-zero vector halves are suppressed
// where the receiver can reconstruct them, while every value that ships
// is exact float32. The complete frame-level specification, the
// handshake, and the version-bump policy are documented in PROTOCOL.md.
//
// Hosts exchange messages over a pluggable Transport: an in-process
// channel transport drives the simulated cluster, a TCP transport
// (transport_tcp.go) exercises the identical protocol over real sockets
// inside one process, and DialMesh (transport_mesh.go) bootstraps a
// verified multi-process TCP mesh with a version/checksum handshake.
package gluon

import (
	"errors"
	"fmt"
	"sync"
)

// Transport moves opaque payloads between hosts. Implementations must
// preserve per-(sender, receiver) ordering and allow at least
// 4 × NumHosts outstanding messages per receiver without blocking senders
// (the BSP protocol's bound). Send and Recv may be called concurrently
// from different goroutines.
type Transport interface {
	// NumHosts returns the cluster size.
	NumHosts() int
	// Send delivers payload from host `from` to host `to`. The payload
	// must not be modified after Send returns.
	Send(from, to int, payload []byte) error
	// Recv blocks until a message for host arrives and returns the
	// sender and payload. It returns an error once the transport is
	// closed and drained.
	Recv(host int) (from int, payload []byte, err error)
	// Close releases transport resources. Pending Recv calls unblock
	// with an error after the inbox drains.
	Close() error
}

// ErrTransportClosed is returned by Recv after Close once the receiving
// host's inbox is empty.
var ErrTransportClosed = errors.New("gluon: transport closed")

type inprocMsg struct {
	from    int
	payload []byte
}

// InProcTransport connects n simulated hosts through buffered channels.
// It is the default transport for the simulated cluster: byte-exact
// payloads, per-sender FIFO ordering, zero copies beyond the payload
// slices themselves.
type InProcTransport struct {
	inboxes   []chan inprocMsg
	closeOnce sync.Once
	done      chan struct{}
}

// NewInProcTransport creates a transport for n hosts. Each inbox is
// buffered generously (16 × n) so the BSP protocol never deadlocks on a
// full buffer.
func NewInProcTransport(n int) (*InProcTransport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gluon: transport needs at least one host, got %d", n)
	}
	t := &InProcTransport{
		inboxes: make([]chan inprocMsg, n),
		done:    make(chan struct{}),
	}
	buf := 16 * n
	for i := range t.inboxes {
		t.inboxes[i] = make(chan inprocMsg, buf)
	}
	return t, nil
}

// NumHosts implements Transport.
func (t *InProcTransport) NumHosts() int { return len(t.inboxes) }

// Send implements Transport.
func (t *InProcTransport) Send(from, to int, payload []byte) error {
	if from < 0 || from >= len(t.inboxes) || to < 0 || to >= len(t.inboxes) {
		return fmt.Errorf("gluon: send %d→%d out of range", from, to)
	}
	select {
	case <-t.done:
		return ErrTransportClosed
	default:
	}
	select {
	case t.inboxes[to] <- inprocMsg{from: from, payload: payload}:
		return nil
	case <-t.done:
		return ErrTransportClosed
	}
}

// Recv implements Transport.
func (t *InProcTransport) Recv(host int) (int, []byte, error) {
	if host < 0 || host >= len(t.inboxes) {
		return 0, nil, fmt.Errorf("gluon: recv on host %d out of range", host)
	}
	select {
	case m := <-t.inboxes[host]:
		return m.from, m.payload, nil
	case <-t.done:
		// Drain anything already queued before reporting closure.
		select {
		case m := <-t.inboxes[host]:
			return m.from, m.payload, nil
		default:
			return 0, nil, ErrTransportClosed
		}
	}
}

// Close implements Transport.
func (t *InProcTransport) Close() error {
	t.closeOnce.Do(func() { close(t.done) })
	return nil
}
