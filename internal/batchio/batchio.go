// Package batchio provides batched datagram I/O over a *net.UDPConn:
// many datagrams per syscall via recvmmsg/sendmmsg on Linux, and many per
// trip through the kernel's UDP stack via segment trains (UDP_SEGMENT on
// egress, UDP_GRO on ingress), with a graceful single-message fallback on
// other platforms.
//
// The API mirrors golang.org/x/net's ipv4.PacketConn ReadBatch/WriteBatch
// shape (which QUIC stacks use for the same purpose) without taking the
// dependency: the Linux fast path drives the raw syscalls directly
// through the runtime's network poller (syscall.RawConn), so blocking
// semantics, deadlines, and Close-unblocking all keep working.
//
// Readers and Writers preallocate every buffer, iovec, msghdr, and
// sockaddr slot they need at construction; the steady-state hot path
// performs zero heap allocations. A Reader is single-goroutine; each
// goroutine that writes concurrently must own its own Writer (the
// underlying socket itself is safe for concurrent syscalls).
//
// Buffer ownership is strictly batch-scoped in both directions: a
// Reader's Message buffers are valid only until the next ReadBatch, and a
// Writer may not touch caller buffers after WriteBatch returns. DESIGN.md
// ("Datapath performance") documents how internal/endpoint layers its
// pool-based ownership handoffs on top of these rules.
package batchio

import (
	"net"
	"sync/atomic"
	"syscall"
)

// Message is one datagram plus its peer address.
//
// After ReadBatch, Buf[:N] holds the received datagram and Addr its
// source; both point into Reader-owned storage that is overwritten by the
// next ReadBatch — copy anything that must outlive the batch; datagrams
// that arrived as one train are views into one receive slot and share one
// Addr. For WriteBatch the caller fills Buf (the full slice is sent) and
// Addr (the destination), and the Writer reports in N how the datagrams
// left: the length of the train a datagram led (1 when it went alone), 0
// when it rode in one, negative when the train it led was refused by the
// kernel and went out as single datagrams.
type Message struct {
	Buf  []byte
	N    int
	Addr *net.UDPAddr
}

// Conn wraps a UDP socket for batched I/O.
type Conn struct {
	uc *net.UDPConn
	rc syscall.RawConn
	// v6 records the socket family: sendmmsg destinations must be encoded
	// in the socket's own family (v4 targets become v4-mapped v6 on a
	// dual-stack socket).
	v6      bool
	batched bool
	// gsoOff latches once the kernel has refused a segment train on this
	// socket: every Writer of the Conn then sends one datagram per header.
	gsoOff atomic.Bool
}

// New wraps uc. It never fails to produce a usable Conn: when the raw
// descriptor or the platform's batch syscalls are unavailable the Conn
// silently degrades to single-message I/O.
func New(uc *net.UDPConn) *Conn {
	c := &Conn{uc: uc}
	if la, ok := uc.LocalAddr().(*net.UDPAddr); ok {
		c.v6 = la.IP.To4() == nil
	}
	if rc, err := uc.SyscallConn(); err == nil {
		c.rc = rc
		c.batched = batchSupported
	}
	return c
}

// Batched reports whether ReadBatch/WriteBatch use multi-message syscalls
// (true on Linux) rather than the one-datagram fallback.
func (c *Conn) Batched() bool { return c.batched }

// DisableBatching forces the single-message fallback even where the
// platform supports batch syscalls: one datagram per syscall, no segment
// trains in either direction. Call before creating Readers/Writers (tests
// and diagnostics; the fallback path is otherwise unreachable on Linux).
func (c *Conn) DisableBatching() { c.batched = false }

// Reader reads datagram batches from the socket. A Reader is owned by one
// goroutine; its Messages are overwritten by each ReadBatch.
type Reader struct {
	c  *Conn
	ms []Message
	mm mmsgReaderState
}

// NewReader builds a reader holding `batch` message slots of `size` bytes
// each. Datagrams longer than size are truncated (and will fail to decode
// upstream); size should be the protocol's maximum datagram length. A
// reader whose slots can hold the largest UDP payload (size ≥ 65,535) also
// asks the kernel to deliver trains whole (UDP_GRO, a property of the
// socket from then on) and may return more than `batch` datagrams; smaller
// slots never do, because a train cut off at a slot's end loses datagrams.
func (c *Conn) NewReader(batch, size int) *Reader {
	if batch < 1 || !c.batched {
		batch = 1
	}
	r := &Reader{c: c, ms: make([]Message, batch)}
	for i := range r.ms {
		r.ms[i].Buf = make([]byte, size)
		r.ms[i].Addr = &net.UDPAddr{IP: make(net.IP, 16)}
	}
	r.initMmsg()
	return r
}

// ReadBatch blocks until at least one datagram arrives and returns the
// datagrams read (valid until the next call). On Linux a single recvmmsg
// fills up to the reader's batch size of slots; elsewhere one datagram is
// read per call.
func (r *Reader) ReadBatch() ([]Message, error) {
	if r.c.batched {
		return r.readMmsg()
	}
	return r.readSingle()
}

// readSingle is the portable one-datagram path.
func (r *Reader) readSingle() ([]Message, error) {
	n, from, err := r.c.uc.ReadFromUDP(r.ms[0].Buf)
	if err != nil {
		return nil, err
	}
	r.ms[0].N = n
	r.ms[0].Addr = from
	return r.ms[:1], nil
}

// Writer sends datagram batches. Each concurrently writing goroutine must
// own its own Writer; the socket itself tolerates concurrent syscalls.
type Writer struct {
	c  *Conn
	mm mmsgWriterState
}

// NewWriter builds a writer with scratch space for batches up to `batch`
// messages per syscall (larger WriteBatch calls are chunked).
func (c *Conn) NewWriter(batch int) *Writer {
	if batch < 1 {
		batch = 1
	}
	w := &Writer{c: c}
	w.initMmsg(batch)
	return w
}

// WriteBatch sends every message (chunking and retrying partial batches)
// and returns the number sent. On error it reports how many datagrams
// were handed to the kernel before the failure; the message at index
// `sent` is the one that failed, or the first of a train that failed whole
// (none of a failed train was sent).
func (w *Writer) WriteBatch(ms []Message) (int, error) {
	if w.c.batched {
		return w.writeMmsg(ms)
	}
	return w.writeSingle(ms)
}

// writeSingle is the portable per-datagram path.
func (w *Writer) writeSingle(ms []Message) (int, error) {
	for i := range ms {
		if _, err := w.c.uc.WriteToUDP(ms[i].Buf, ms[i].Addr); err != nil {
			return i, err
		}
		ms[i].N = 1
	}
	return len(ms), nil
}
