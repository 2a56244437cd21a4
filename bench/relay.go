package main

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tacktp/tack/internal/netem"
)

// relaySockBuf is the relay's socket buffer request: large enough that a
// sender running at twice the link rate is dropped by the modelled queue,
// where it is counted, and not by the kernel, where it is not.
const relaySockBuf = 8 << 20

// linkConfig is one direction of the emulated path.
type linkConfig struct {
	RateBps    float64              // serialization rate, bits per second
	Delay      time.Duration        // one-way propagation delay
	QueueBytes int                  // drop-tail queue ahead of the link
	Loss       netem.GilbertElliott // burst loss applied before the queue
}

// relayStats counts every datagram one direction saw. After Close,
// In == Forwarded + ModelDrops + TailDrops + Flushed.
type relayStats struct {
	In, Forwarded, ModelDrops, TailDrops, Flushed uint64
	InBytes                                       uint64
}

// relayPkt is one datagram on the delay line.
type relayPkt struct {
	buf     *[]byte
	n       int
	arrived time.Time // read off the ingress socket
	depart  time.Time // end of serialization on the modelled link
}

// relayDir is one direction: a reader goroutine that applies the loss
// model, the drop-tail queue and the token-bucket departure schedule, a
// FIFO delay line, and a writer goroutine that releases each datagram at
// its departure time plus the propagation delay. One reader and one writer
// keep the direction strictly in order.
type relayDir struct {
	cfg  linkConfig
	imp  *netem.Impairer
	line chan relayPkt
	pool sync.Pool

	in, fwd, model, tail, flushed, inBytes atomic.Uint64

	// Writer-owned samples, read after Close (trace runs only).
	sample  bool
	queueUs []float64 // arrival → end of serialization
	lateUs  []float64 // how late after its due time a datagram left
}

func newRelayDir(cfg linkConfig, seed int64, sample bool) *relayDir {
	d := &relayDir{
		cfg: cfg,
		// The modelled queue bounds what is in flight: QueueBytes of
		// backlog plus Delay of line. 16384 slots cover a queue full of
		// minimum-size acknowledgments; a full line blocks the reader,
		// which backs up into the socket buffer.
		line:   make(chan relayPkt, 16384),
		sample: sample,
	}
	d.imp = netem.NewImpairer(netem.Impairments{GE: cfg.Loss}, rand.New(rand.NewSource(seed)))
	d.pool.New = func() any { b := make([]byte, 2048); return &b }
	return d
}

// admit decides one datagram's fate at time now given the link's current
// backlog horizon nextFree, and returns the new horizon. It is the whole
// link model, kept free of I/O so tests can drive it with a fake clock.
func (d *relayDir) admit(now, nextFree time.Time, size int) (verdict relayVerdict, depart, horizon time.Time) {
	if d.imp.Next().Drop {
		return verdictModelDrop, time.Time{}, nextFree
	}
	if nextFree.Before(now) {
		nextFree = now
	}
	backlog := nextFree.Sub(now).Seconds() * d.cfg.RateBps / 8
	if d.cfg.QueueBytes > 0 && backlog+float64(size) > float64(d.cfg.QueueBytes) {
		return verdictTailDrop, time.Time{}, nextFree
	}
	depart = nextFree.Add(time.Duration(float64(size) * 8 / d.cfg.RateBps * float64(time.Second)))
	return verdictForward, depart, depart
}

type relayVerdict uint8

const (
	verdictForward relayVerdict = iota
	verdictModelDrop
	verdictTailDrop
)

// ingest runs the reader side for one datagram already copied into pkt.
func (d *relayDir) ingest(pkt relayPkt, nextFree time.Time) time.Time {
	d.in.Add(1)
	d.inBytes.Add(uint64(pkt.n))
	v, depart, horizon := d.admit(pkt.arrived, nextFree, pkt.n)
	switch v {
	case verdictModelDrop:
		d.model.Add(1)
		d.pool.Put(pkt.buf)
	case verdictTailDrop:
		d.tail.Add(1)
		d.pool.Put(pkt.buf)
	default:
		pkt.depart = depart
		d.line <- pkt
	}
	return horizon
}

// drain runs the writer side until the line is closed. Once stop is
// closed the remaining datagrams are counted as flushed, not sent.
func (d *relayDir) drain(write func([]byte), stop <-chan struct{}) {
	for pkt := range d.line {
		due := pkt.depart.Add(d.cfg.Delay)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
			}
		}
		select {
		case <-stop:
			d.flushed.Add(1)
			d.pool.Put(pkt.buf)
			continue
		default:
		}
		if d.sample {
			d.queueUs = append(d.queueUs, float64(pkt.depart.Sub(pkt.arrived))/1e3)
			d.lateUs = append(d.lateUs, float64(time.Since(due))/1e3)
		}
		write((*pkt.buf)[:pkt.n])
		d.fwd.Add(1)
		d.pool.Put(pkt.buf)
	}
}

func (d *relayDir) stats() relayStats {
	return relayStats{
		In: d.in.Load(), Forwarded: d.fwd.Load(), ModelDrops: d.model.Load(),
		TailDrops: d.tail.Load(), Flushed: d.flushed.Load(), InBytes: d.inBytes.Load(),
	}
}

// conserved reports whether every datagram read is accounted for.
func (s relayStats) conserved() bool {
	return s.In == s.Forwarded+s.ModelDrops+s.TailDrops+s.Flushed
}

// relay is a rate-limited, delaying, lossy UDP path between one client
// endpoint and one server: the benchmark's stand-in for a WAN link.
// netem.UDPProxy is not used: it has no rate limit and releases each
// datagram from its own timer goroutine, so it reorders and lets a sender
// overrun its socket buffer unseen.
type relay struct {
	client *net.UDPConn // clients send here
	server *net.UDPConn // connected to the real server
	up     *relayDir    // client → server (the data direction)
	down   *relayDir    // server → client

	clientAddr atomic.Pointer[net.UDPAddr]
	stop       chan struct{}
	readers    sync.WaitGroup
	writers    sync.WaitGroup
}

// newRelay starts a relay toward target. seed drives the loss verdicts of
// the two directions (seed and seed+1).
func newRelay(target string, up, down linkConfig, seed int64, sample bool) (*relay, error) {
	ta, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	client, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	server, err := net.DialUDP("udp", nil, ta)
	if err != nil {
		client.Close()
		return nil, err
	}
	for _, c := range []*net.UDPConn{client, server} {
		// Best effort: the kernel clamps to its configured maximum, which
		// the fingerprint records.
		_ = c.SetReadBuffer(relaySockBuf)
		_ = c.SetWriteBuffer(relaySockBuf)
	}
	r := &relay{
		client: client, server: server,
		up:   newRelayDir(up, seed, sample),
		down: newRelayDir(down, seed+1, sample),
		stop: make(chan struct{}),
	}
	r.readers.Add(2)
	r.writers.Add(2)
	go r.readUp()
	go r.readDown()
	go func() {
		defer r.writers.Done()
		r.up.drain(func(b []byte) { _, _ = r.server.Write(b) }, r.stop)
	}()
	go func() {
		defer r.writers.Done()
		r.down.drain(func(b []byte) {
			if a := r.clientAddr.Load(); a != nil {
				_, _ = r.client.WriteToUDP(b, a)
			}
		}, r.stop)
	}()
	return r, nil
}

// Addr is the address clients dial instead of the server's.
func (r *relay) Addr() string { return r.client.LocalAddr().String() }

func (r *relay) readUp() {
	defer r.readers.Done()
	var horizon time.Time
	for {
		bp := r.up.pool.Get().(*[]byte)
		n, from, err := r.client.ReadFromUDP(*bp)
		if err != nil {
			return
		}
		if a := r.clientAddr.Load(); a == nil || a.Port != from.Port {
			r.clientAddr.Store(from)
		}
		horizon = r.up.ingest(relayPkt{buf: bp, n: n, arrived: time.Now()}, horizon)
	}
}

func (r *relay) readDown() {
	defer r.readers.Done()
	var horizon time.Time
	for {
		bp := r.down.pool.Get().(*[]byte)
		n, err := r.server.Read(*bp)
		if err != nil {
			if isClosed(r.stop) {
				return
			}
			// A connected UDP socket reports ICMP port-unreachable from a
			// server that closed first as a read error; keep going, slowly.
			r.down.pool.Put(bp)
			time.Sleep(time.Millisecond)
			continue
		}
		horizon = r.down.ingest(relayPkt{buf: bp, n: n, arrived: time.Now()}, horizon)
	}
}

// Close stops the relay and waits for its four goroutines. Datagrams still
// on a delay line are counted as flushed.
func (r *relay) Close() {
	close(r.stop)
	r.client.Close()
	r.server.Close()
	r.readers.Wait()
	close(r.up.line)
	close(r.down.line)
	r.writers.Wait()
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
