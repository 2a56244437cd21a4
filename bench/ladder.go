package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"github.com/tacktp/tack/internal/batchio"
	"github.com/tacktp/tack/internal/fec"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// The ladder drives each datapath layer directly, through its exported
// functions, with the packet shapes the workloads put on the wire: 1439 B
// DATA, a rich TACK of 32 blocks, 64 KiB stream objects. The per-packet
// costs it reports are what the traced run subtracts from the endpoint's
// measured CPU per packet to find the endpoint's own share.

const (
	ladderPayload = transport.DefaultPayload
	tackBlocks    = 32
	// ladderTransferBytes is the engine rung's transfer: long enough that
	// the handshake and start-up are under 1 % of its packets. A ladder
	// given less than a second in all (a test) moves a sixteenth of it.
	ladderTransferBytes = 64 << 20
)

// sink keeps the compiler from discarding a rung's work.
var sink int

// rungCost is what one rung measured.
type rungCost struct {
	ns, allocs, bytes float64 // per operation
	ops               int64
}

// rung runs fn in growing batches until budget has elapsed and returns
// the cost per operation. fn(n) performs n operations.
func rung(spans *spanLog, name string, budget time.Duration, fn func(n int)) rungCost {
	sp := spans.begin("ladder."+name, 0, 0)
	fn(1) // first call pays lazy initialisation; not measured
	a0 := readAllocs()
	start := time.Now()
	var ops int64
	for n := 16; ; n *= 2 {
		fn(n)
		ops += int64(n)
		if time.Since(start) >= budget {
			break
		}
	}
	el := time.Since(start)
	a1 := readAllocs()
	spans.endCount(sp, ops)
	return rungCost{
		ns:     float64(el.Nanoseconds()) / float64(ops),
		allocs: float64(a1.mallocs-a0.mallocs) / float64(ops),
		bytes:  float64(a1.bytes-a0.bytes) / float64(ops),
		ops:    ops,
	}
}

func dataPacket() *packet.Packet {
	return &packet.Packet{
		Type: packet.TypeData, ConnID: 0x1234abcd, PktSeq: 123456, SentAt: 987654321,
		Seq: 123456 * ladderPayload, Payload: make([]byte, ladderPayload), OldestPktSeq: 123400,
	}
}

func tackPacket() *packet.Packet {
	a := &packet.AckInfo{
		CumAck: 1 << 30, CumPktSeq: 700000, LargestPktSeq: 700200, AckSeq: 5000, Window: 32 << 20,
		AckDelay: 250 * sim.Microsecond, EchoDeparture: 987654321, FirstEchoDeparture: 987650000,
		DeliveryRate: 1e9, LossRatePermille: 10, ReportedThrough: 700100,
	}
	for i := uint64(0); i < tackBlocks/2; i++ {
		a.AckedBlocks = append(a.AckedBlocks, seqspace.Range{Lo: 700000 + 8*i, Hi: 700006 + 8*i})
		a.UnackedBlocks = append(a.UnackedBlocks, seqspace.Range{Lo: 700006 + 8*i, Hi: 700008 + 8*i})
	}
	return &packet.Packet{Type: packet.TypeTACK, ConnID: 0x1234abcd, PktSeq: 5000, SentAt: 987654321, Ack: a}
}

// ladderValues is what the ladder measured in this process. Its rungs do
// not depend on the workload, so `--workload all` climbs it once, in the
// first workload's share, and the later workloads report the same values.
var ladderValues layerValues

// ladder returns a copy of the ladder's metrics, measuring them if this
// process has not yet.
func ladder(spans *spanLog, budget time.Duration) layerValues {
	if ladderValues == nil {
		ladderValues = runLadder(spans, budget)
	}
	m := make(layerValues, len(manifest.PerLayer))
	for name, v := range ladderValues {
		m[name] = v
	}
	return m
}

// runLadder runs every rung within roughly budget in total and returns
// the ladder's per-layer metrics.
func runLadder(spans *spanLog, budget time.Duration) layerValues {
	top := spans.begin("ladder", 0, 0)
	defer spans.end(top)
	per := budget / 24 // 18 timed rungs plus the two engine transfers
	m := layerValues{}

	// packet: the codec, both directions, both shapes.
	var codecAllocs float64
	for _, sh := range []struct {
		name string
		p    *packet.Packet
	}{{"data", dataPacket()}, {"tack", tackPacket()}} {
		buf := make([]byte, 0, 2048)
		enc := rung(spans, "packet.encode_"+sh.name, per, func(n int) {
			for i := 0; i < n; i++ {
				buf = sh.p.AppendMarshal(buf[:0])
			}
			sink += len(buf)
		})
		wire := sh.p.AppendMarshal(nil)
		var into packet.Packet
		dec := rung(spans, "packet.decode_"+sh.name, per, func(n int) {
			for i := 0; i < n; i++ {
				if err := packet.DecodeInto(&into, wire); err != nil {
					panic(err) // the codec cannot fail on its own output
				}
			}
			sink += int(into.PktSeq)
		})
		m.set("packet.encode_"+sh.name+"_ns", enc.ns)
		m.set("packet.decode_"+sh.name+"_ns", dec.ns)
		codecAllocs += enc.allocs + dec.allocs
	}
	m.set("packet.allocs_per_op", codecAllocs/4)

	// sim: what a protocol timer re-arm and one event dispatch cost.
	{
		loop := sim.NewLoop(1)
		t := sim.NewTimer(loop, func() {})
		reset := rung(spans, "sim.timer_reset", per, func(n int) {
			for i := 0; i < n; i++ {
				t.Reset(loop.Now() + sim.Millisecond)
				if i&255 == 255 {
					loop.Run() // drop the cancelled events, as a live loop does
				}
			}
		})
		nop := func() {}
		ev := rung(spans, "sim.event", per, func(n int) {
			for i := 0; i < n; i++ {
				loop.After(sim.Microsecond, nop)
				loop.Step()
			}
		})
		m.set("sim.timer_reset_ns", reset.ns)
		m.set("sim.timer_reset_allocs", reset.allocs)
		m.set("sim.event_ns", ev.ns)
	}

	// transport: a Sender/Receiver pair on a virtual clock, packets handed
	// over directly after a 10 ms loop.After, clean and with 1 % loss.
	transfer := int64(ladderTransferBytes)
	if budget < time.Second {
		transfer /= 16
	}
	clean := engineTransfer(spans, "transport.clean", transfer, 0)
	lossy := engineTransfer(spans, "transport.lossy", transfer, 0.01)
	m.set("transport.ns_per_data_pkt", clean.ns)
	m.set("transport.allocs_per_data_pkt", clean.allocs)
	m.set("transport.alloc_bytes_per_data_pkt", clean.bytes)
	m.set("transport.lossy_ns_per_data_pkt", lossy.ns)
	m.set("transport.sim_events_per_data_pkt", clean.events)

	// stream: SendMux → frames → RecvMux, one 64 KiB object at a time.
	{
		cfg := stream.Default()
		sm := stream.NewSendMux(cfg, stream.SendDeps{})
		rm := stream.NewRecvMux(cfg, stream.RecvDeps{})
		sm.OnWindowAdverts(0, []packet.StreamWindow{{ID: packet.InitialWindowID, Limit: rm.InitialWindow()}})
		obj := make([]byte, 64<<10)
		rbuf := make([]byte, 64<<10)
		var frames int64
		c := rung(spans, "stream.mux", 2*per, func(n int) {
			for i := 0; i < n; i++ {
				ss, err := sm.Open(stream.Options{})
				if err != nil {
					panic(err)
				}
				_, _ = ss.Write(obj) // 64 KiB fits the 256 KiB send buffer: cannot block
				_ = ss.Close()
				for {
					fr, ok := sm.NextFrame(0, ladderPayload)
					if !ok {
						break
					}
					rm.OnFrame(0, fr.ID, fr.Off, fr.Data, fr.FIN)
					sm.OnFrameAcked(0, fr.ID, fr.Off, len(fr.Data), fr.FIN)
					frames++
				}
				rs := rm.TryAccept()
				for eof := false; rs != nil && !eof; {
					var got int
					got, eof, err = rs.ReadAvailable(rbuf)
					if err != nil || (got == 0 && !eof) {
						panic("stream ladder: object did not arrive whole")
					}
				}
			}
		})
		perObj := float64(frames) / float64(c.ops+1)
		m.set("stream.mux_ns_per_frame", c.ns/perObj)
		m.set("stream.mux_allocs_per_frame", c.allocs/perObj)
	}

	// fec: Reed-Solomon k=10 r=2, encode a group, recover two losses.
	{
		const k, r = 10, 2
		src := make([]*packet.Packet, k)
		for i := range src {
			src[i] = &packet.Packet{Type: packet.TypeData, HasStream: true, HasFEC: true, StreamID: 1,
				PktSeq: uint64(i), Seq: uint64(i) * 1400, StreamOff: uint64(i) * 1400, Payload: make([]byte, 1400)}
			rand.New(rand.NewSource(int64(i))).Read(src[i].Payload)
		}
		var enc fec.Encoder
		var repairs []*packet.Packet
		group := uint32(0)
		e := rung(spans, "fec.encode", per, func(n int) {
			for i := 0; i < n; i++ {
				group++
				repairs = repairs[:0]
				enc.Begin(group, fec.SchemeRS, k, r)
				for _, p := range src {
					p.FECGroup, p.FECIndex = group, uint8(enc.Add(p))
				}
				enc.Seal(0, 1, func(p *packet.Packet) { repairs = append(repairs, p) })
			}
		})
		dec := fec.NewDecoder(0, 0)
		d := rung(spans, "fec.recover", per, func(n int) {
			for i := 0; i < n; i++ {
				group++
				got := 0
				for j, p := range src {
					if j == 3 || j == 7 {
						continue // the two losses
					}
					p.FECGroup = group
					got += len(dec.AddSource(p))
				}
				for _, p := range repairs {
					p.FECGroup = group
					got += len(dec.AddRepair(p))
				}
				if got != 2 {
					panic("fec ladder: two losses not recovered")
				}
			}
		})
		m.set("fec.encode_ns_per_symbol", e.ns/k)
		m.set("fec.recover_ns_per_symbol", d.ns/k)
	}

	batchLadder(spans, per, m)

	// netem: one loss verdict of the relay's model.
	{
		imp := netem.NewImpairer(netem.Impairments{GE: wanUp.Loss}, rand.New(rand.NewSource(1)))
		c := rung(spans, "netem.verdict", per, func(n int) {
			for i := 0; i < n; i++ {
				if imp.Next().Drop {
					sink++
				}
			}
		})
		m.set("netem.verdict_ns", c.ns)
	}

	// telemetry: the two recording primitives the datapath calls.
	{
		// The per-packet counter a traced sender increments (the name is one
		// README.md documents, which cmd/doclint -metrics requires).
		ctr := telemetry.NewRegistry().Counter("snd.data_packets")
		c := rung(spans, "telemetry.counter_inc", per, func(n int) {
			for i := 0; i < n; i++ {
				ctr.Inc()
			}
		})
		ring := telemetry.NewRing(0)
		ev := telemetry.Event{Flow: 1, Seq: 2, PktSeq: 3, Len: 4}
		r := rung(spans, "telemetry.ring_record", per, func(n int) {
			for i := 0; i < n; i++ {
				ring.Put(&ev)
			}
		})
		m.set("telemetry.counter_inc_ns", c.ns)
		m.set("telemetry.ring_record_ns", r.ns)
	}
	return m
}

// engineCost is one engine transfer's cost per DATA packet sent.
type engineCost struct{ ns, allocs, bytes, events float64 }

// engineTransfer moves size bytes between a Sender and a Receiver on one
// virtual clock. Each packet reaches the other half 10 ms of virtual time
// later; lossRate of the DATA packets never do.
func engineTransfer(spans *spanLog, name string, size int64, lossRate float64) engineCost {
	sp := spans.begin("ladder."+name, 0, 0)
	loop := sim.NewLoop(1)
	rng := rand.New(rand.NewSource(1))
	cfg := transport.Config{Mode: transport.ModeTACK, RichTACK: true, TransferBytes: size}
	var snd *transport.Sender
	var rcv *transport.Receiver
	const owd = 10 * sim.Millisecond
	a0 := readAllocs()
	start := time.Now()
	snd, err := transport.NewSender(loop, cfg, func(p *packet.Packet) {
		if lossRate > 0 && p.Type == packet.TypeData && rng.Float64() < lossRate {
			return
		}
		loop.After(owd, func() { rcv.OnPacket(p) })
	})
	if err != nil {
		panic(err) // the config is a constant
	}
	rcv = transport.NewReceiver(loop, cfg, func(p *packet.Packet) {
		loop.After(owd, func() { snd.OnPacket(p) })
	})
	snd.Start()
	for !snd.Done() && loop.Now() < 600*sim.Second && loop.Step() {
	}
	el := time.Since(start)
	a1 := readAllocs()
	if !snd.Done() || rcv.Delivered() != size {
		panic("engine ladder: transfer incomplete")
	}
	pkts := float64(snd.Stats.DataPackets)
	spans.endCount(sp, int64(pkts))
	return engineCost{
		ns:     float64(el.Nanoseconds()) / pkts,
		allocs: float64(a1.mallocs-a0.mallocs) / pkts,
		bytes:  float64(a1.bytes-a0.bytes) / pkts,
		events: float64(loop.Fired()) / pkts,
	}
}

// batchLadder times WriteBatch and ReadBatch on a loopback socket pair at
// batch sizes 1 and 32, with DATA-sized datagrams.
func batchLadder(spans *spanLog, per time.Duration, m layerValues) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	rxc, err := net.ListenUDP("udp", lo)
	if err != nil {
		panic(err)
	}
	defer rxc.Close()
	txc, err := net.ListenUDP("udp", lo)
	if err != nil {
		panic(err)
	}
	defer txc.Close()
	_ = rxc.SetReadBuffer(4 << 20)
	dst := rxc.LocalAddr().(*net.UDPAddr)
	rd := batchio.New(rxc).NewReader(32, 2048)
	wr := batchio.New(txc).NewWriter(32)
	wire := appendDatagram(dataPacket())
	ms := make([]batchio.Message, 32)
	for i := range ms {
		ms[i] = batchio.Message{Buf: wire, Addr: dst}
	}
	// Each step writes a batch and reads it back, so the socket never
	// overflows; the two halves are timed separately.
	var wNs, rNs [2]time.Duration
	var wN, rN [2]int64
	step := func(size, slot int) {
		t0 := time.Now()
		if _, err := wr.WriteBatch(ms[:size]); err != nil {
			panic(err)
		}
		t1 := time.Now()
		got := 0
		for got < size {
			in, err := rd.ReadBatch()
			if err != nil {
				panic(err)
			}
			got += len(in)
		}
		wNs[slot] += t1.Sub(t0)
		rNs[slot] += time.Since(t1)
		wN[slot] += int64(size)
		rN[slot] += int64(got)
	}
	var allocs float64 // per step: one write batch and the read batches that drain it
	for slot, size := range []int{1, 32} {
		c := rung(spans, fmt.Sprintf("batchio.b%d", size), per, func(n int) {
			for i := 0; i < n; i++ {
				step(size, slot)
			}
		})
		allocs += c.allocs
	}
	m.set("batchio.write_ns_per_dgram_b1", float64(wNs[0])/float64(wN[0]))
	m.set("batchio.write_ns_per_dgram_b32", float64(wNs[1])/float64(wN[1]))
	m.set("batchio.read_ns_per_dgram_b1", float64(rNs[0])/float64(rN[0]))
	m.set("batchio.read_ns_per_dgram_b32", float64(rNs[1])/float64(rN[1]))
	m.set("batchio.allocs_per_batch", allocs/4)
}

// appendDatagram encodes p the way the endpoint puts it on the wire; the
// 4-byte frame trailer is the endpoint's own, so the ladder pads for it.
func appendDatagram(p *packet.Packet) []byte {
	return append(p.AppendMarshal(nil), 0, 0, 0, 0)
}
