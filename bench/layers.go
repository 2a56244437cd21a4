package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/tacktp/tack/internal/telemetry"
)

// layerValues collects a traced run's metrics: the ones BENCHMARK.json
// lists under per_layer. Every workload reports every one of them, 0 where
// the layer is not on the workload's path (stream.* outside streams,
// relay.* outside wan_bulk, endpoint.held_* outside held1k).
type layerValues map[string]Metric

func (m layerValues) set(name string, v float64) { m[name] = manifest.metric(name, v) }

// Shares of --seconds a traced run gives each of its parts.
const (
	plainShare  = 0.2 // untraced reference window, for trace.overhead_ratio
	heldShare   = 0.2 // held1k only: held connections alone, nothing else running
	tracedShare = 0.4 // the traced window
	ladderShare = 0.2
)

// epCounters is a reading of the traced endpoints' registries, summed
// over client and server.
type epCounters struct {
	readBatches, readDgrams, writeBatches, writeDgrams float64
	poolGets, poolMisses                               float64
	demuxDrops, acceptDrops, txErrors, dials           float64
}

func (fx *fixture) readEP() epCounters {
	var c epCounters
	for _, reg := range []*telemetry.Registry{fx.regSrv, fx.regCli} {
		if reg == nil {
			continue
		}
		hist := func(name string) (float64, float64) {
			n, sum := reg.Histogram(name).VisitBuckets(func(float64, uint64) {})
			return float64(n), sum
		}
		ctr := func(name string) float64 { return float64(reg.Counter(name).Value()) }
		n, sum := hist("ep.batch.read_size")
		c.readBatches, c.readDgrams = c.readBatches+n, c.readDgrams+sum
		n, sum = hist("ep.batch.write_size")
		c.writeBatches, c.writeDgrams = c.writeBatches+n, c.writeDgrams+sum
		c.poolGets += ctr("ep.batch.pkt_pool_gets") + ctr("ep.batch.buf_pool_gets")
		c.poolMisses += ctr("ep.batch.pkt_pool_misses") + ctr("ep.batch.buf_pool_misses")
		c.demuxDrops += ctr("ep.demux_drops")
		c.acceptDrops += ctr("ep.accept_drops")
		c.txErrors += ctr("ep.tx_errors")
		c.dials += ctr("ep.dials")
	}
	return c
}

// heldIdle is what held1k's idle phase measured.
type heldIdle struct {
	cores, kbPerConn float64
}

// runTraced is the traced run: an untraced reference window, then the
// same workload with metrics registries on both endpoints and spans
// around every call into a layer, then the ladder. Nothing it measures is
// an end-to-end metric.
func runTraced(sp *spec, o runOpts) (*WorkloadResult, error) {
	share := func(f float64) time.Duration { return time.Duration(f * float64(o.window)) }
	swl := o.spans.begin("workload", 0, 0)
	defer o.spans.end(swl)

	ref, err := setUp(sp, runOpts{seed: o.seed})
	if err != nil {
		return nil, fmt.Errorf("%s: reference set-up: %w", sp.name, err)
	}
	plain := ref.measure(share(plainShare))

	ss := o.spans.begin("setup", 0, 0)
	var idle heldIdle
	heap0 := uint64(0)
	if sp.held > 0 {
		heap0 = liveHeap()
	}
	fx, err := build(sp, o.seed, true, o.spans)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	if sp.held > 0 {
		idle.kbPerConn = float64(liveHeap()-heap0) / 1e3 / float64(sp.held)
		c0, t0 := cpuTime(), time.Now()
		time.Sleep(share(heldShare))
		idle.cores = (cpuTime() - c0).Seconds() / time.Since(t0).Seconds()
	}
	if err := fx.warmUp(o.seed); err != nil {
		fx.close()
		return nil, fmt.Errorf("%s: warm-up: %w", sp.name, err)
	}
	o.spans.end(ss)
	ws := fx.measure(share(tracedShare))
	lifetime := fx.rec.since()

	res := ws.result(sp)
	traced := res.Metrics["goodput_mb_s"].Value
	m := ladder(o.spans, share(ladderShare))
	fx.layerMetrics(&ws, lifetime, idle, o.spans, m)
	m.set("trace.overhead_ratio", ratio(traced, plain.goodput/MB))
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Notes = append(res.Notes, plain.notes...)
	if res.Attempted == 0 {
		return nil, errTooShort(sp, o)
	}
	res.Correct = res.Failed == 0
	res.Metrics = m
	if name := missing(m, manifest.PerLayer); name != "" {
		return nil, fmt.Errorf("%s: per-layer metric %s was not measured", sp.name, name)
	}
	return res, nil
}

// layerMetrics fills m with the per-workload layer metrics of a halted
// traced fixture. m already holds the ladder's costs.
func (fx *fixture) layerMetrics(ws *windowStats, lifetime time.Duration, idle heldIdle, spans *spanLog, m layerValues) {
	set := m.set
	p50 := func(v []float64) float64 { sort.Float64s(v); return median(v) }
	tx, rx := fx.rec.tx, fx.rx

	// transport and ackpolicy: the engines' counters.
	first := float64(tx.DataPackets - tx.Retransmits)
	retx := ratio(float64(tx.Retransmits), first)
	acks := float64(rx.TACKsSent + rx.IACKsSent)
	acksPerData := ratio(acks, float64(rx.DataPackets))
	set("transport.retx_ratio", retx)
	set("transport.dup_ratio", ratio(float64(rx.DupPackets), float64(rx.DataPackets)))
	set("transport.timeouts", float64(tx.Timeouts))
	set("transport.tlp_probes", float64(tx.TLPProbes))
	set("transport.rack_marked", float64(tx.RackMarked))
	set("ackpolicy.acks_per_data_pkt", acksPerData)
	set("ackpolicy.ack_bytes_per_mb", ratio(float64(rx.AckBytesSent), float64(rx.BytesDelivered)/MB))
	set("ackpolicy.iack_share", ratio(float64(rx.IACKsSent), acks))
	set("ackpolicy.ack_hz", ratio(acks, fx.rxSeconds))
	set("ackpolicy.tack_hz", ratio(float64(rx.TACKsSent), fx.rxSeconds))

	// rtt and cc: 10 Hz samples of the sending connections.
	var srtt, rmin, over, cwnd, deliv []float64
	limited := 0
	for i := range fx.samples {
		s := &fx.samples[i]
		srtt = append(srtt, s.SRTTMs)
		cwnd = append(cwnd, float64(s.CwndBytes)/1e3)
		deliv = append(deliv, s.DeliveryBps/8/MB)
		if s.RTTMinMs > 0 {
			rmin = append(rmin, s.RTTMinMs)
			over = append(over, s.SRTTMs/s.RTTMinMs)
		}
		if s.WindowFreeBytes < ladderPayload {
			limited++
		}
	}
	set("rtt.srtt_ms_p50", p50(srtt))
	set("rtt.min_ms", p50(rmin))
	set("rtt.srtt_over_min", p50(over))
	set("cc.cwnd_kb_p50", p50(cwnd))
	set("cc.cwnd_limited_share", ratio(float64(limited), float64(len(fx.samples))))
	set("cc.delivery_mb_s_p50", p50(deliv))

	// stream and endpoint: spans around the calls.
	set("stream.open_us_p50", p50(spans.durationsMs("stream.open"))*1e3)
	set("stream.write_ms_p50", p50(spans.durationsMs("stream.write")))
	set("stream.first_byte_ms_p50", p50(spans.durationsMs("stream.first_byte")))
	set("stream.eof_after_first_ms_p50", p50(spans.durationsMs("stream.read_eof")))
	dial := spans.durationsMs("endpoint.dial")
	set("endpoint.dial_ms_p50", p50(dial))
	set("endpoint.dial_ms_p90", pctOrZero(dial, 0.90))
	set("endpoint.transfer_ms_p50", p50(spans.durationsMs("endpoint.transfer")))
	set("endpoint.op_self_ms_p50", p50(spans.selfMs("op")))

	// batchio: the endpoints' batch-size histograms over the window.
	e0, e1 := ws.m0.ep, ws.m1.ep
	perRead := ratio(e1.readDgrams-e0.readDgrams, e1.readBatches-e0.readBatches)
	perWrite := ratio(e1.writeDgrams-e0.writeDgrams, e1.writeBatches-e0.writeBatches)
	dataPkts := ws.bytes / ladderPayload * (1 + retx)
	set("batchio.dgrams_per_read", perRead)
	set("batchio.dgrams_per_write", perWrite)
	set("batchio.syscalls_per_data_pkt",
		ratio(e1.readBatches-e0.readBatches+e1.writeBatches-e0.writeBatches, dataPkts))

	// endpoint: process CPU and allocations per DATA packet, and the part
	// of it the ladder's direct-call costs do not explain. A datagram is
	// encoded, written, read and decoded once; so is each acknowledgment.
	v := func(name string) float64 { return m[name].Value }
	atBatch := func(b1, b32, size float64) float64 {
		if size < 1 {
			size = 1
		}
		fixed := (b1 - b32) * 32 / 31 // per-syscall cost, amortised over the batch
		return b1 - fixed + fixed/size
	}
	cpuNs := ratio(float64(ws.cpu.Nanoseconds()), dataPkts)
	codecNs := v("packet.encode_data_ns") + v("packet.decode_data_ns") +
		acksPerData*(v("packet.encode_tack_ns")+v("packet.decode_tack_ns"))
	ioNs := (1 + acksPerData) *
		(atBatch(v("batchio.write_ns_per_dgram_b1"), v("batchio.write_ns_per_dgram_b32"), perWrite) +
			atBatch(v("batchio.read_ns_per_dgram_b1"), v("batchio.read_ns_per_dgram_b32"), perRead))
	set("endpoint.cpu_ns_per_data_pkt", cpuNs)
	set("packet.ns_per_data_pkt", codecNs)
	set("batchio.ns_per_data_pkt", ioNs)
	set("endpoint.self_ns_per_data_pkt", cpuNs-v("transport.ns_per_data_pkt")-codecNs-ioNs)
	a0, a1 := ws.m0.allocs, ws.m1.allocs
	set("endpoint.allocs_per_data_pkt", ratio(float64(a1.mallocs-a0.mallocs), dataPkts))
	set("endpoint.alloc_bytes_per_data_pkt", ratio(float64(a1.bytes-a0.bytes), dataPkts))
	set("endpoint.cores_busy", ws.cpu.Seconds()/ws.wall.Seconds())
	set("endpoint.gc_pause_ms", float64(a1.pauseNs-a0.pauseNs)/1e6)
	set("endpoint.pool_miss_ratio", ratio(e1.poolMisses-e0.poolMisses, e1.poolGets-e0.poolGets))
	set("endpoint.demux_drops", e1.demuxDrops-e0.demuxDrops)
	set("endpoint.accept_drops", e1.acceptDrops-e0.acceptDrops)
	set("endpoint.tx_errors", e1.txErrors-e0.txErrors)
	set("endpoint.dials_per_s", (e1.dials-e0.dials)/ws.wall.Seconds())
	set("endpoint.held_cpu_cores", idle.cores)
	set("endpoint.held_kb_per_conn", idle.kbPerConn)
	set("endpoint.idle_cpu_us_per_conn_s", ratio(idle.cores*1e6, float64(fx.sp.held)))

	// relay: what the emulated link did to the data direction.
	var up relayStats
	var queueUs, lateUs []float64
	if fx.relay != nil {
		up = fx.relay.up.stats()
		queueUs, lateUs = fx.relay.up.queueUs, fx.relay.up.lateUs
		sort.Float64s(queueUs)
		sort.Float64s(lateUs)
	}
	set("relay.tail_drop_ratio", ratio(float64(up.TailDrops), float64(up.In)))
	set("relay.ge_drop_ratio", ratio(float64(up.ModelDrops), float64(up.In)))
	set("relay.offered_over_capacity", ratio(float64(up.InBytes)*8/lifetime.Seconds(), wanUp.RateBps))
	set("relay.queue_ms_p50", median(queueUs)/1e3)
	set("relay.queue_ms_p99", pctOrZero(queueUs, 0.99)/1e3)
	set("relay.late_us_p99", pctOrZero(lateUs, 0.99))
}
