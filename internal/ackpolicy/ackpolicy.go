// Package ackpolicy implements acknowledgment scheduling disciplines.
//
// A Policy decides *when* the receiver emits an acknowledgment; the
// transport layer decides what the ACK contains. The disciplines map to
// the paper's §4.1 taxonomy:
//
//   - PerPacket:  legacy TCP with TCP_QUICKACK — ACK every packet (Eq. 4).
//   - Delayed:    RFC 1122/5681 delayed ACK — every L=2 full-sized packets
//     or after a timer γ (Eq. 5).
//   - ByteCount:  ACK every L ≥ 2 full-sized packets, unbounded frequency
//     under bandwidth growth (Eq. 1).
//   - TACK:       f = min(bw/(L·MSS), β/RTTmin) (Eq. 3): ACK when at least
//     L·MSS bytes have arrived AND at least RTTmin/β has elapsed — the
//     conjunction yields exactly the minimum of the two frequencies. It
//     degrades to byte-counting at small bdp and to periodic at large bdp.
package ackpolicy

import (
	"fmt"

	"github.com/tacktp/tack/internal/sim"
)

// MSS is the paper's full-sized packet: the unit of Eq. 3's L·MSS, of the
// block budget an acknowledgment may fill, and of congestion windows. It is
// the one copy; every layer that counts in packets reads it.
const MSS = 1500

// DefaultBeta and DefaultL are the paper's recommended defaults (§4.1,
// Appendix B.3): β = 4 ACKs per RTTmin for buffer robustness, L = 2 for
// latency-sensitive low-rate flows.
const (
	DefaultBeta = 4
	DefaultL    = 2
)

// TailDelay bounds how long a sub-threshold tail of data may wait for an
// acknowledgment (mirrors the delayed-ACK ceiling; RFC 1122's "no more than
// 500 ms", Linux-like 200 ms here).
const TailDelay = 200 * sim.Millisecond

// MinInterval is the floor of the TACK spacing α = RTTmin/β. The reason is
// the clock that serves it: an endpoint's timers are no more punctual than
// a millisecond, so a finer spacing adds acknowledgments without adding
// feedback. The sender's window provisions whatever interval results
// (cc.Ack.AckInterval), so on a sub-millisecond path the floor costs
// window, not throughput. Interval, and through it the TACK policy,
// Receiver.AckTargetHz and the sender's window, read it; so does the
// sender's probe timeout.
const MinInterval = sim.Millisecond

// Interval returns Eq. 3's acknowledgment spacing 1/f_tack: the longer of
// the byte-counting spacing — L·MSS at bwBps, in whole packets of payload
// bytes, because the threshold is crossed only on an arrival — and the
// periodic spacing α = RTTmin/β, floored at MinInterval. A zero bwBps or
// rttMin drops its term; 0 means neither is known. This is the one
// implementation: the TACK policy keeps its α, the receiver reports its
// target frequency, and the sender provisions its window from it.
func Interval(beta, l, payload int, bwBps float64, rttMin sim.Time) sim.Time {
	var iv sim.Time
	if rttMin > 0 {
		iv = max(rttMin/sim.Time(beta), MinInterval)
	}
	if bwBps > 0 {
		bits := (l*MSS + payload - 1) / payload * payload * 8
		iv = max(iv, sim.Time(float64(bits)/bwBps*1e9))
	}
	return iv
}

// Policy decides acknowledgment timing.
type Policy interface {
	// Name identifies the policy for reporting.
	Name() string
	// OnData is invoked per arriving data packet; it returns true when an
	// acknowledgment should be sent immediately.
	OnData(now sim.Time, bytes int) bool
	// Deadline returns the next timer-driven ACK time, or 0 when no timer
	// is needed. The transport re-queries after every event.
	Deadline(now sim.Time) sim.Time
	// OnAckSent informs the policy that an acknowledgment (of any kind,
	// including IACKs that carry cumulative state) left at time now.
	OnAckSent(now sim.Time)
	// Update feeds the policy fresh transport estimates: the receiver-side
	// maximum delivery rate (bits/s) and the synced RTTmin. Policies that
	// do not adapt ignore it.
	Update(bwBps float64, rttMin sim.Time)
	// LastTrigger reports the trigger behind the most recent decision.
	// After OnData returns true it explains that immediate ack; after
	// OnData returns false it explains what a subsequent Deadline-driven
	// ack would mean.
	LastTrigger() Trigger
}

// Trigger identifies which condition of a discipline most recently
// warranted (or will next warrant) an acknowledgment — the per-event
// answer to "why did this TACK fire" that the telemetry layer records.
type Trigger uint8

// Trigger values.
const (
	// TriggerNone: no acknowledgment condition is pending.
	TriggerNone Trigger = iota
	// TriggerBytes: the byte-counting threshold (L·MSS pending) fired.
	TriggerBytes
	// TriggerTimer: the periodic spacing α = RTTmin/β fired with the byte
	// condition already satisfied.
	TriggerTimer
	// TriggerTail: the bounded tail delay fired for a sub-threshold tail.
	TriggerTail
)

// String names the trigger.
func (t Trigger) String() string {
	switch t {
	case TriggerBytes:
		return "bytes"
	case TriggerTimer:
		return "timer"
	case TriggerTail:
		return "tail"
	default:
		return "none"
	}
}

// base carries the bookkeeping shared by all disciplines.
type base struct {
	bytesPending int
	firstPending sim.Time
	lastAck      sim.Time
	havePending  bool
	lastTrigger  Trigger
}

func (b *base) onData(now sim.Time, bytes int) {
	if !b.havePending {
		b.havePending = true
		b.firstPending = now
	}
	b.bytesPending += bytes
}

// LastTrigger implements Policy for every discipline embedding base.
func (b *base) LastTrigger() Trigger { return b.lastTrigger }

func (b *base) onAckSent(now sim.Time) {
	b.bytesPending = 0
	b.havePending = false
	b.lastAck = now
}

// PerPacket acknowledges every packet.
type PerPacket struct{ base }

// NewPerPacket returns the L=1 discipline.
func NewPerPacket() *PerPacket { return &PerPacket{} }

// Name implements Policy.
func (p *PerPacket) Name() string { return "perpacket" }

// OnData implements Policy.
func (p *PerPacket) OnData(now sim.Time, bytes int) bool {
	p.onData(now, bytes)
	p.lastTrigger = TriggerBytes
	return true
}

// Deadline implements Policy.
func (p *PerPacket) Deadline(sim.Time) sim.Time { return 0 }

// OnAckSent implements Policy.
func (p *PerPacket) OnAckSent(now sim.Time) { p.onAckSent(now) }

// Update implements Policy.
func (p *PerPacket) Update(float64, sim.Time) {}

// ByteCount acknowledges every L full-sized packets with an optional timer
// bound; with timer == 0 the tail relies on TailDelay.
type ByteCount struct {
	base
	l     int
	timer sim.Time
	name  string
}

// NewByteCount returns the every-L-packets discipline. Its tail timer is
// half the TailDelay ceiling so a starving sender's retransmission timeout
// (≥200 ms) never races the acknowledgment of a sub-threshold tail.
func NewByteCount(l int) *ByteCount {
	if l < 1 {
		l = 1
	}
	return &ByteCount{l: l, timer: TailDelay / 2, name: fmt.Sprintf("bytecount(L=%d)", l)}
}

// NewDelayed returns the RFC-style delayed-ACK discipline: L=2 with ACK
// timer gamma.
func NewDelayed(gamma sim.Time) *ByteCount {
	if gamma <= 0 {
		gamma = 40 * sim.Millisecond
	}
	return &ByteCount{l: 2, timer: gamma, name: "delayed"}
}

// Name implements Policy.
func (b *ByteCount) Name() string { return b.name }

// OnData implements Policy.
func (b *ByteCount) OnData(now sim.Time, bytes int) bool {
	b.onData(now, bytes)
	fire := b.bytesPending >= b.l*MSS
	if fire {
		b.lastTrigger = TriggerBytes
	} else {
		b.lastTrigger = TriggerTail
	}
	return fire
}

// Deadline implements Policy.
func (b *ByteCount) Deadline(sim.Time) sim.Time {
	if !b.havePending {
		return 0
	}
	return b.firstPending + b.timer
}

// OnAckSent implements Policy.
func (b *ByteCount) OnAckSent(now sim.Time) { b.onAckSent(now) }

// Update implements Policy.
func (b *ByteCount) Update(float64, sim.Time) {}

// TACK is the paper's discipline: acknowledgments fire when both the
// byte-counting threshold (L·MSS bytes) and the periodic spacing
// (α = RTTmin/β) are satisfied, realizing f = min(f_b, f_pack) (Eq. 3).
type TACK struct {
	base
	beta  int
	l     int
	alpha sim.Time
}

// NewTACK returns the TACK discipline with the given β and L
// (non-positive values select the defaults 4 and 2).
func NewTACK(beta, l int) *TACK {
	if beta <= 0 {
		beta = DefaultBeta
	}
	if l <= 0 {
		l = DefaultL
	}
	t := &TACK{beta: beta, l: l}
	t.Update(0, 0)
	return t
}

// Name implements Policy.
func (t *TACK) Name() string { return fmt.Sprintf("tack(beta=%d,L=%d)", t.beta, t.l) }

// Update recomputes α from the synced RTTmin; before the first estimate a
// conservative 25 ms spacing applies. The byte-counting half of Eq. 3 needs
// no rate: OnData counts the bytes themselves.
func (t *TACK) Update(_ float64, rttMin sim.Time) {
	if t.alpha = Interval(t.beta, t.l, MSS, 0, rttMin); t.alpha == 0 {
		t.alpha = 25 * sim.Millisecond
	}
}

// OnData implements Policy: both conditions must hold.
func (t *TACK) OnData(now sim.Time, bytes int) bool {
	prevPending := t.bytesPending
	t.onData(now, bytes)
	bytesOK := t.bytesPending >= t.l*MSS
	timeOK := now-t.lastAck >= t.alpha
	switch {
	case bytesOK && timeOK:
		// Both hold: the binding (last-satisfied) condition is the byte
		// threshold when this packet crossed it, the periodic boundary when
		// the threshold was already met and only time was lacking.
		if prevPending >= t.l*MSS {
			t.lastTrigger = TriggerTimer
		} else {
			t.lastTrigger = TriggerBytes
		}
	case bytesOK:
		// Waiting out the α spacing: a timer-driven ack is periodic-bound.
		t.lastTrigger = TriggerTimer
	default:
		// Sub-threshold tail: a timer-driven ack is the bounded tail delay.
		t.lastTrigger = TriggerTail
	}
	return bytesOK && timeOK
}

// Deadline implements Policy.
func (t *TACK) Deadline(sim.Time) sim.Time {
	if !t.havePending {
		return 0
	}
	if t.bytesPending >= t.l*MSS {
		// Byte condition met; fire exactly at the periodic boundary.
		return t.lastAck + t.alpha
	}
	// Sub-threshold tail: bounded delay so the stream's last bytes are
	// acknowledged even when f_b → 0.
	d := t.firstPending + TailDelay
	if min := t.lastAck + t.alpha; d < min {
		d = min
	}
	return d
}

// OnAckSent implements Policy.
func (t *TACK) OnAckSent(now sim.Time) { t.onAckSent(now) }
