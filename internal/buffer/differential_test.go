package buffer

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

// opBytes feeds the differential driver: the seeded test fills it from a
// PRNG, the fuzzer hands it its input. Past the end it reads zeros.
type opBytes struct {
	data []byte
	pos  int
}

func (r *opBytes) byte() uint64 {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return uint64(r.data[r.pos-1])
}

// diffRun drives a SendBuffer and the model with one sender-shaped
// operation sequence and compares every observable after every operation.
type diffRun struct {
	b *SendBuffer
	m *model

	now              sim.Time
	nextSeq, nextPkt uint64
	relB, relM       [][2]uint64 // (Seq, PktSeq) of this operation's releases
	ops              []string
}

const diffRTT = 10 * sim.Millisecond

func newDiffRun() *diffRun {
	d := &diffRun{b: NewSendBuffer(), m: &model{}}
	d.b.OnRelease = func(s *Segment) { d.relB = append(d.relB, [2]uint64{s.Seq, s.PktSeq}) }
	d.m.onRelease = func(s *Segment) { d.relM = append(d.relM, [2]uint64{s.Seq, s.PktSeq}) }
	return d
}

// retransmit re-sends one segment, given as each side holds it.
func (d *diffRun) retransmit(bs, ms *Segment) {
	d.b.Retransmitted(bs, d.nextPkt, d.now)
	d.m.Retransmitted(ms, d.nextPkt, d.now)
	d.nextPkt++
}

// pktRange draws a peer-shaped packet-number range around the outstanding
// window: inside it, straddling either edge, far beyond next, or absurd.
func (d *diffRun) pktRange(r *opBytes) seqspace.Range {
	floor := d.m.OldestPktSeq(d.nextPkt)
	span := d.nextPkt - floor + 8
	lo := floor + r.byte()%span
	switch r.byte() % 8 {
	case 0:
		lo = 0
	case 1:
		lo -= min(lo, 4)
	}
	width := 1 + r.byte()%4
	if wide := r.byte() % 16; wide < 4 {
		width = []uint64{span / 2, 2 * span, 1 << 40, 1 << 62}[wide]
	}
	return seqspace.Range{Lo: lo, Hi: lo + width}
}

func (d *diffRun) pktRanges(r *opBytes) []seqspace.Range {
	ranges := make([]seqspace.Range, 1+r.byte()%3)
	for i := range ranges {
		ranges[i] = d.pktRange(r)
	}
	return ranges
}

// step decodes and applies one operation. It returns the operation's
// description and, when the two sides answered it differently, how.
func (d *diffRun) step(r *opBytes, i int) (desc, diff string) {
	// The window breathes between small and several ring doublings so the
	// rings grow, wrap and run nearly empty.
	target := []int{6, 48, 160, 20}[(i/400)%4]
	op := r.byte() % 16
	if len(d.m.segs) < target && op >= 5 && r.byte()%16 != 0 {
		op = 0 // below target almost everything but retransmission yields to sending
	}
	if len(d.m.segs) >= 2*160 && op < 3 {
		op = 5 // window-limited, as a sender is: acknowledge instead
	}
	switch op {
	case 0, 1, 2:
		if r.byte()%8 == 0 {
			d.nextPkt += 1 + r.byte()%3 // packet numbers may be skipped
		}
		seg := Segment{Seq: d.nextSeq, Len: 1 + int(r.byte()%255)*5, PktSeq: d.nextPkt, SentAt: d.now}
		d.b.Insert(seg)
		d.m.Insert(seg)
		d.nextSeq, d.nextPkt = seg.End(), d.nextPkt+1
		return fmt.Sprintf("insert seq=%d len=%d pkt=%d", seg.Seq, seg.Len, seg.PktSeq), ""
	case 3:
		if len(d.m.segs) == 0 {
			return "retransmit: nothing outstanding", ""
		}
		if r.byte()%2 == 0 {
			d.retransmit(d.b.Oldest(), d.m.segs[0])
			return "retransmit oldest", ""
		}
		d.retransmit(d.b.Newest(), d.m.segs[len(d.m.segs)-1])
		return "retransmit newest", ""
	case 4:
		// trySend's pass: retransmit some eligible marked segments mid-walk.
		skip, limit := r.byte()%3, int(1+r.byte()%6)
		var seqB, seqM []uint64
		visit := func(seqs *[]uint64, retransmitted func(*Segment, uint64, sim.Time)) func(*Segment) bool {
			return func(s *Segment) bool {
				*seqs = append(*seqs, s.Seq)
				if n := uint64(len(*seqs)); n%3 != skip {
					retransmitted(s, d.nextPkt+n, d.now)
				}
				return len(*seqs) < limit
			}
		}
		d.b.ForEachEligibleRetransmit(d.now, diffRTT, visit(&seqB, d.b.Retransmitted))
		d.m.ForEachEligibleRetransmit(d.now, diffRTT, visit(&seqM, d.m.Retransmitted))
		d.nextPkt += uint64(limit) + 1
		desc = fmt.Sprintf("retransmit pass skip=%d limit=%d", skip, limit)
		if !slices.Equal(seqB, seqM) {
			diff = fmt.Sprintf("pass visited %v, model %v", seqB, seqM)
		}
		return desc, diff
	case 5, 6:
		cum := d.nextSeq
		if len(d.m.segs) > 0 {
			oldest := d.m.segs[0].Seq
			cum = oldest + (d.nextSeq-oldest)*r.byte()/200 // up to 1.27× the window
		}
		return released(fmt.Sprintf("AckBytes(%d)", cum), d.b.AckBytes(cum), d.m.AckBytes(cum))
	case 7, 8:
		ranges := d.pktRanges(r)
		return released(fmt.Sprintf("AckPktRanges(%v)", ranges), d.b.AckPktRanges(ranges), d.m.AckPktRanges(ranges))
	case 9:
		cum := d.m.OldestPktSeq(d.nextPkt) + r.byte()%16
		if r.byte()%16 == 0 {
			cum = 1 << 62
		}
		return released(fmt.Sprintf("ReleasePktBelow(%d)", cum), d.b.ReleasePktBelow(cum), d.m.ReleasePktBelow(cum))
	case 10, 11:
		ranges := d.pktRanges(r)
		sb, sm := segSeqs(d.b.MarkLossByPktRanges(ranges)), segSeqs(d.m.MarkLossByPktRanges(ranges))
		desc = fmt.Sprintf("MarkLossByPktRanges(%v)", ranges)
		if !slices.Equal(sb, sm) {
			diff = fmt.Sprintf("marked %v, model %v", sb, sm)
		}
		return desc, diff
	case 12:
		pkt := d.m.OldestPktSeq(d.nextPkt) + r.byte()%32
		if bs, ms := d.b.ByPktSeq(pkt), d.m.ByPktSeq(pkt); bs != nil && ms != nil {
			d.b.MarkLoss(bs)
			ms.LossMarked = true
		}
		return fmt.Sprintf("MarkLoss(pkt %d)", pkt), ""
	case 13:
		// rackDetect: mark candidates until one is refused.
		cutoff, cutoffPkt := d.m.rackXmit, d.m.rackPkt
		if r.byte()%2 == 0 {
			cutoff, cutoffPkt = d.now, d.nextPkt // everything sent so far qualifies
		}
		refuse := 1 + r.byte()%8
		var cb, cm []uint64
		judge := func(cands *[]uint64, mark func(*Segment)) func(*Segment) bool {
			return func(s *Segment) bool {
				*cands = append(*cands, s.PktSeq)
				if s.PktSeq%refuse == 1 {
					return false
				}
				mark(s)
				return true
			}
		}
		atB, okB := d.b.ScanRackLosses(cutoff, cutoffPkt, judge(&cb, d.b.MarkLoss))
		atM, okM := d.m.ScanRackLosses(cutoff, cutoffPkt, judge(&cm, func(s *Segment) { s.LossMarked = true }))
		desc = fmt.Sprintf("ScanRackLosses(%v, %d) refusing pkt%%%d==1", cutoff, cutoffPkt, refuse)
		if !slices.Equal(cb, cm) || atB != atM || okB != okM {
			diff = fmt.Sprintf("candidates %v (%v,%v), model %v (%v,%v)", cb, atB, okB, cm, atM, okM)
		}
		return desc, diff
	case 14:
		floor := sim.Time(r.byte()%3) * 2 * sim.Millisecond
		d.b.BeginAck(d.now, floor)
		d.m.ackNow, d.m.ackFloor = d.now, floor
		if d.m.rackValid {
			d.m.batchRackPkt = d.m.rackPkt
		}
		return fmt.Sprintf("BeginAck(%v, %v)", d.now, floor), ""
	default:
		d.now += sim.Time(r.byte()%8) * sim.Millisecond // 0: send-time ties
		return fmt.Sprintf("now = %v", d.now), ""
	}
}

func released(desc string, got, want int) (string, string) {
	if got != want {
		return desc, fmt.Sprintf("released %d, model %d", got, want)
	}
	return desc, ""
}

func segSeqs(segs []*Segment) []uint64 {
	seqs := make([]uint64, len(segs))
	for i, s := range segs {
		seqs[i] = s.Seq
	}
	return seqs
}

// check compares every observable of the two; "" means they agree.
func (d *diffRun) check() string {
	for _, rel := range [][][2]uint64{d.relB, d.relM} { // a multiset: release order is free
		slices.SortFunc(rel, func(x, y [2]uint64) int { return slices.Compare(x[:], y[:]) })
	}
	if !slices.Equal(d.relB, d.relM) {
		return fmt.Sprintf("OnRelease saw %v, model %v", d.relB, d.relM)
	}
	d.relB, d.relM = d.relB[:0], d.relM[:0]

	b, m := d.b, d.m
	if b.Len() != len(m.segs) || b.Bytes() != m.Bytes() || b.ReleasedBytes() != m.releasedBytes {
		return fmt.Sprintf("Len/Bytes/ReleasedBytes = %d/%d/%d, model %d/%d/%d",
			b.Len(), b.Bytes(), b.ReleasedBytes(), len(m.segs), m.Bytes(), m.releasedBytes)
	}
	for _, next := range []uint64{d.nextPkt, d.m.OldestPktSeq(d.nextPkt)} {
		if got, want := b.OldestPktSeq(next), m.OldestPktSeq(next); got != want {
			return fmt.Sprintf("OldestPktSeq(%d) = %d, model %d", next, got, want)
		}
	}
	walked, diff := 0, ""
	b.Walk(func(s *Segment) bool {
		if walked == len(m.segs) {
			diff = fmt.Sprintf("Walk visits more than the model's %d segments: %+v", walked, *s)
		} else if want := m.segs[walked]; *s != *want {
			diff = fmt.Sprintf("Walk[%d] = %+v, model %+v", walked, *s, *want)
		} else if got := b.ByPktSeq(s.PktSeq); got != s {
			diff = fmt.Sprintf("ByPktSeq(%d) = %+v, want %+v", s.PktSeq, got, *s)
		}
		walked++
		return diff == ""
	})
	if diff == "" && walked != len(m.segs) {
		diff = fmt.Sprintf("Walk visited %d segments, model holds %d", walked, len(m.segs))
	}
	if diff != "" {
		return diff
	}
	if len(m.segs) == 0 {
		if b.Oldest() != nil || b.Newest() != nil {
			return "Oldest/Newest non-nil on an empty buffer"
		}
	} else if *b.Oldest() != *m.segs[0] || *b.Newest() != *m.segs[len(m.segs)-1] {
		return fmt.Sprintf("Oldest/Newest = %+v/%+v, model %+v/%+v",
			*b.Oldest(), *b.Newest(), *m.segs[0], *m.segs[len(m.segs)-1])
	}
	for pkt := d.nextPkt - min(d.nextPkt, 16); pkt < d.nextPkt+2; pkt++ { // superseded and unused numbers too
		if (b.ByPktSeq(pkt) == nil) != (m.ByPktSeq(pkt) == nil) {
			return fmt.Sprintf("ByPktSeq(%d) presence differs", pkt)
		}
	}
	bx, bp, bok := b.RackState()
	if bx != m.rackXmit || bp != m.rackPkt || bok != m.rackValid || b.ReorderEvents() != m.reorders {
		return fmt.Sprintf("RackState/ReorderEvents = (%v,%d,%v)/%d, model (%v,%d,%v)/%d",
			bx, bp, bok, b.ReorderEvents(), m.rackXmit, m.rackPkt, m.rackValid, m.reorders)
	}
	if b.HasMarked() != m.HasMarked() {
		return fmt.Sprintf("HasMarked = %v, model %v", b.HasMarked(), m.HasMarked())
	}
	var eb, em []uint64
	b.ForEachEligibleRetransmit(d.now, diffRTT, func(s *Segment) bool { eb = append(eb, s.Seq); return true })
	m.ForEachEligibleRetransmit(d.now, diffRTT, func(s *Segment) bool { em = append(em, s.Seq); return true })
	if !slices.Equal(eb, em) {
		return fmt.Sprintf("eligible retransmits %v, model %v", eb, em)
	}
	// A refusing callback makes the scan a read-only probe of its head.
	var hb, hm uint64
	atB, okB := b.ScanRackLosses(m.rackXmit, m.rackPkt, func(s *Segment) bool { hb = s.PktSeq; return false })
	atM, okM := m.ScanRackLosses(m.rackXmit, m.rackPkt, func(s *Segment) bool { hm = s.PktSeq; return false })
	if hb != hm || atB != atM || okB != okM {
		return fmt.Sprintf("RACK scan head pkt %d (%v,%v), model pkt %d (%v,%v)", hb, atB, okB, hm, atM, okM)
	}
	return ""
}

// runDifferential applies up to maxOps operations decoded from data,
// stopping at the first disagreement: the report names that shortest
// failing prefix.
func runDifferential(data []byte, maxOps int) (d *diffRun, report string) {
	d = newDiffRun()
	r := &opBytes{data: data}
	for i := 0; i < maxOps && r.pos < len(r.data); i++ {
		desc, diff := d.step(r, i)
		d.ops = append(d.ops, desc)
		if diff == "" {
			diff = d.check()
		}
		if diff != "" {
			return d, fmt.Sprintf("diverged after %d operations (%d input bytes): %s\nlast operations:\n  %s",
				i+1, r.pos, diff, strings.Join(d.ops[max(0, len(d.ops)-25):], "\n  "))
		}
	}
	return d, ""
}

func TestSendBufferAgainstModel(t *testing.T) {
	seeds, ops := int64(24), 10000
	if testing.Short() {
		seeds = 3 // single-goroutine: the race run learns nothing from the rest
	}
	for seed := int64(1); seed <= seeds; seed++ {
		data := make([]byte, 12*ops)
		rand.New(rand.NewSource(seed)).Read(data)
		d, report := runDifferential(data, ops)
		if report != "" {
			t.Fatalf("seed %d: %s", seed, report)
		}
		if len(d.ops) != ops {
			t.Fatalf("seed %d: input ran out after %d operations", seed, len(d.ops))
		}
		// The sequence must have exercised what a ring can get wrong.
		for _, r := range []struct {
			name  string
			slots int
			hi    uint64
		}{{"segs", len(d.b.segs.buf), d.b.segs.hi}, {"pkts", len(d.b.pkts.buf), d.b.pkts.hi}} {
			if r.slots < 4*ringInitial || r.hi < 4*uint64(r.slots) {
				t.Errorf("seed %d: %s ring reached %d slots and index %d: want ≥ 2 growths and ≥ 4 wrap-arounds",
					seed, r.name, r.slots, r.hi)
			}
		}
	}
}

func FuzzSendBufferDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, report := runDifferential(data, 2048); report != "" {
			t.Fatal(report)
		}
	})
}
