package transport

import (
	"testing"
	"testing/quick"

	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

// dueLosses is DueLossDetails without the observation times.
func (lt *lossTracker) dueLosses(now sim.Time, settle sim.Time) []seqspace.Range {
	var due []seqspace.Range
	for _, d := range lt.DueLossDetails(now, settle) {
		due = append(due, d.Range)
	}
	return due
}

func TestDefaultParams(t *testing.T) {
	p := defaultParams()
	if p.Beta != 4 || p.L != 2 || p.Q != 1 || p.SettleFraction != 4 {
		t.Fatalf("defaults = %+v", p)
	}
	filled := (Params{}).withDefaults()
	if filled != p {
		t.Fatalf("withDefaults = %+v", filled)
	}
}

func TestLossTrackerInOrderNoGaps(t *testing.T) {
	lt := newLossTracker()
	for i := uint64(0); i < 10; i++ {
		if _, gapped := lt.OnPacket(ms(int64(i)), i); gapped {
			t.Fatalf("in-order packet %d flagged a gap", i)
		}
	}
	if due := lt.dueLosses(ms(100), 0); len(due) != 0 {
		t.Fatalf("no losses expected, got %v", due)
	}
	if lg, ok := lt.Largest(); !ok || lg != 9 {
		t.Fatalf("Largest = %d,%v", lg, ok)
	}
}

func TestLossTrackerDetectsGap(t *testing.T) {
	lt := newLossTracker()
	lt.OnPacket(ms(0), 0)
	lt.OnPacket(ms(1), 1)
	gap, gapped := lt.OnPacket(ms(2), 3) // 2 missing
	if !gapped || gap != (seqspace.Range{Lo: 2, Hi: 3}) {
		t.Fatalf("gap = %v,%v", gap, gapped)
	}
	due := lt.dueLosses(ms(10), ms(5))
	if len(due) != 1 || due[0] != (seqspace.Range{Lo: 2, Hi: 3}) {
		t.Fatalf("due = %v", due)
	}
	// Already reported: not due again.
	if due := lt.dueLosses(ms(20), ms(5)); len(due) != 0 {
		t.Fatalf("re-reported: %v", due)
	}
}

func TestLossTrackerSettleDelaySuppressesReordering(t *testing.T) {
	lt := newLossTracker()
	lt.OnPacket(ms(0), 0)
	lt.OnPacket(ms(1), 2) // 1 appears missing...
	// ...but it is only reordered and arrives before the settle delay.
	lt.OnPacket(ms(2), 1)
	due := lt.dueLosses(ms(10), ms(5))
	if len(due) != 0 {
		t.Fatalf("reordered packet declared lost: %v", due)
	}
}

func TestLossTrackerNotDueBeforeSettle(t *testing.T) {
	lt := newLossTracker()
	lt.OnPacket(ms(0), 0)
	lt.OnPacket(ms(1), 2)
	if due := lt.dueLosses(ms(2), ms(5)); len(due) != 0 {
		t.Fatalf("loss declared before settle delay: %v", due)
	}
	d, ok := lt.NextDue(ms(5))
	if !ok || d != ms(6) {
		t.Fatalf("NextDue = %v,%v want 6ms", d, ok)
	}
}

func TestLossTrackerFirstPacketGap(t *testing.T) {
	lt := newLossTracker()
	gap, gapped := lt.OnPacket(ms(0), 3)
	if !gapped || gap != (seqspace.Range{Lo: 0, Hi: 3}) {
		t.Fatalf("initial gap = %v,%v", gap, gapped)
	}
}

func TestReportedMissingShrinksOnArrival(t *testing.T) {
	lt := newLossTracker()
	lt.OnPacket(ms(0), 0)
	lt.OnPacket(ms(1), 5) // gap 1..4
	lt.dueLosses(ms(10), ms(1))
	if got := lt.ReportedMissing(); len(got) != 1 || got[0] != (seqspace.Range{Lo: 1, Hi: 5}) {
		t.Fatalf("ReportedMissing = %v", got)
	}
	// Retransmissions arrive as *new* pktseqs in TACK, but suppose the
	// holes 2,3 fill via pktseq 2,3 (e.g. late reordering).
	lt.OnPacket(ms(12), 2)
	lt.OnPacket(ms(13), 3)
	got := lt.ReportedMissing()
	want := []seqspace.Range{{Lo: 1, Hi: 2}, {Lo: 4, Hi: 5}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ReportedMissing = %v, want %v", got, want)
	}
}

func TestLossRateInterval(t *testing.T) {
	lt := newLossTracker()
	// 10 expected (0..9), 2 dropped.
	for i := uint64(0); i < 10; i++ {
		if i == 3 || i == 7 {
			continue
		}
		lt.OnPacket(ms(int64(i)), i)
	}
	rho := lt.CloseInterval()
	if rho < 0.19 || rho > 0.21 {
		t.Fatalf("rho = %v, want 0.2", rho)
	}
	// Next interval clean.
	for i := uint64(10); i < 20; i++ {
		lt.OnPacket(ms(int64(i)), i)
	}
	if rho := lt.CloseInterval(); rho != 0 {
		t.Fatalf("clean interval rho = %v", rho)
	}
}

func TestCompactBoundsState(t *testing.T) {
	lt := newLossTracker()
	for i := uint64(0); i < 1000; i += 2 {
		lt.OnPacket(ms(int64(i)), i)
	}
	lt.dueLosses(ms(5000), 0)
	lt.Compact(900)
	for _, r := range lt.AckedRanges() {
		if r.Lo < 900 {
			t.Fatalf("compact left range %v", r)
		}
	}
	for _, r := range lt.ReportedMissing() {
		if r.Lo < 900 {
			t.Fatalf("compact left reported %v", r)
		}
	}
}

func TestBlockBudgetThresholdLargeBDP(t *testing.T) {
	b := newBlockBudget(Params{Q: 4})
	// Large bdp regime: threshold = Q·MSS/(ρ·bdp).
	bdp := 100 * ackpolicy.MSS * 1.0
	th := b.RichThreshold(0.1, bdp)
	want := 4.0 * ackpolicy.MSS / (0.1 * bdp)
	if th != want {
		t.Fatalf("threshold = %v, want %v", th, want)
	}
	if b.RichThreshold(0, bdp) != 1 {
		t.Fatal("loss-free data path should never require rich blocks")
	}
}

func TestBlockBudgetThresholdSmallBDP(t *testing.T) {
	b := newBlockBudget(Params{Q: 4, L: 2, Beta: 4})
	// Small bdp regime: threshold = Q/(ρ·L); with Q=4, ρ=10%, L=2 → 20,
	// clamped to 1.
	th := b.RichThreshold(0.1, ackpolicy.MSS)
	if th != 1 {
		t.Fatalf("threshold = %v, want clamped 1", th)
	}
}

func TestBlockBudgetBlocks(t *testing.T) {
	b := newBlockBudget(Params{Q: 1})
	bdp := 1000 * ackpolicy.MSS * 1.0
	// ρ=5%, ρ′=10%: need = 0.05*0.1*1000 = 5 blocks > Q.
	if got := b.Blocks(0.05, 0.10, bdp); got != 5 {
		t.Fatalf("Blocks = %d, want 5", got)
	}
	// Below threshold: stays at Q.
	if got := b.Blocks(0.05, 0.001, bdp); got != 1 {
		t.Fatalf("Blocks = %d, want Q=1", got)
	}
	// Clean data path: stays at Q.
	if got := b.Blocks(0, 0.5, bdp); got != 1 {
		t.Fatalf("Blocks = %d, want Q=1", got)
	}
}

// Property: Blocks is monotone in ρ′ and never below Q.
func TestQuickBlocksMonotone(t *testing.T) {
	b := newBlockBudget(Params{Q: 2})
	f := func(rhoRaw, rp1Raw, rp2Raw uint16, bdpPkts uint16) bool {
		rho := float64(rhoRaw%1000) / 1000
		r1 := float64(rp1Raw%1000) / 1000
		r2 := float64(rp2Raw%1000) / 1000
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		bdp := float64(bdpPkts%5000) * ackpolicy.MSS
		b1 := b.Blocks(rho, r1, bdp)
		b2 := b.Blocks(rho, r2, bdp)
		return b1 >= 2 && b2 >= b1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAckBuilderPreference(t *testing.T) {
	acked := []seqspace.Range{{Lo: 1, Hi: 2}, {Lo: 4, Hi: 7}, {Lo: 10, Hi: 11}}
	unacked := []seqspace.Range{{Lo: 2, Hi: 4}, {Lo: 7, Hi: 10}}
	a, u := buildBlocks(acked, unacked, 1, 1)
	// Acked prefers the largest serial; unacked prefers the smallest.
	if len(a) != 1 || a[0] != (seqspace.Range{Lo: 10, Hi: 11}) {
		t.Fatalf("acked = %v", a)
	}
	if len(u) != 1 || u[0] != (seqspace.Range{Lo: 2, Hi: 4}) {
		t.Fatalf("unacked = %v", u)
	}
	a, u = buildBlocks(acked, unacked, 10, 10)
	if len(a) != 3 || len(u) != 2 {
		t.Fatalf("unbounded build dropped blocks: %v %v", a, u)
	}
}

func TestWindowMonitorZeroWindow(t *testing.T) {
	w := newWindowMonitor(100000)
	if w.Check(50000) {
		t.Fatal("ordinary shrink should not trigger")
	}
	if !w.Check(0) {
		t.Fatal("zero window must trigger")
	}
	if w.Check(0) {
		t.Fatal("zero window must trigger only once")
	}
}

func TestWindowMonitorLargeRelease(t *testing.T) {
	w := newWindowMonitor(100000)
	w.OnAckSent(10000)
	// Release of 26% of capacity: above the quarter threshold.
	if !w.Check(36001) {
		t.Fatal("large release must trigger")
	}
	// Small growth thereafter must not.
	if w.Check(37000) {
		t.Fatal("small release should not trigger")
	}
}

func TestAckLossEstimator(t *testing.T) {
	e := newAckLossEstimator()
	if e.Rate() != 0 {
		t.Fatal("empty estimator rate should be 0")
	}
	// Receive acks 0..9 except 3 and 7.
	for i := uint64(0); i < 10; i++ {
		if i == 3 || i == 7 {
			continue
		}
		e.OnAck(i)
	}
	if got := e.Rate(); got != 0.2 {
		t.Fatalf("rho' = %v, want 0.2", got)
	}
	e.OnAck(3)
	e.OnAck(7)
	if got := e.Rate(); got != 0 {
		t.Fatalf("rho' after recovery = %v, want 0", got)
	}
}

// Property: with any arrival pattern and settle=0, every PKT.SEQ below the
// largest that never arrived ends up either reported missing or suspected;
// arrived ones never do.
func TestQuickLossTrackerCompleteness(t *testing.T) {
	f := func(seqsRaw []uint16) bool {
		lt := newLossTracker()
		seen := map[uint64]bool{}
		var largest uint64
		now := sim.Time(0)
		for _, s := range seqsRaw {
			pkt := uint64(s % 256)
			now += ms(1)
			lt.OnPacket(now, pkt)
			seen[pkt] = true
			if pkt > largest {
				largest = pkt
			}
		}
		if len(seen) == 0 {
			return true
		}
		lt.dueLosses(now+ms(1000), 0)
		var missing seqspace.RangeSet
		for _, r := range lt.ReportedMissing() {
			missing.AddRange(r)
		}
		for v := uint64(0); v < largest; v++ {
			if seen[v] && missing.Contains(v) {
				return false // arrived but reported missing
			}
			if !seen[v] && !missing.Contains(v) {
				return false // lost but never reported
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
