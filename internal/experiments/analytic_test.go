package experiments

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/sim"
)

func ms(n int64) sim.Time { return sim.Time(n) * sim.Millisecond }

func TestFreqByteCount(t *testing.T) {
	// 12 Mbit/s, L=1: 1000 packets/s.
	if got := freqByteCount(12e6, 1); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("f_b = %v, want 1000", got)
	}
	if got := freqByteCount(12e6, 2); math.Abs(got-500) > 1e-9 {
		t.Fatalf("f_b(L=2) = %v, want 500", got)
	}
	if got := freqByteCount(12e6, 0); got != 1000 {
		t.Fatalf("L<1 should clamp to 1: %v", got)
	}
}

func TestFreqPeriodic(t *testing.T) {
	if got := freqPeriodic(ms(25)); math.Abs(got-40) > 1e-9 {
		t.Fatalf("f = %v, want 40", got)
	}
	if !math.IsInf(freqPeriodic(0), 1) {
		t.Fatal("alpha=0 should be +Inf")
	}
}

func TestFreqTACKRegimes(t *testing.T) {
	// Low bw: byte-counting side wins. 1.2 Mbit/s, L=2 → 50 Hz vs β/RTT=400.
	if got := freqTACK(1.2e6, 2, 4, ms(10)); math.Abs(got-50) > 1e-9 {
		t.Fatalf("low-bw f = %v, want 50", got)
	}
	// High bw: periodic side wins. 300 Mbit/s → f = 4/0.01 = 400 Hz.
	if got := freqTACK(300e6, 2, 4, ms(10)); math.Abs(got-400) > 1e-9 {
		t.Fatalf("high-bw f = %v, want 400", got)
	}
}

func TestFreqDelayedPivot(t *testing.T) {
	gamma := 40 * sim.Millisecond
	pivot := 2 * float64(ackpolicy.MSS) * 8 / gamma.Seconds() // 600 kbit/s
	below := freqDelayed(pivot*0.9, gamma)
	if math.Abs(below-freqPerPacket(pivot*0.9)) > 1e-9 {
		t.Fatalf("below pivot should be per-packet: %v", below)
	}
	above := freqDelayed(pivot*2, gamma)
	if math.Abs(above-freqByteCount(pivot*2, 2)) > 1e-9 {
		t.Fatalf("above pivot should be L=2: %v", above)
	}
}

func TestPaperFigure8Numbers(t *testing.T) {
	// Paper Figure 8(b): TACK(L=2,β=4) on 802.11ac at bw≈590 Mbit/s(UDP
	// ceiling): RTTmin=10ms → 400 Hz (periodic); TCP(L=2) ≈ 24777 Hz at
	// 594.65 Mbit/s goodput. We verify orders of magnitude.
	bw := 590e6
	ftack := freqTACK(bw, 2, 4, ms(10))
	if ftack != 400 {
		t.Fatalf("f_tack = %v, want 400 (β/RTTmin)", ftack)
	}
	if ftcp := math.Round(freqByteCount(bw, 2)); ftcp != 24583 {
		t.Fatalf("f_tcp(L=2) = %v, want 24583", ftcp)
	}
	if fpp := math.Round(freqPerPacket(bw)); fpp != 49167 {
		t.Fatalf("f_tcp(per-packet) = %v, want 49167", fpp)
	}
	// At RTTmin=80ms the TACK frequency drops to 50 Hz: nearly three orders
	// below the legacy rate.
	if got := freqTACK(bw, 2, 4, ms(80)); got != 50 {
		t.Fatalf("f_tack(80ms) = %v, want 50", got)
	}
	// 802.11b low-rate small-RTT corner: TACK falls back to byte counting
	// and equals TCP(L=2): paper reports 294 Hz for both at 7 Mbit/s.
	b := 7e6
	if freqTACK(b, 2, 4, ms(10)) != freqByteCount(b, 2) {
		t.Fatal("802.11b/10ms corner should be byte-counting-limited")
	}
}

// Property: f_tack <= f_tcp(L) and f_tack <= f_perpacket for any inputs
// (paper insight 1).
func TestQuickTACKNeverExceedsLegacy(t *testing.T) {
	f := func(bwKbps uint32, rttMsRaw uint16, lRaw, betaRaw uint8) bool {
		bw := float64(bwKbps%3000000) * 1e3
		rtt := ms(int64(rttMsRaw%400) + 1)
		l := int(lRaw%16) + 1
		beta := int(betaRaw%8) + 1
		ft := freqTACK(bw, l, beta, rtt)
		return ft <= freqByteCount(bw, l)+1e-9 && ft <= freqPerPacket(bw)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: frequency reduction grows with bandwidth and with RTT
// (paper insights 2 and 3).
func TestQuickReductionMonotone(t *testing.T) {
	f := func(bw1, bw2 uint32, r1, r2 uint16) bool {
		b1 := float64(bw1%1000000)*1e3 + 1e6
		b2 := float64(bw2%1000000)*1e3 + 1e6
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		t1 := ms(int64(r1%400) + 1)
		t2 := ms(int64(r2%400) + 1)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		// Reduction monotone in bw at fixed RTT:
		if reductionVsPerPacket(b1, 2, 4, t1) > reductionVsPerPacket(b2, 2, 4, t1)+1e-9 {
			return false
		}
		// Monotone in RTT at fixed bw:
		return reductionVsPerPacket(b1, 2, 4, t1) <= reductionVsPerPacket(b1, 2, 4, t2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPivotPoints(t *testing.T) {
	// Pivot bw for RTT=10ms, β=4, L=2: 4*2*1500*8/0.01 = 9.6 Mbit/s.
	if got := pivotBandwidth(4, 2, ms(10)); math.Abs(got-9.6e6) > 1 {
		t.Fatalf("pivot bw = %v, want 9.6e6", got)
	}
	// Pivot RTT for 100 Mbit/s: 4*2*1500*8/100e6 = 0.96 ms.
	if got := pivotRTT(4, 2, 100e6); got != sim.Time(960000) {
		t.Fatalf("pivot rtt = %v, want 0.96ms", got)
	}
	// At the pivot, the two regimes agree.
	bw := pivotBandwidth(4, 2, ms(10))
	fb := freqByteCount(bw, 2)
	fp := float64(4) / ms(10).Seconds()
	if math.Abs(fb-fp) > 1e-6 {
		t.Fatalf("regimes disagree at pivot: %v vs %v", fb, fp)
	}
}

func TestMinSendWindowAndBuffer(t *testing.T) {
	bdp := 1e6
	// β=2: W=2·bdp, buffer=1·bdp (Appendix B.1 / Figure 16).
	if got := minSendWindow(bdp, 2); got != 2e6 {
		t.Fatalf("Wmin(2) = %v", got)
	}
	if got := bufferRequirement(bdp, 2); got != 1e6 {
		t.Fatalf("buffer(2) = %v", got)
	}
	// β=4: buffer = bdp/3 ≈ 0.33 bdp (§7).
	if got := bufferRequirement(bdp, 4) / bdp; math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("buffer(4)/bdp = %v, want 0.333", got)
	}
	// The ideal bottleneck buffer keeps shrinking as β grows: 0.14 bdp at β=8.
	if got := bufferRequirement(bdp, 8) / bdp; math.Abs(got-1.0/7) > 1e-9 {
		t.Fatalf("buffer(8)/bdp = %v, want 0.143", got)
	}
}

func TestMinSendWindowPanicsBelow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("beta=1 should panic (stop-and-wait)")
		}
	}()
	minSendWindow(1e6, 1)
}

func TestMaxL(t *testing.T) {
	// Appendix B.2 example: Q=4, ρ=ρ′=10% → L ≤ 400.
	if got := maxL(4, 0.1, 0.1); math.Abs(got-400) > 1e-9 {
		t.Fatalf("maxL = %v, want 400", got)
	}
	if !math.IsInf(maxL(4, 0, 0.1), 1) {
		t.Fatal("loss-free maxL should be +Inf")
	}
}

func TestRichThresholdAndDeltaQ(t *testing.T) {
	bdp := 1000.0 * ackpolicy.MSS
	// Large-bdp: threshold Q·MSS/(ρ·bdp) with Q=1, ρ=5% → 1/(0.05·1000)=2%.
	th := richThreshold(1, 0.05, bdp, 4, 2)
	if math.Abs(th-0.02) > 1e-9 {
		t.Fatalf("threshold = %v, want 0.02", th)
	}
	// ΔQ above threshold: ρ·ρ′·bdp/MSS − Q = 0.05*0.1*1000 − 1 = 4.
	if got := deltaQ(1, 0.05, 0.1, bdp, 4, 2); math.Abs(got-4) > 1e-9 {
		t.Fatalf("ΔQ = %v, want 4", got)
	}
	// Below threshold: ΔQ floors at 0.
	if got := deltaQ(1, 0.05, 0.001, bdp, 4, 2); got != 0 {
		t.Fatalf("ΔQ = %v, want 0", got)
	}
	// Small-bdp regime path.
	smallTh := richThreshold(1, 0.5, ackpolicy.MSS, 4, 2)
	if smallTh != 1 {
		t.Fatalf("small-bdp threshold = %v, want clamped 1", smallTh)
	}
}

func TestIACKBound(t *testing.T) {
	// ρ=1%, 120 Mbit/s → 0.01 * 10000 pkt/s = 100 Hz.
	if got := iackLossFreqUpperBound(0.01, 120e6); math.Abs(got-100) > 1e-9 {
		t.Fatalf("IACK bound = %v, want 100", got)
	}
}

func TestPerPacketVsTackExampleFromAppendixB4(t *testing.T) {
	// Appendix B.4: bw=48 Mbit/s, RTTmin=10ms, L=1: TACK is 10% of
	// per-packet frequency.
	ratio := freqTACK(48e6, 1, 4, ms(10)) / freqPerPacket(48e6)
	if math.Abs(ratio-0.1) > 0.001 {
		t.Fatalf("ratio = %v, want 0.10", ratio)
	}
	// bw=200 Mbit/s, RTTmin=10ms: ~2.4%.
	ratio2 := freqTACK(200e6, 1, 4, ms(10)) / freqPerPacket(200e6)
	if math.Abs(ratio2-0.024) > 0.001 {
		t.Fatalf("ratio2 = %v, want 0.024", ratio2)
	}
	// RTTmin 10→80ms at 200 Mbit/s: ~0.3%.
	ratio3 := freqTACK(200e6, 1, 4, ms(80)) / freqPerPacket(200e6)
	if math.Abs(ratio3-0.003) > 0.0002 {
		t.Fatalf("ratio3 = %v, want 0.003", ratio3)
	}
}
