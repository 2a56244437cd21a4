package experiments

import (
	"testing"

	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/transport"
)

// TestHoLBlockingWin gates the ab-hol headline: under 2% loss with 8
// concurrent streams over the in-sim 802.11n hybrid path, p95 per-object
// completion must improve by at least 30% versus serializing the same
// objects on one stream. The transport below the stream layer is identical
// in both arms; the gap is the head-of-line-blocking cost of funneling
// independent objects through one ordered, flow-controlled stream.
func TestHoLBlockingWin(t *testing.T) {
	mux := holHeadline(1)
	serial := mux
	serial.serialize = true
	sres, err := runHoL(serial)
	if err != nil {
		t.Fatalf("serialized arm: %v", err)
	}
	mres, err := runHoL(mux)
	if err != nil {
		t.Fatalf("multiplexed arm: %v", err)
	}

	if sres.snd.Retransmits == 0 || mres.snd.Retransmits == 0 {
		t.Fatalf("loss never hit the transport (serial retx %d, mux retx %d)",
			sres.snd.Retransmits, mres.snd.Retransmits)
	}
	sp95, mp95 := sres.ms.Percentile(95), mres.ms.Percentile(95)
	t.Logf("serialized: p95=%.1fms goodput=%.1f Mbit/s retx=%d", sp95, sres.goodputBps/1e6, sres.snd.Retransmits)
	t.Logf("multiplexed: p95=%.1fms goodput=%.1f Mbit/s retx=%d fairness=%.3f",
		mp95, mres.goodputBps/1e6, mres.snd.Retransmits, mres.fairness)

	if imp := holImprovement(sres, mres); imp < 0.30 {
		t.Errorf("p95 per-object completion improved only %.1f%%, want >= 30%% (serial %.1fms, mux %.1fms)",
			imp*100, sp95, mp95)
	}
}

// TestSchedulerProfiles checks the observable scheduling contract on the
// same workload: round-robin progresses objects evenly (Jain's index near
// 1), while strict priority serves objects one at a time (index near 1/N
// when the first object completes).
func TestSchedulerProfiles(t *testing.T) {
	base := holScenario{objects: 8, objectBytes: 128 << 10, streamWindow: 64 << 10, seed: 3}

	rr := base
	rr.scheduler = stream.SchedulerRoundRobin
	rres, err := runHoL(rr)
	if err != nil {
		t.Fatalf("rr: %v", err)
	}
	if rres.fairness < 0.9 {
		t.Errorf("round-robin fairness %.3f, want >= 0.9", rres.fairness)
	}

	prio := base
	prio.scheduler = stream.SchedulerPriority
	pres, err := runHoL(prio)
	if err != nil {
		t.Fatalf("priority: %v", err)
	}
	if pres.fairness > 0.5 {
		t.Errorf("strict-priority fairness %.3f, want <= 0.5 (one object at a time)", pres.fairness)
	}
	t.Logf("rr: fairness=%.3f p50=%.1fms; priority: fairness=%.3f first-obj spread %.1f..%.1fms",
		rres.fairness, rres.ms.Median(), pres.fairness, pres.ms.Median(), pres.ms.Max())
}

// TestLosslessParity sanity-checks the harness itself: with no loss and a
// stream window too large to bind (so neither flow control nor recovery
// differs between arms), both arms move the same bytes in similar total
// time — any remaining gap would be hidden harness bias.
func TestLosslessParity(t *testing.T) {
	mux := holScenario{objects: 4, objectBytes: 128 << 10, seed: 2,
		scheduler: stream.SchedulerRoundRobin, streamWindow: 4 << 20}
	serial := mux
	serial.serialize = true
	sres, err := runHoL(serial)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := runHoL(mux)
	if err != nil {
		t.Fatal(err)
	}
	if sres.snd.Retransmits != 0 || mres.snd.Retransmits != 0 {
		t.Fatalf("lossless run retransmitted (serial %d, mux %d)", sres.snd.Retransmits, mres.snd.Retransmits)
	}
	ratio := mres.ms.Max() / sres.ms.Max()
	if ratio > 1.5 || ratio < 1/1.5 {
		t.Errorf("lossless total completion diverges: serial %.1fms vs mux %.1fms (ratio %.2f)",
			sres.ms.Max(), mres.ms.Max(), ratio)
	}
}

// TestRACKBeatsDupThreshAtP99 gates the ab-rack headline: RACK-TLP recovers
// stranded tails with a ~2×SRTT probe where the dup-thresh baseline waits
// out a full RTO, so its pooled p99 per-object completion must be strictly
// better; equal-or-worse is a loss-detection regression.
func TestRACKBeatsDupThreshAtP99(t *testing.T) {
	rack, err := runRackArm(transport.DetectorRACK, 1, rackSeeds)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := runRackArm(transport.DetectorDupThresh, 1, rackSeeds)
	if err != nil {
		t.Fatal(err)
	}
	r99, d99 := msSummary(rack.completions).Percentile(99), msSummary(dup.completions).Percentile(99)
	t.Logf("p99 completion: rack %.1fms (rto %d, tlp %d) vs dup-thresh %.1fms (rto %d)",
		r99, rack.snd.Timeouts, rack.snd.TLPProbes, d99, dup.snd.Timeouts)
	if rack.snd.Retransmits == 0 || dup.snd.Retransmits == 0 {
		t.Fatalf("burst loss never hit the transport (rack retx %d, dup retx %d)",
			rack.snd.Retransmits, dup.snd.Retransmits)
	}
	if !(r99 > 0 && r99 < d99) {
		t.Errorf("RACK p99 %.1fms not better than dup-thresh p99 %.1fms", r99, d99)
	}
}

// TestFECArmBeatsARQ gates the ab-fec headline: over burst loss the FEC arm
// must cut deadline-miss events by at least 30% while spending under 20% of
// its bytes on repair symbols; less means the encoder, the adaptive
// controller, or the recovery path regressed.
func TestFECArmBeatsARQ(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var arq, withFEC fecResult
	for seed := int64(1); seed <= 3; seed++ {
		a, f, err := runFECArms(seed, 1, fecSession)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d ARQ: %+v", seed, a)
		t.Logf("seed %d FEC: %+v overhead=%.3f", seed, f, f.overhead())
		if f.recovered == 0 {
			t.Errorf("seed %d: FEC arm recovered nothing", seed)
		}
		arq.add(a)
		withFEC.add(f)
	}
	if arq.events() == 0 {
		t.Fatal("ARQ arm saw no deadline misses: the scenario is not stressing recovery latency")
	}
	reduction, overhead := fecReduction(arq, withFEC), withFEC.overhead()
	t.Logf("pooled: arq=%d fec=%d reduction=%.2f overhead=%.3f", arq.events(), withFEC.events(), reduction, overhead)
	if reduction < 0.30 {
		t.Errorf("event reduction %.2f < 0.30 (arq %d, fec %d)", reduction, arq.events(), withFEC.events())
	}
	if overhead >= 0.20 {
		t.Errorf("byte overhead %.3f >= 0.20", overhead)
	}
}
