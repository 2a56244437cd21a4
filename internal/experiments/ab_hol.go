package experiments

import (
	"fmt"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/transport"
)

func init() {
	register("ab-hol", runABHoL)
	register("ab-rack", runABRack)
}

// The multi-object fetch behind ab-hol and ab-rack: N equally sized objects
// over the paper's hybrid path (client ↔ AP on an in-sim 802.11n medium,
// AP ↔ server over an emulated WAN with data-direction loss). Everything
// below the stream layer — congestion control, acknowledgment policy, loss
// recovery — is identical between the arms of one A/B, so a difference in
// per-object completion comes from the one thing the arms vary.
const (
	holWANRateBps = 100e6
	holWANOWD     = 10 * sim.Millisecond
	holWANQueue   = 256 << 10
	holMaxSimTime = 60 * sim.Second
)

// holScenario is one run of the fetch.
type holScenario struct {
	objects     int
	objectBytes int
	// serialize carries all objects back-to-back on a single stream (the
	// head-of-line-blocking baseline) instead of one stream per object.
	serialize    bool
	scheduler    string
	streamWindow int
	// loss is the WAN data-direction random loss rate; burst layers
	// Gilbert–Elliott loss on the same direction. Bursts clustered on short
	// objects strand stream tails, so the recovery path — tail loss probe
	// versus full RTO — dominates the high completion percentiles.
	loss     float64
	burst    netem.GilbertElliott
	detector transport.LossDetector
	seed     int64
}

// holHeadline is the ab-hol workload: 8 × 256 KiB objects under 2% loss
// through a 64 KiB per-stream window, round-robin scheduled.
func holHeadline(seed int64) holScenario {
	return holScenario{
		objects: 8, objectBytes: 256 << 10, loss: 0.02, seed: seed,
		scheduler: stream.SchedulerRoundRobin, streamWindow: 64 << 10,
	}
}

// holResult reports one run's per-object completion profile.
type holResult struct {
	// completions holds each object's completion time from flow start,
	// indexed by object: the instant the application read its final byte;
	// ms summarizes them in milliseconds.
	completions []sim.Time
	ms          *stats.Summary
	// goodputBps is total object bytes over the last completion.
	goodputBps float64
	// fairness is Jain's index over per-object delivered bytes sampled
	// when the first object completes (1.0 = perfectly even progress;
	// 1/N = fully serialized).
	fairness float64
	// snd carries the retransmission and recovery-path counters; a run
	// must actually have been lossy to mean anything.
	snd transport.SenderStats
}

// msSummary collects simulated durations as milliseconds.
func msSummary(ts []sim.Time) *stats.Summary {
	s := stats.NewSummary()
	for _, t := range ts {
		s.Add(t.Seconds() * 1e3)
	}
	return s
}

// jain computes Jain's fairness index over xs (1 for all-equal shares).
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// runHoL executes one simulated fetch.
func runHoL(sc holScenario) (holResult, error) {
	n, a, b := newNet(sc.seed)
	loop := n.Loop()

	scfg := stream.Default()
	scfg.Scheduler = sc.scheduler
	scfg.RecvWindow = sc.streamWindow
	scfg.MaxStreams = sc.objects + 1
	// Deep send buffer so the single-goroutine harness can queue every
	// object up front; the schedulers and flow control do the pacing.
	scfg.SendBuffer = sc.objects*sc.objectBytes + 1<<10

	tcfg := transport.Config{
		Mode:    transport.ModeTACK,
		Streams: &scfg,
		Loss:    transport.LossDetection{Detector: sc.detector},
	}
	up, down := wanConfig{
		RateBps: holWANRateBps, OWD: holWANOWD,
		QueueBytes: holWANQueue,
		Data:       netem.Impairments{LossRate: sc.loss, GE: sc.burst},
	}.links()
	HybridPath(n, a, b, medium(n, phy.Std80211n), up, down)
	f := dialFlow(n, a, b, tcfg)

	// Queue the workload: one stream per object, or every object
	// back-to-back on stream 0 for the serialized baseline.
	mux := f.sender().Streams()
	nStreams, writes := sc.objects, 1
	if sc.serialize {
		nStreams, writes = 1, sc.objects
	}
	chunk := make([]byte, sc.objectBytes)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	for s := 0; s < nStreams; s++ {
		ss, err := mux.Open(stream.Options{Priority: s, Weight: 1})
		if err != nil {
			return holResult{}, err
		}
		for w := 0; w < writes; w++ {
			if _, err := ss.Write(chunk); err != nil {
				return holResult{}, fmt.Errorf("queue object: %w", err)
			}
		}
		if err := ss.Close(); err != nil {
			return holResult{}, err
		}
	}

	// Receiver application: poll the stream mux every millisecond, drain
	// whatever is deliverable (crediting flow-control windows), and stamp
	// each object's completion.
	completions := make([]sim.Time, sc.objects)
	objBytes := make([]int64, sc.objects)
	var fairSample []float64
	done := 0
	complete := func(obj int) {
		completions[obj] = loop.Now()
		done++
		if done > 1 {
			return
		}
		if sc.serialize {
			fairSample = []float64{float64(objBytes[0])}
			return
		}
		for _, b := range objBytes {
			fairSample = append(fairSample, float64(b))
		}
	}
	size := int64(sc.objectBytes)
	scratch := make([]byte, 64<<10)
	// Streams are polled in accept order (a slice, not a map) so the
	// read/credit sequence — and therefore the whole simulation — is
	// deterministic for a given seed.
	var streams []*stream.RecvStream
	retired := make(map[uint32]bool)
	var poll *sim.Timer
	poll = sim.NewTimer(loop, func() {
		if r := f.receiver(); r != nil {
			for rs := r.Streams().TryAccept(); rs != nil; rs = r.Streams().TryAccept() {
				streams = append(streams, rs)
			}
		}
		for _, rs := range streams {
			id := rs.ID()
			if retired[id] {
				continue
			}
			for {
				n, eof, err := rs.ReadAvailable(scratch)
				if err != nil {
					retired[id] = true
					break
				}
				if sc.serialize {
					// Object k spans bytes [k*size, (k+1)*size) of stream 0.
					for rem := int64(n); rem > 0; {
						step := min(rem, size-objBytes[0]%size)
						objBytes[0] += step
						rem -= step
						if objBytes[0]%size == 0 {
							complete(int(objBytes[0]/size) - 1)
						}
					}
				} else if n > 0 {
					objBytes[id] += int64(n)
					if objBytes[id] == size {
						complete(int(id))
					}
				}
				if eof {
					retired[id] = true
					break
				}
				if n == 0 {
					break
				}
			}
		}
		if done < sc.objects {
			poll.Reset(loop.Now() + sim.Millisecond)
		}
	})
	poll.Reset(sim.Millisecond)

	if _, err := n.RunUntil(holMaxSimTime, func() bool { return done == sc.objects }); err != nil {
		return holResult{}, err
	}
	if done < sc.objects {
		return holResult{}, fmt.Errorf("%d/%d objects completed within %v (serialize=%v)",
			done, sc.objects, holMaxSimTime, sc.serialize)
	}

	res := holResult{
		completions: completions,
		ms:          msSummary(completions),
		fairness:    jain(fairSample),
		snd:         f.sender().Stats,
	}
	if last := res.ms.Max(); last > 0 {
		res.goodputBps = float64(sc.objects*sc.objectBytes) * 8 / (last / 1e3)
	}
	return res, nil
}

// holImprovement is the ab-hol headline: the fraction by which multiplexing
// cuts the p95 per-object completion of the serialized arm.
func holImprovement(serial, mux holResult) float64 {
	return 1 - mux.ms.Percentile(95)/serial.ms.Percentile(95)
}

// runABHoL measures the head-of-line-blocking cost of serialized delivery
// versus stream multiplexing over a lossy TACK connection. With one ordered
// stream a retransmission hole parks every later object's bytes in the
// reassembly buffer (they cannot be delivered, so the single flow-control
// window cannot be replenished and the whole pipeline stalls); with
// per-object streams only the hole's own stream stalls while its siblings
// keep delivering and crediting their windows.
func runABHoL(opt Options) (*Result, error) {
	mux := holHeadline(opt.seed())
	serial := mux
	serial.serialize = true
	sres, err := runHoL(serial)
	if err != nil {
		return nil, fmt.Errorf("serialized arm: %w", err)
	}
	mres, err := runHoL(mux)
	if err != nil {
		return nil, fmt.Errorf("multiplexed arm: %w", err)
	}
	arms := stats.NewTable("Arm", "p50 ms", "p95 ms", "max ms", "Goodput Mbit/s", "Retx", "Fairness")
	for _, a := range []struct {
		name string
		r    holResult
	}{{"serialized (1 stream)", sres}, {"multiplexed (8 streams)", mres}} {
		ms := a.r.ms
		arms.AddRow(a.name, fmt.Sprintf("%.1f", ms.Percentile(50)), fmt.Sprintf("%.1f", ms.Percentile(95)),
			fmt.Sprintf("%.1f", ms.Max()), stats.Mbps(a.r.goodputBps),
			fmt.Sprint(a.r.snd.Retransmits), fmt.Sprintf("%.3f", a.r.fairness))
	}

	// Scheduler fairness profile on the same workload (lossless, so the
	// index reflects scheduling policy, not loss luck).
	scheds := stats.NewTable("Scheduler (lossless)", "Fairness", "Goodput Mbit/s")
	for _, name := range []string{
		stream.SchedulerRoundRobin, stream.SchedulerPriority, stream.SchedulerWeighted,
	} {
		sc := mux
		sc.loss = 0
		sc.scheduler = name
		r, err := runHoL(sc)
		if err != nil {
			return nil, fmt.Errorf("scheduler %s: %w", name, err)
		}
		scheds.AddRow(name, fmt.Sprintf("%.3f", r.fairness), stats.Mbps(r.goodputBps))
	}
	notes := fmt.Sprintf("p95 per-object completion improvement: %.1f%% (TestHoLBlockingWin requires >= 30%%). 8 x 256 KiB objects, 2%% WAN loss, 64 KiB stream windows, 802.11n + 100 Mbit/s 20 ms RTT WAN.",
		holImprovement(sres, mres)*100)
	return &Result{ID: "ab-hol", Title: "A/B: stream multiplexing vs one serialized stream (head-of-line blocking)",
		Table: arms.String() + "\n" + scheds.String(), Notes: notes}, nil
}

// rackArm pools one detector's runs of the ab-rack workload.
type rackArm struct {
	completions []sim.Time
	snd         transport.SenderStats
}

// rackSeeds is the ab-rack pool size per arm: enough seeds that several
// object tails get clipped per pool.
const rackSeeds = 30

// runRackArm pools seeds runs of the loss-detector workload: objects short
// enough (4 × 16 KiB) that a burst plausibly clips the tail, bursts sharp
// enough (mean two packets) that the channel has recovered by the time the
// probe fires, and burst loss only — the tail-recovery delta, not Bernoulli
// luck.
func runRackArm(det transport.LossDetector, seed int64, seeds int) (rackArm, error) {
	var arm rackArm
	for s := 0; s < seeds; s++ {
		res, err := runHoL(holScenario{
			objects: 4, objectBytes: 16 << 10,
			scheduler: stream.SchedulerRoundRobin, streamWindow: 64 << 10,
			detector: det,
			burst:    netem.GilbertElliott{PEnterBad: 0.05, PExitBad: 0.5},
			seed:     seed + int64(s),
		})
		if err != nil {
			return rackArm{}, fmt.Errorf("detector %v seed %d: %w", det, seed+int64(s), err)
		}
		arm.completions = append(arm.completions, res.completions...)
		arm.snd.Retransmits += res.snd.Retransmits
		arm.snd.Timeouts += res.snd.Timeouts
		arm.snd.TLPProbes += res.snd.TLPProbes
		arm.snd.RackMarked += res.snd.RackMarked
	}
	return arm, nil
}

// runABRack is the loss-detector A/B: many short objects over the hybrid
// path with Gilbert–Elliott burst loss, once with RACK-TLP and once with
// the duplicate-threshold baseline. Bursts routinely take out object
// tails, where the receiver's gap-based reporting is blind (nothing is
// sent after the hole), so the baseline strands those objects on a full
// RTO while RACK's tail probe recovers them in ~2×SRTT — the gap shows up
// directly in the pooled p99 per-object completion time.
func runABRack(opt Options) (*Result, error) {
	seeds := opt.count(rackSeeds)
	tbl := stats.NewTable("Detector", "p50 ms", "p95 ms", "p99 ms", "max ms", "Retx", "RTO", "TLP", "Marked")
	var p99 [2]float64
	for i, det := range []transport.LossDetector{transport.DetectorRACK, transport.DetectorDupThresh} {
		arm, err := runRackArm(det, opt.seed(), seeds)
		if err != nil {
			return nil, err
		}
		ms := msSummary(arm.completions)
		p99[i] = ms.Percentile(99)
		tbl.AddRow(det.String(), fmt.Sprintf("%.1f", ms.Percentile(50)), fmt.Sprintf("%.1f", ms.Percentile(95)),
			fmt.Sprintf("%.1f", p99[i]), fmt.Sprintf("%.1f", ms.Max()),
			fmt.Sprint(arm.snd.Retransmits), fmt.Sprint(arm.snd.Timeouts),
			fmt.Sprint(arm.snd.TLPProbes), fmt.Sprint(arm.snd.RackMarked))
	}
	notes := fmt.Sprintf("p99 per-object completion improvement: %.1f%% (TestRACKBeatsDupThreshAtP99 requires RACK < dup-thresh). 4 x 16 KiB objects x %d seeds pooled per arm, Gilbert-Elliott enter 0.05 / exit 0.5.",
		(1-p99[0]/p99[1])*100, seeds)
	return &Result{ID: "ab-rack", Title: "A/B: RACK-TLP vs duplicate-threshold loss detection under burst loss",
		Table: tbl.String(), Notes: notes}, nil
}
