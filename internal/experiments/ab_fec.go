package experiments

import (
	"fmt"

	"github.com/tacktp/tack/internal/fec"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/topo"
	"github.com/tacktp/tack/internal/transport"
)

func init() {
	register("ab-fec", runABFEC)
}

// The ab-fec workload is the paper's Figure-11 projection scenario re-run
// over an emulated WAN with Gilbert–Elliott burst loss: a
// constant-frame-rate video source writes each encoded frame onto one
// multiplexed stream, and a playout model renders frame i at its deadline —
// complete frames render clean, incomplete ones render corrupted
// (macroblocking). With a ~50 ms RTT and a ~100 ms render budget, a lost
// packet recovered by retransmission costs at least loss-detection time
// plus a round trip and blows the deadline; a packet recovered from a
// repair symbol already in flight costs nothing. The arms differ only in
// stream.Options.FEC, so the event delta is attributable to the repair path
// alone.
const (
	fecVideoBps = 8e6
	fecVideoFPS = 60
	// fecDeadlineFrames is the render budget in frame periods (≈ 100 ms).
	fecDeadlineFrames = 6
	fecWANRateBps     = 20e6
	fecWANOWD         = 25 * sim.Millisecond
	// fecWANQueue is deep enough that the only losses are the burst model's.
	fecWANQueue = 1 << 20
	fecSession  = 30 * sim.Second
	fecSeeds    = 5
)

// fecBurst is ≈ 5.7% mean loss in 2-packet bursts, the paper's 5–10% regime.
var fecBurst = netem.GilbertElliott{PEnterBad: 0.03, PExitBad: 0.5}

// fecArmOptions is the FEC arm's stream class.
var fecArmOptions = fec.Options{Scheme: fec.SchemeRS, GroupLen: 12, MaxOverhead: 0.18, Adaptive: true}

// fecResult is one session's (or, summed with add, one arm's) playout and
// transport accounting.
type fecResult struct {
	frames int
	// lateFrames counts frames rendered corrupted: not fully delivered by
	// their render deadline (the macroblocking events of Figure 11).
	lateFrames int
	stalls     int
	// dataBytes and repairBytes are the sender's payload and repair wire
	// bytes.
	dataBytes, repairBytes int64
	// recovered counts receiver-side FEC reconstructions.
	recovered   int
	retransmits int
	// linkDropped counts packets the impaired link actually destroyed.
	linkDropped int
}

// events is the headline quality metric: deadline misses plus stalls.
func (r fecResult) events() int { return r.lateFrames + r.stalls }

// overhead is the share of wire bytes spent on repair symbols.
func (r fecResult) overhead() float64 {
	if r.dataBytes+r.repairBytes == 0 {
		return 0
	}
	return float64(r.repairBytes) / float64(r.dataBytes+r.repairBytes)
}

func (r *fecResult) add(o fecResult) {
	r.frames += o.frames
	r.lateFrames += o.lateFrames
	r.stalls += o.stalls
	r.dataBytes += o.dataBytes
	r.repairBytes += o.repairBytes
	r.recovered += o.recovered
	r.retransmits += o.retransmits
	r.linkDropped += o.linkDropped
}

// runFECSession executes one simulated video session, ARQ-only or with the
// FEC stream class.
func runFECSession(seed int64, dur sim.Time, withFEC bool) (fecResult, error) {
	loop := sim.NewLoop(seed)

	scfg := stream.Default()
	scfg.RecvWindow = 512 << 10
	scfg.MaxStreams = 4
	// Absorb I-frame bursts; the congestion controller does the pacing.
	scfg.SendBuffer = 2 << 20

	tcfg := transport.Config{Mode: transport.ModeTACK, Streams: &scfg}
	path, fwd, _ := topo.WANPath(loop, topo.WANConfig{
		RateBps: fecWANRateBps, OWD: fecWANOWD, QueueBytes: fecWANQueue,
		Impair: netem.Impairments{GE: fecBurst},
	})
	flow, err := topo.NewFlow(loop, tcfg, path)
	if err != nil {
		return fecResult{}, err
	}

	var opts stream.Options
	if withFEC {
		opts.FEC = fecArmOptions
	}
	ss, err := flow.Sender.Streams().Open(opts)
	if err != nil {
		return fecResult{}, err
	}

	src := &videoSource{FPS: fecVideoFPS, AvgBitrate: fecVideoBps, PeakFactor: 2, GOPSize: 30}
	playout := newVideoPlayout(fecVideoFPS, 2)
	frameDur := src.Interval()
	deadline := fecDeadlineFrames * frameDur

	// frameEnds[i] is the stream offset at which frame i completes;
	// frameDue[i] its render deadline.
	var frameEnds []uint64
	var frameDue []sim.Time
	var total uint64
	buf := make([]byte, 0, 64<<10)
	var tick func()
	tick = func() {
		now := loop.Now()
		n := src.NextFrameBytes()
		if room := scfg.SendBuffer - ss.BufferedBytes(); n > room {
			// A real-time encoder never blocks: a frame the transport
			// cannot absorb is dropped at the source and renders corrupted.
			frameEnds = append(frameEnds, total)
			frameDue = append(frameDue, now) // already missed
		} else {
			if cap(buf) < n {
				buf = make([]byte, n)
			}
			if _, err := ss.Write(buf[:n]); err != nil {
				return
			}
			total += uint64(n)
			frameEnds = append(frameEnds, total)
			frameDue = append(frameDue, now+deadline)
		}
		playout.Tick(now)
		loop.After(frameDur, tick)
	}
	loop.After(0, tick)

	// Receiver application: drain deliverable bytes every millisecond and
	// render frames in order — at completion if on time, corrupted at the
	// deadline otherwise.
	var delivered uint64
	late := 0
	next := 0
	scratch := make([]byte, 64<<10)
	var rs *stream.RecvStream
	var poll *sim.Timer
	poll = sim.NewTimer(loop, func() {
		if rs == nil {
			rs = flow.Receiver.Streams().TryAccept()
		}
		if rs != nil {
			for {
				n, eof, err := rs.ReadAvailable(scratch)
				delivered += uint64(n)
				if err != nil || eof || n == 0 {
					break
				}
			}
		}
		now := loop.Now()
	render:
		for next < len(frameEnds) {
			switch {
			case delivered >= frameEnds[next] && now <= frameDue[next]:
				playout.OnFrame(now, false)
			case now > frameDue[next]:
				playout.OnFrame(frameDue[next], true)
				late++
			default:
				break render
			}
			next++
		}
		poll.Reset(now + sim.Millisecond)
	})
	poll.Reset(sim.Millisecond)

	flow.Start()
	loop.RunUntil(dur)
	playout.Finish(dur)

	snd := flow.Sender.Stats
	return fecResult{
		frames:      len(frameEnds),
		lateFrames:  late,
		stalls:      playout.Stalls,
		dataBytes:   snd.DataBytes,
		repairBytes: snd.FECRepairBytes,
		recovered:   flow.Receiver.Stats.FECRecovered,
		retransmits: snd.Retransmits,
		linkDropped: fwd.Dropped,
	}, nil
}

// runFECArms pools seeds sessions per arm.
func runFECArms(seed int64, seeds int, dur sim.Time) (arq, withFEC fecResult, err error) {
	for s := int64(0); s < int64(seeds); s++ {
		a, err := runFECSession(seed+s, dur, false)
		if err != nil {
			return arq, withFEC, fmt.Errorf("arq seed %d: %w", seed+s, err)
		}
		f, err := runFECSession(seed+s, dur, true)
		if err != nil {
			return arq, withFEC, fmt.Errorf("fec seed %d: %w", seed+s, err)
		}
		arq.add(a)
		withFEC.add(f)
	}
	return arq, withFEC, nil
}

// fecReduction is the ab-fec headline: the fraction of the ARQ arm's
// deadline-miss events the FEC arm avoids.
func fecReduction(arq, withFEC fecResult) float64 {
	if arq.events() == 0 {
		return 0
	}
	return 1 - float64(withFEC.events())/float64(arq.events())
}

// runABFEC measures what forward error correction buys a deadline-driven
// video stream that ARQ alone cannot: recovery without the feedback loop.
func runABFEC(opt Options) (*Result, error) {
	seeds, dur := opt.count(fecSeeds), opt.dur(fecSession)
	arq, withFEC, err := runFECArms(opt.seed(), seeds, dur)
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Arm", "Late frames", "Frames", "Stalls", "Retx", "Recovered", "Link drops", "Repair bytes")
	for _, a := range []struct {
		name string
		r    fecResult
	}{{"ARQ only", arq}, {"FEC (RS k=12, adaptive, cap 18%)", withFEC}} {
		tbl.AddRowf(a.name, a.r.lateFrames, a.r.frames, a.r.stalls, a.r.retransmits,
			a.r.recovered, a.r.linkDropped, stats.Pct(a.r.overhead()))
	}
	notes := fmt.Sprintf("deadline-miss event reduction: %.1f%% at %.1f%% byte overhead (TestFECArmBeatsARQ requires >= 30%% at < 20%%). %d seeds x %v of %.0f Mbit/s video, ~100 ms render deadline, 20 Mbit/s 50 ms RTT WAN, Gilbert-Elliott enter 0.03 / exit 0.5 (mean loss %.1f%%).",
		fecReduction(arq, withFEC)*100, withFEC.overhead()*100, seeds, dur, fecVideoBps/1e6, fecBurst.MeanLoss()*100)
	return &Result{ID: "ab-fec", Title: "A/B: FEC stream class vs ARQ only on deadline-driven video under burst loss",
		Table: tbl.String(), Notes: notes}, nil
}
