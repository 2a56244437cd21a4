package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
)

// FlowSummary aggregates one flow's trace into the quantities the paper
// reasons about: the achieved acknowledgment frequency against the Eq. 3
// target, the IACK trigger breakdown, and loss-detection latency.
type FlowSummary struct {
	Flow uint32
	// Mode is "tack" or "legacy" (from the flow_params event; "unknown"
	// when the trace lacks one).
	Mode string
	// Beta, L, Payload, SettleFraction echo the flow_params event.
	Beta, L, Payload, SettleFraction int

	// Start and End bound the flow's events on the virtual clock.
	Start, End sim.Time

	// Sender-side counts.
	DataPackets, Retransmits int
	BytesSent                int64
	RTOs, LossEpisodes       int
	RTTSyncs                 int

	// Receiver-side counts.
	TACKs, IACKs int
	// AcksReceived counts sender-side ack arrivals (a one-sided sender
	// trace has no ack_sent events; these stand in for them).
	AcksReceived int
	// AckTriggers histograms scheduled-ack triggers (bytes/timer/tail/fin);
	// IACKTriggers histograms instant-ack triggers (loss/window/...).
	AckTriggers, IACKTriggers map[string]int
	// BytesAcked is the highest cumulative ack observed.
	BytesAcked int64

	// Loss detection (receiver-based): ranges declared, packets covered,
	// and the latency distribution from gap observation to declaration.
	LossRanges, LossPackets int
	LossLatency             *stats.Summary

	// Sender-side loss-mark attribution: detector name (rack, dupthresh,
	// rto) → segments marked lost, with the per-detector distribution of
	// send-to-mark latency in seconds. Comparing the rack and dupthresh
	// rows of the same scenario quantifies the recovery-latency delta
	// between the detectors.
	LossMarks   map[string]int
	MarkLatency map[string]*stats.Summary
	// TLPProbes counts tail loss probes fired by the sender.
	TLPProbes int

	// RTTMin is the smallest nonzero RTTmin carried by acknowledgments.
	RTTMin sim.Time
	// DeliveryBps is the average delivery rate computed from cumulative-ack
	// growth across the acknowledgment span (not the synced max filter), the
	// bw term of Eq. 3.
	DeliveryBps float64

	// AchievedAckHz is the measured scheduled-acknowledgment (TACK)
	// frequency. TargetAckHz is the Eq. 3 prediction
	// min(TargetByteHz, TargetPeriodicHz); Regime names the binding bound.
	AchievedAckHz    float64
	TargetAckHz      float64
	TargetByteHz     float64
	TargetPeriodicHz float64
	Regime           string

	// Last congestion-controller outputs seen.
	LastCwnd   int64
	LastPacing float64

	// Anomalies counts flight-recorder anomaly events by class name
	// (stall, retx_storm, wnd_exhaust, mig_storm) — present when the
	// trace is a post-mortem dump or the endpoint detectors fired.
	Anomalies map[string]int

	// Path migration: foreign-address packets rejected, PATH_CHALLENGEs
	// sent while probing a candidate address, and validated migrations
	// (the migration_rejected / path_challenge / migration_completed
	// event kinds).
	MigrationRejects int
	PathChallenges   int
	Migrations       int

	started               bool
	firstAckAt, lastAckAt sim.Time
	firstCumAck           uint64
	haveAck               bool

	// Received-ack mirror of the above, for sender-only traces.
	rxTACKs                   int
	firstRxAckAt, lastRxAckAt sim.Time
	firstRxCumAck             uint64
	haveRxAck                 bool
	minRxRTT                  sim.Time
}

// MACSummary aggregates medium-level events.
type MACSummary struct {
	Stations      int
	Acquisitions  int
	FramesTx      uint64
	BytesTx       int64
	Airtime       sim.Time
	Collisions    int
	CollisionTime sim.Time
	Drops         int
	BackoffSlots  *stats.Summary
}

// TraceSummary is the full analysis of one trace.
type TraceSummary struct {
	Events int
	Span   sim.Time
	Flows  []*FlowSummary
	MAC    *MACSummary
}

// Flow returns the summary for the given flow id (nil when absent).
func (s *TraceSummary) Flow(id uint32) *FlowSummary {
	for _, f := range s.Flows {
		if f.Flow == id {
			return f
		}
	}
	return nil
}

// Analyze replays a trace into per-flow and MAC summaries.
func Analyze(events []Event) *TraceSummary {
	ts := &TraceSummary{Events: len(events)}
	flows := map[uint32]*FlowSummary{}
	flow := func(id uint32) *FlowSummary {
		f := flows[id]
		if f == nil {
			f = &FlowSummary{
				Flow: id, Mode: "unknown",
				AckTriggers:  map[string]int{},
				IACKTriggers: map[string]int{},
				Anomalies:    map[string]int{},
				LossLatency:  stats.NewSummary(),
				LossMarks:    map[string]int{},
				MarkLatency:  map[string]*stats.Summary{},
			}
			flows[id] = f
		}
		return f
	}
	mac := func() *MACSummary {
		if ts.MAC == nil {
			ts.MAC = &MACSummary{BackoffSlots: stats.NewSummary()}
		}
		return ts.MAC
	}
	for i := range events {
		e := &events[i]
		if e.Sim > ts.Span {
			ts.Span = e.Sim
		}
		switch e.Kind {
		case KindMACTx:
			m := mac()
			m.seeStation(e.Flow)
			m.Acquisitions++
			m.FramesTx += e.PktSeq
			m.BytesTx += e.Len
			m.Airtime += sim.Time(e.Aux)
			m.BackoffSlots.Add(e.Value)
			continue
		case KindMACCollision:
			m := mac()
			m.seeStation(e.Flow)
			m.Collisions++
			m.CollisionTime += sim.Time(e.Aux)
			m.BackoffSlots.Add(e.Value)
			continue
		case KindMACDrop:
			m := mac()
			m.seeStation(e.Flow)
			m.Drops++
			continue
		case KindUnknown:
			continue
		}

		f := flow(e.Flow)
		if !f.started {
			f.started = true
			f.Start = e.Sim
		}
		if e.Sim > f.End {
			f.End = e.Sim
		}
		switch e.Kind {
		case KindFlowParams:
			if e.Trigger == 1 {
				f.Mode = "legacy"
			} else {
				f.Mode = "tack"
			}
			f.Beta = int(e.Seq)
			f.L = int(e.PktSeq)
			f.Payload = int(e.Len)
			f.SettleFraction = int(e.Aux)
		case KindDataSent:
			f.DataPackets++
			f.BytesSent += e.Len
			if e.Trigger == TrigRetrans {
				f.Retransmits++
			}
		case KindAckSent:
			switch e.Trigger {
			case TrigLoss, TrigWindow, TrigRTTSync, TrigHandshake, TrigKeepalive:
				f.IACKs++
				f.IACKTriggers[TriggerName(e.Trigger)]++
			default:
				f.TACKs++
				f.AckTriggers[TriggerName(e.Trigger)]++
				if !f.haveAck {
					f.haveAck = true
					f.firstAckAt = e.Sim
					f.firstCumAck = e.Seq
				}
				f.lastAckAt = e.Sim
			}
			if int64(e.Seq) > f.BytesAcked {
				f.BytesAcked = int64(e.Seq)
			}
			if e.Aux > 0 && (f.RTTMin == 0 || sim.Time(e.Aux) < f.RTTMin) {
				f.RTTMin = sim.Time(e.Aux)
			}
		case KindAckReceived:
			f.AcksReceived++
			if e.Trigger == TrigNone {
				// A scheduled TACK as seen from the sender.
				f.rxTACKs++
				if !f.haveRxAck {
					f.haveRxAck = true
					f.firstRxAckAt = e.Sim
					f.firstRxCumAck = e.Seq
				}
				f.lastRxAckAt = e.Sim
			}
			if int64(e.Seq) > f.BytesAcked {
				f.BytesAcked = int64(e.Seq)
			}
			if e.Aux > 0 && (f.minRxRTT == 0 || sim.Time(e.Aux) < f.minRxRTT) {
				f.minRxRTT = sim.Time(e.Aux)
			}
		case KindLossDeclared:
			f.LossRanges++
			f.LossPackets += int(e.Len)
			f.LossLatency.Add(e.Value)
		case KindLossMarked:
			det := TriggerName(e.Trigger)
			f.LossMarks[det]++
			sm := f.MarkLatency[det]
			if sm == nil {
				sm = stats.NewSummary()
				f.MarkLatency[det] = sm
			}
			sm.Add(e.Value)
		case KindTLPProbe:
			f.TLPProbes++
		case KindLossEpisode:
			f.LossEpisodes++
		case KindRTOFired:
			f.RTOs++
		case KindCCUpdate:
			f.LastCwnd = e.Len
			f.LastPacing = e.Value
		case KindRTTSync:
			f.RTTSyncs++
			if e.Aux > 0 && (f.RTTMin == 0 || sim.Time(e.Aux) < f.RTTMin) {
				f.RTTMin = sim.Time(e.Aux)
			}
		case KindAnomaly:
			f.Anomalies[TriggerName(e.Trigger)]++
		case KindMigrationRejected:
			f.MigrationRejects++
		case KindPathChallenge:
			f.PathChallenges++
		case KindMigrationCompleted:
			f.Migrations++
		}
	}
	for _, f := range flows {
		f.finish()
		ts.Flows = append(ts.Flows, f)
	}
	sort.Slice(ts.Flows, func(i, j int) bool { return ts.Flows[i].Flow < ts.Flows[j].Flow })
	return ts
}

func (m *MACSummary) seeStation(idx uint32) {
	if int(idx)+1 > m.Stations {
		m.Stations = int(idx) + 1
	}
}

// finish derives the achieved-vs-target acknowledgment frequencies once
// all events are folded in.
func (f *FlowSummary) finish() {
	// Prefer the receiver's own ack_sent record; a one-sided sender trace
	// falls back to ack arrivals (an undercount when the ACK path loses).
	span, acks, firstCum := f.lastAckAt-f.firstAckAt, f.TACKs, f.firstCumAck
	if !f.haveAck && f.haveRxAck {
		span, acks, firstCum = f.lastRxAckAt-f.firstRxAckAt, f.rxTACKs, f.firstRxCumAck
	}
	if acks > 1 && span > 0 {
		f.AchievedAckHz = float64(acks-1) / span.Seconds()
		f.DeliveryBps = float64(f.BytesAcked-int64(firstCum)) * 8 / span.Seconds()
	}
	if f.RTTMin == 0 {
		f.RTTMin = f.minRxRTT
	}
	if f.Mode != "tack" {
		return
	}
	beta, l, payload := f.Beta, f.L, f.Payload
	if beta <= 0 {
		beta = 4
	}
	if l <= 0 {
		l = 2
	}
	if payload <= 0 {
		payload = ackpolicy.MSS
	}
	// Eq. 3's two bounds, each as the receiver discretizes it.
	hz := func(iv sim.Time) float64 {
		if iv <= 0 {
			return 0
		}
		return 1 / iv.Seconds()
	}
	f.TargetPeriodicHz = hz(ackpolicy.Interval(beta, l, payload, 0, f.RTTMin))
	f.TargetByteHz = hz(ackpolicy.Interval(beta, l, payload, f.DeliveryBps, 0))
	switch {
	case f.TargetPeriodicHz == 0 && f.TargetByteHz == 0:
		return
	case f.TargetByteHz == 0 || (f.TargetPeriodicHz > 0 && f.TargetPeriodicHz <= f.TargetByteHz):
		f.TargetAckHz = f.TargetPeriodicHz
		f.Regime = "periodic (beta/RTTmin)"
	default:
		f.TargetAckHz = f.TargetByteHz
		f.Regime = "bytecount (bw/(L*MSS))"
	}
}

// AckFrequencyError returns |achieved−target|/target, or -1 when either
// side is unavailable.
func (f *FlowSummary) AckFrequencyError() float64 {
	if f.TargetAckHz <= 0 || f.AchievedAckHz <= 0 {
		return -1
	}
	err := (f.AchievedAckHz - f.TargetAckHz) / f.TargetAckHz
	if err < 0 {
		err = -err
	}
	return err
}

// String renders the analysis as a human-readable report.
func (s *TraceSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events over %v\n", s.Events, s.Span)
	for _, f := range s.Flows {
		fmt.Fprintf(&b, "\nflow %d (%s", f.Flow, f.Mode)
		if f.Mode == "tack" {
			fmt.Fprintf(&b, ", beta=%d L=%d", f.Beta, f.L)
		}
		fmt.Fprintf(&b, ") %v .. %v\n", f.Start, f.End)
		fmt.Fprintf(&b, "  data: %d packets (%d retx), %d bytes sent, %d acked\n",
			f.DataPackets, f.Retransmits, f.BytesSent, f.BytesAcked)
		fmt.Fprintf(&b, "  acks: %d TACKs + %d IACKs", f.TACKs, f.IACKs)
		if f.DataPackets > 0 && f.TACKs+f.IACKs > 0 {
			fmt.Fprintf(&b, " (%.1f data:ack)", float64(f.DataPackets)/float64(f.TACKs+f.IACKs))
		}
		if f.AcksReceived > 0 {
			fmt.Fprintf(&b, ", %d received", f.AcksReceived)
		}
		b.WriteByte('\n')
		if len(f.AckTriggers) > 0 {
			fmt.Fprintf(&b, "  tack triggers: %s\n", renderTriggers(f.AckTriggers))
		}
		if len(f.IACKTriggers) > 0 {
			fmt.Fprintf(&b, "  iack triggers: %s\n", renderTriggers(f.IACKTriggers))
		}
		if f.AchievedAckHz > 0 {
			fmt.Fprintf(&b, "  ack frequency: achieved %.1f/s", f.AchievedAckHz)
			if f.TargetAckHz > 0 {
				fmt.Fprintf(&b, ", Eq.3 target %.1f/s [%s] (err %.1f%%; bounds: periodic %.1f/s, bytecount %.1f/s)",
					f.TargetAckHz, f.Regime, f.AckFrequencyError()*100,
					f.TargetPeriodicHz, f.TargetByteHz)
			}
			b.WriteByte('\n')
		}
		if f.RTTMin > 0 || f.DeliveryBps > 0 {
			fmt.Fprintf(&b, "  rttmin %v, delivery %.2f Mbit/s, %d sender syncs\n",
				f.RTTMin, f.DeliveryBps/1e6, f.RTTSyncs)
		}
		if f.LossRanges > 0 {
			fmt.Fprintf(&b, "  loss: %d ranges / %d packets declared; detection latency ms p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
				f.LossRanges, f.LossPackets,
				f.LossLatency.Percentile(50)*1e3, f.LossLatency.Percentile(95)*1e3,
				f.LossLatency.Percentile(99)*1e3, f.LossLatency.Max()*1e3)
		}
		if len(f.LossMarks) > 0 {
			fmt.Fprintf(&b, "  loss marks by detector:\n")
			dets := make([]string, 0, len(f.LossMarks))
			for d := range f.LossMarks {
				dets = append(dets, d)
			}
			sort.Strings(dets)
			for _, d := range dets {
				fmt.Fprintf(&b, "    %s: %d marked", d, f.LossMarks[d])
				if sm := f.MarkLatency[d]; sm != nil && sm.Count() > 0 {
					fmt.Fprintf(&b, "; send-to-mark ms p50=%.2f p95=%.2f max=%.2f",
						sm.Percentile(50)*1e3, sm.Percentile(95)*1e3, sm.Max()*1e3)
				}
				b.WriteByte('\n')
			}
		}
		if f.RTOs > 0 || f.LossEpisodes > 0 || f.TLPProbes > 0 {
			fmt.Fprintf(&b, "  recovery: %d loss episodes, %d RTOs, %d TLP probes\n",
				f.LossEpisodes, f.RTOs, f.TLPProbes)
		}
		if f.LastCwnd > 0 || f.LastPacing > 0 {
			fmt.Fprintf(&b, "  cc: final cwnd %d bytes, pacing %.2f Mbit/s\n", f.LastCwnd, f.LastPacing/1e6)
		}
		if f.Migrations > 0 || f.PathChallenges > 0 || f.MigrationRejects > 0 {
			fmt.Fprintf(&b, "  migration: %d completed (%d challenges sent), %d foreign packets rejected\n",
				f.Migrations, f.PathChallenges, f.MigrationRejects)
		}
		if len(f.Anomalies) > 0 {
			fmt.Fprintf(&b, "  ANOMALIES: %s\n", renderTriggers(f.Anomalies))
		}
	}
	if s.MAC != nil {
		m := s.MAC
		fmt.Fprintf(&b, "\nmac: %d stations, %d acquisitions (%d frames, %d bytes, %v airtime)\n",
			m.Stations, m.Acquisitions, m.FramesTx, m.BytesTx, m.Airtime)
		fmt.Fprintf(&b, "  collisions: %d (%v wasted), drops: %d, mean backoff %.1f slots\n",
			m.Collisions, m.CollisionTime, m.Drops, m.BackoffSlots.Mean())
	}
	return b.String()
}

func renderTriggers(m map[string]int) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, m[n])
	}
	return strings.Join(parts, " ")
}
