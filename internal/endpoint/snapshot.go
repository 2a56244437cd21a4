package endpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// ConnState is a point-in-time, JSON-friendly snapshot of one
// connection, built by the owning shard goroutine (which may touch the
// protocol engines freely) and published through an atomic pointer so
// readers — the debug endpoint, tackstat — never contend with the
// datapath. Fields that belong to the absent half (sender fields on an
// accepted connection and vice versa) are zero.
type ConnState struct {
	ConnID uint32 `json:"conn_id"`
	// Role is "sender" (dialed) or "receiver" (accepted).
	Role string `json:"role"`
	// State is "handshake", "established", "closing", or "complete".
	State  string  `json:"state"`
	Peer   string  `json:"peer"`
	AgeSec float64 `json:"age_sec"`

	// RTT and rate.
	SRTTMs      float64 `json:"srtt_ms"`
	RTTMinMs    float64 `json:"rtt_min_ms"`
	DeliveryBps float64 `json:"delivery_bps"`

	// Windows and flight (sender half).
	InflightBytes   int    `json:"inflight_bytes"`
	CwndBytes       int    `json:"cwnd_bytes"`
	WindowFreeBytes int    `json:"window_free_bytes"`
	PeerWindowBytes uint64 `json:"peer_window_bytes"`
	// RecvWindowBytes is the receiver half's advertised window.
	RecvWindowBytes uint64 `json:"recv_window_bytes"`

	// Progress and loss.
	BytesAcked     int64 `json:"bytes_acked"`
	BytesDelivered int64 `json:"bytes_delivered"`
	Retransmits    int   `json:"retransmits"`
	Timeouts       int   `json:"timeouts"`
	LossEpisodes   int   `json:"loss_episodes"`
	LossesDetected int   `json:"losses_detected"`

	// Acknowledgment clock: achieved frequency vs the Eq. 3 target, and
	// the ACK-overhead accounting (feedback wire bytes per delivered MB).
	AcksReceived          int     `json:"acks_received"`
	AcksSent              int     `json:"acks_sent"`
	AchievedAckHz         float64 `json:"achieved_ack_hz"`
	TargetAckHz           float64 `json:"target_ack_hz"`
	AckBytes              int64   `json:"ack_bytes"`
	AckOverheadBytesPerMB float64 `json:"ack_overhead_bytes_per_mb"`

	// Stream multiplexing.
	Streams             int `json:"streams"`
	StreamBufferedBytes int `json:"stream_buffered_bytes"`

	// Robustness signals. PathState is the migration state machine's
	// position ("idle", "probing", "rejected"); Migrations counts
	// validated path migrations over the connection's life.
	PathState        string   `json:"path_state"`
	Migrations       int64    `json:"migrations"`
	MigrationRejects int64    `json:"migration_rejects"`
	Anomalies        []string `json:"anomalies,omitempty"`
	// FlightRecorded is the total number of events the connection's
	// flight-recorder ring has seen (0 when the recorder is disabled).
	FlightRecorded uint64 `json:"flight_recorded"`

	// at is the wall time the shard built this snapshot.
	at time.Time
}

// read returns a reader's copy of a published snapshot. AgeSec is the age
// at publication — so a changed AgeSec means a newer snapshot — unless the
// connection has gone quiet, is not refreshed, and the copy must catch up.
func (s *ConnState) read() ConnState {
	cp := *s
	if quiet := time.Since(cp.at); quiet > 2*snapshotRefresh.Duration() {
		cp.AgeSec += quiet.Seconds()
	}
	return cp
}

// Anomaly-detector thresholds that are not per-deployment knobs: the
// rolling windows are coarse by design (detectors run with the snapshot
// refresh, from the connection's housekeeping timer, and must stay
// cheap), and each class latches once per connection so a wedged flow
// produces one post-mortem, not a stream.
const (
	// snapshotRefresh is how often a shard runs the detectors on an active
	// connection and republishes its ConnState (anomalies, registration
	// and removal additionally publish immediately).
	snapshotRefresh = 100 * sim.Millisecond
	// retxStormThreshold retransmissions inside one rolling
	// retxStormWindow fire the retransmission-storm anomaly.
	retxStormWindow    = sim.Second
	retxStormThreshold = 50
	// wndExhaustTimeout is how long the send window must stay exhausted
	// with data queued before the window-exhaustion anomaly fires.
	wndExhaustTimeout = sim.Second
	// migStormWindow / migStormThreshold: this many migration rejects
	// within the window fire the migration-storm anomaly (a NAT rebind
	// turns every arriving packet into a reject, so a real rebind
	// crosses this in a few RTTs).
	migStormWindow    = 5 * sim.Second
	migStormThreshold = 10
)

// anomalyClasses maps the latch indexes to telemetry trigger values.
var anomalyClasses = [...]uint8{
	telemetry.TrigStall,
	telemetry.TrigRetxStorm,
	telemetry.TrigWndExhaust,
	telemetry.TrigMigStorm,
}

// anomalyState is the shard-owned detector bookkeeping embedded in each
// Conn, its times on the shard's loop. Only the owning shard goroutine
// touches it.
type anomalyState struct {
	// No-progress stall tracking (lastProgress is unset until the first
	// pass on an established connection).
	lastProgress sim.Time
	lastCum      uint64
	lastDeliv    int64

	// Retransmission-storm rolling window.
	retxWindowAt sim.Time
	retxAtWindow int

	// Window-exhaustion persistence (unset while the window is open).
	wndBlockedSince sim.Time

	// Migration-reject rolling window (migRejects is bumped on the
	// demux path, same goroutine).
	migRejects  int64
	migWindowAt sim.Time
	migAtWindow int64

	fired   [len(anomalyClasses)]bool
	classes []string // TriggerNames of fired classes, for snapshots
}

func anomalyIndex(class uint8) int {
	for i, c := range anomalyClasses {
		if c == class {
			return i
		}
	}
	return 0
}

// buildState assembles a fresh ConnState. Shard goroutine only.
func (sh *shard) buildState(c *Conn) *ConnState {
	now := sh.loop.Now()
	s := &ConnState{
		ConnID: c.id,
		Peer:   c.peer.String(),
		AgeSec: (now - c.created).Seconds(),
		at:     sh.wall(now),
	}
	switch {
	case c.closing:
		s.State = "closing"
	case !c.established:
		s.State = "handshake"
	case c.rcv != nil && c.rcv.Complete():
		s.State = "complete"
	default:
		s.State = "established"
	}
	span := (now - c.created).Seconds()
	if snd := c.snd; snd != nil {
		s.Role = "sender"
		s.SRTTMs = snd.SRTT().Seconds() * 1e3
		if min, ok := snd.RTTMin(); ok {
			s.RTTMinMs = min.Seconds() * 1e3
		}
		s.InflightBytes = snd.Inflight()
		s.CwndBytes = snd.CWND()
		s.WindowFreeBytes = snd.WindowFree()
		if w, ok := snd.PeerWindow(); ok {
			s.PeerWindowBytes = w
		}
		s.BytesAcked = int64(snd.CumAcked())
		s.Retransmits = snd.Stats.Retransmits
		s.Timeouts = snd.Stats.Timeouts
		s.LossEpisodes = snd.Stats.LossEpisodes
		s.AcksReceived = snd.Stats.AcksReceived
		s.AckBytes = snd.Stats.AckBytesReceived
		if span > 0 {
			s.AchievedAckHz = float64(snd.Stats.AcksReceived) / span
			s.DeliveryBps = float64(s.BytesAcked) * 8 / span
		}
		if mb := float64(s.BytesAcked) / 1e6; mb > 0 {
			s.AckOverheadBytesPerMB = float64(s.AckBytes) / mb
		}
		if m := snd.Streams(); m != nil {
			s.Streams = m.ActiveStreams()
		}
	}
	if rcv := c.rcv; rcv != nil {
		s.Role = "receiver"
		s.RTTMinMs = rcv.RTTMinSynced().Seconds() * 1e3
		s.DeliveryBps = rcv.DeliveryRateBps()
		s.RecvWindowBytes = rcv.Buffer().Window()
		s.BytesDelivered = rcv.Delivered()
		s.LossesDetected = rcv.Stats.LossesDetected
		s.AcksSent = rcv.Stats.AcksSent()
		s.AckBytes = rcv.Stats.AckBytesSent
		s.TargetAckHz = rcv.AckTargetHz()
		if span > 0 {
			s.AchievedAckHz = float64(rcv.Stats.AcksSent()) / span
		}
		if mb := float64(s.BytesDelivered) / 1e6; mb > 0 {
			s.AckOverheadBytesPerMB = float64(s.AckBytes) / mb
		}
		if m := rcv.Streams(); m != nil {
			s.Streams = m.ActiveStreams()
			s.StreamBufferedBytes = m.Buffered()
		}
	}
	s.PathState = c.migState.String()
	s.Migrations = c.migCompleted
	s.MigrationRejects = c.anom.migRejects
	if len(c.anom.classes) > 0 {
		s.Anomalies = append([]string(nil), c.anom.classes...)
	}
	s.FlightRecorded = c.ring.Total()
	return s
}

// refreshSnapshot rebuilds and publishes the connection's ConnState.
func (sh *shard) refreshSnapshot(c *Conn) { c.snap.Store(sh.buildState(c)) }

// detectAnomalies runs the per-tick anomaly checks for one connection.
// Each class fires at most once per connection: the first detection
// emits a telemetry event into the flight recorder, bumps the class
// counter, dumps the ring as a post-mortem, and republishes the
// snapshot.
func (sh *shard) detectAnomalies(c *Conn, now sim.Time) {
	if !c.established {
		return
	}
	a := &c.anom
	if a.lastProgress == unset {
		a.lastProgress = now
		a.retxWindowAt = now
		a.migWindowAt = now
	}

	// No-progress stall: data in flight (sender) or a transfer underway
	// (receiver) with nothing moving for > StallRTOs × RTO.
	stallAfter := sh.stallTimeout(c)
	if snd := c.snd; snd != nil && !snd.Done() {
		if cum := snd.CumAcked(); cum != a.lastCum || snd.Inflight() == 0 {
			// (Nothing in flight is nothing to stall on: a sender back from
			// an application pause starts a fresh clock.)
			a.lastCum = cum
			a.lastProgress = now
		} else if snd.Inflight() > 0 && now-a.lastProgress > stallAfter {
			sh.fireAnomaly(c, telemetry.TrigStall, uint64(now-a.lastProgress))
		}
	} else if rcv := c.rcv; rcv != nil && !rcv.Complete() {
		if d := rcv.Delivered(); d != a.lastDeliv || rcv.Stats.DataPackets == 0 {
			a.lastDeliv = d
			a.lastProgress = now
		} else if now-c.lastRecv > stallAfter {
			sh.fireAnomaly(c, telemetry.TrigStall, uint64(now-c.lastRecv))
		}
	}

	if snd := c.snd; snd != nil {
		// Retransmission storm: too many retransmissions inside one
		// rolling window.
		if now-a.retxWindowAt >= retxStormWindow {
			if d := snd.Stats.Retransmits - a.retxAtWindow; d >= retxStormThreshold {
				sh.fireAnomaly(c, telemetry.TrigRetxStorm, uint64(d))
			}
			a.retxWindowAt = now
			a.retxAtWindow = snd.Stats.Retransmits
		}

		// Persistent window exhaustion: data queued but no budget to
		// send it, continuously, for longer than wndExhaustTimeout.
		if !snd.Done() && snd.WindowFree() <= 0 && snd.StreamBacklog() {
			if a.wndBlockedSince == unset {
				a.wndBlockedSince = now
			} else if blocked := now - a.wndBlockedSince; blocked > wndExhaustTimeout {
				sh.fireAnomaly(c, telemetry.TrigWndExhaust, uint64(blocked))
			}
		} else {
			a.wndBlockedSince = unset
		}
	}

	// Migration-reject storm (both halves; rejects are counted on the
	// demux path).
	if now-a.migWindowAt >= migStormWindow {
		a.migWindowAt = now
		a.migAtWindow = a.migRejects
	}
	if d := a.migRejects - a.migAtWindow; d >= migStormThreshold {
		sh.fireAnomaly(c, telemetry.TrigMigStorm, uint64(d))
	}
}

// stallTimeout returns the no-progress threshold for c: StallRTOs times
// the sender's backoff-free RTO, or — for the receiver half, which has
// no RTO estimator — the transport's configured minimum RTO.
func (sh *shard) stallTimeout(c *Conn) sim.Time {
	n := sim.Time(sh.ep.cfg.StallRTOs)
	if c.snd != nil {
		return c.snd.BaseRTO() * n
	}
	rto := sh.ep.cfg.Transport.MinRTO
	if rto <= 0 {
		rto = transport.DefaultMinRTO
	}
	return rto * n
}

// fireAnomaly latches one anomaly class on a connection: telemetry
// event (into the flight recorder and any forward tracer), per-class
// counter, post-mortem dump, immediate snapshot refresh.
func (sh *shard) fireAnomaly(c *Conn, class uint8, detail uint64) {
	idx := anomalyIndex(class)
	if c.anom.fired[idx] {
		return
	}
	c.anom.fired[idx] = true
	name := telemetry.TriggerName(class)
	c.anom.classes = append(c.anom.classes, name)
	sh.ep.mAnomaly[idx].Inc()
	inflight := 0
	if c.snd != nil {
		inflight = c.snd.Inflight()
	}
	c.tracer.Anomaly(sh.loop.Now(), c.id, class, inflight, detail)
	sh.dumpPostMortem(c, name)
	sh.refreshSnapshot(c)
}

// dumpPostMortem snapshots the connection's flight-recorder ring on the
// shard goroutine (the copy decouples the dump from later Emits) and
// writes it to PostMortemDir as JSONL on a background goroutine — disk
// latency must not stall the datapath. The dump's final event is the
// KindAnomaly record that triggered it; tacktrace reads the file like
// any other trace. One file per (connection, class):
// postmortem-conn<id>-<class>.jsonl.
func (sh *shard) dumpPostMortem(c *Conn, class string) {
	dir := sh.ep.cfg.PostMortemDir
	if dir == "" || c.ring == nil {
		return
	}
	events := c.ring.Snapshot(nil)
	path := filepath.Join(dir, fmt.Sprintf("postmortem-conn%08x-%s.jsonl", c.id, class))
	ep := sh.ep
	go func() {
		var buf []byte
		for i := range events {
			buf = telemetry.AppendEvent(buf, &events[i])
		}
		if err := os.WriteFile(path, buf, 0o666); err != nil {
			ep.mAnomalyDumpErrs.Inc()
			return
		}
		ep.mAnomalyDumps.Inc()
	}()
}

// StateSnapshots returns the latest published snapshot of every live
// connection, sorted by connection id. It reads only atomic pointers
// published by the shards — no shard, loop, or engine locks — so it is
// safe and cheap to call from the debug endpoint at any rate. As a side
// effect it refreshes the endpoint-wide ep.ack_overhead_bytes_per_mb
// gauge from the aggregated per-connection accounting.
func (ep *Endpoint) StateSnapshots() []ConnState {
	ep.mu.Lock()
	conns := make([]*Conn, 0, len(ep.used))
	for _, c := range ep.used {
		conns = append(conns, c)
	}
	ep.mu.Unlock()
	out := make([]ConnState, 0, len(conns))
	var ackBytes, dataBytes int64
	for _, c := range conns {
		s := c.snap.Load()
		if s == nil {
			continue // dialed, not yet registered with its shard
		}
		out = append(out, s.read())
		ackBytes += s.AckBytes
		dataBytes += s.BytesAcked + s.BytesDelivered
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ConnID < out[j].ConnID })
	if mb := float64(dataBytes) / 1e6; mb > 0 {
		ep.mAckOverhead.Set(float64(ackBytes) / mb)
	}
	return out
}
