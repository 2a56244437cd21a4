// Package mac implements a discrete-event IEEE 802.11 DCF (CSMA/CA) medium
// simulator.
//
// The model is a round-based abstraction of the distributed coordination
// function: whenever the medium becomes idle, every station with pending
// frames holds a backoff counter (drawn uniformly from its current
// contention window); the station with the fewest remaining slots transmits
// after DIFS + slots, the others freeze their counters (decremented by the
// elapsed slots) for the next round. Two or more stations reaching zero in
// the same slot collide: the medium is wasted for the longest frame plus an
// ACK timeout, and each collider doubles its contention window and retries
// up to the retry limit.
//
// Stations on 802.11n/ac aggregate head-of-queue frames to the same
// destination into A-MPDUs bounded by the standard's aggregate limits, and
// the receiver responds with a single BlockAck. This captures exactly the
// effect the TACK paper builds on: every medium acquisition — no matter how
// small the frame — pays DIFS + backoff + preamble + SIFS + ACK, so frequent
// small transport ACKs steal a disproportionate share of airtime from the
// data path and collide with data frames.
package mac

import (
	"fmt"

	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
)

// Frame is one MAC service data unit queued at a station.
type Frame struct {
	// Size is the MSDU size in bytes (transport wire size incl. IP/UDP/Eth
	// framing; the MAC header is accounted separately by the PHY airtime
	// model).
	Size int
	// Dst is the receiving station.
	Dst *Station
	// Payload is an opaque handle delivered to the destination's handler.
	Payload any
}

// Stats aggregates per-station MAC counters.
type Stats struct {
	Acquisitions int      // successful medium acquisitions
	Collisions   int      // acquisitions lost to collision
	Retries      int      // frame retransmissions
	Drops        int      // frames dropped at retry limit or full queue
	FramesTx     int      // MSDUs delivered
	BytesTx      int64    // MSDU bytes delivered
	Airtime      sim.Time // time spent transmitting (incl. preambles)
}

// Station is one 802.11 transmitter/receiver attached to a Medium.
type Station struct {
	Name string

	medium  *Medium
	index   uint32 // attach order; tags this station's telemetry events
	queue   []*Frame
	backoff int // remaining backoff slots; -1 means "draw fresh"
	retries int // collisions suffered by the head frame

	// Receive is invoked (in simulation time) for every MSDU delivered to
	// this station.
	Receive func(f *Frame)

	// Stats accumulates this station's MAC counters.
	Stats Stats

	maxQueue int
}

// QueueLen returns the number of frames waiting at the station.
func (s *Station) QueueLen() int { return len(s.queue) }

// Enqueue adds a frame to the station's transmit queue; it is dropped (and
// counted) when the queue is full.
func (s *Station) Enqueue(f *Frame) {
	if len(s.queue) >= s.maxQueue {
		s.Stats.Drops++
		s.medium.Tracer.MACDrop(s.medium.loop.Now(), s.index, telemetry.TrigQueueFull, f.Size)
		return
	}
	s.queue = append(s.queue, f)
	s.medium.maybeSchedule()
}

// Send is a convenience wrapper constructing and enqueueing a frame.
func (s *Station) Send(dst *Station, size int, payload any) {
	s.Enqueue(&Frame{Size: size, Dst: dst, Payload: payload})
}

// Medium is the shared wireless channel plus the DCF arbitration logic.
type Medium struct {
	loop     *sim.Loop
	params   phy.Params
	stations []*Station

	busy      bool
	scheduled *sim.Event

	// PER is an optional per-MPDU error probability modelling channel
	// noise; failed MPDUs miss their (Block)Ack and are retried.
	PER float64

	// Tracer records MAC-level telemetry events (acquisitions, collisions,
	// drops); nil — the default — disables tracing.
	Tracer *telemetry.Tracer
}

// NewMedium creates a medium with the given 802.11 parameter set.
func NewMedium(loop *sim.Loop, params phy.Params) *Medium {
	return &Medium{loop: loop, params: params}
}

// AddStation attaches and returns a new station. maxQueue bounds its
// transmit queue (frames); values <= 0 select a default of 2048.
func (m *Medium) AddStation(name string, maxQueue int) *Station {
	if maxQueue <= 0 {
		maxQueue = 2048
	}
	st := &Station{Name: name, medium: m, index: uint32(len(m.stations)), backoff: -1, maxQueue: maxQueue}
	m.stations = append(m.stations, st)
	return st
}

// maybeSchedule arms contention resolution if the medium is idle and at
// least one station has pending frames.
func (m *Medium) maybeSchedule() {
	if m.busy || m.scheduled != nil {
		return
	}
	contenders := m.contenders()
	if len(contenders) == 0 {
		return
	}
	// Draw fresh backoff for stations without a frozen counter.
	minSlots := -1
	for _, st := range contenders {
		if st.backoff < 0 {
			st.backoff = m.loop.Rand().Intn(m.params.CW(st.retries) + 1)
		}
		if minSlots < 0 || st.backoff < minSlots {
			minSlots = st.backoff
		}
	}
	wait := m.params.DIFS + sim.Time(minSlots)*m.params.Slot
	m.scheduled = m.loop.After(wait, func() {
		m.scheduled = nil
		m.resolve()
	})
}

// contenders returns stations with at least one pending frame.
func (m *Medium) contenders() []*Station {
	var out []*Station
	for _, st := range m.stations {
		if len(st.queue) > 0 {
			out = append(out, st)
		}
	}
	return out
}

// resolve runs one contention round: the minimum-backoff stations transmit.
func (m *Medium) resolve() {
	contenders := m.contenders()
	if len(contenders) == 0 {
		return
	}
	minSlots := -1
	for _, st := range contenders {
		if st.backoff < 0 {
			// Frame arrived while the round was pending; it contends next
			// round but cannot win this one retroactively.
			continue
		}
		if minSlots < 0 || st.backoff < minSlots {
			minSlots = st.backoff
		}
	}
	if minSlots < 0 {
		m.maybeSchedule()
		return
	}
	var winners []*Station
	for _, st := range contenders {
		if st.backoff == minSlots {
			winners = append(winners, st)
		} else if st.backoff > 0 {
			// Others observed minSlots idle slots and freeze the rest.
			st.backoff -= minSlots
		}
	}
	if len(winners) == 1 {
		m.transmit(winners[0], minSlots)
		return
	}
	m.collide(winners, minSlots)
}

// aggregate pops the head-of-queue frames a winner may send in one
// acquisition: a single frame on non-aggregating PHYs, or an A-MPDU of
// same-destination frames bounded by the aggregate limits.
func (st *Station) aggregate() []*Frame {
	p := st.medium.params
	if !p.Aggregates() {
		return []*Frame{st.queue[0]}
	}
	dst := st.queue[0].Dst
	frames := []*Frame{st.queue[0]}
	bytes := st.queue[0].Size + phy.MACHeaderLen + phy.MPDUDelimiterLen
	for _, f := range st.queue[1:] {
		if f.Dst != dst || len(frames) >= p.MaxAMPDUFrames {
			break
		}
		sub := f.Size + phy.MACHeaderLen + phy.MPDUDelimiterLen
		if bytes+sub > p.MaxAMPDU {
			break
		}
		frames = append(frames, f)
		bytes += sub
	}
	return frames
}

// transmit performs a successful acquisition by station st after waiting
// slots backoff slots.
func (m *Medium) transmit(st *Station, slots int) {
	frames := st.aggregate()
	p := m.params
	var air sim.Time
	if p.Aggregates() && len(frames) >= 1 {
		payloads := make([]int, len(frames))
		for i, f := range frames {
			payloads[i] = f.Size
		}
		air = p.AggregateAirtime(payloads) + p.SIFS + p.BlockAckAirtime()
	} else {
		air = p.DataAirtime(frames[0].Size) + p.SIFS + p.AckAirtime()
	}
	m.busy = true
	st.Stats.Acquisitions++
	st.Stats.Airtime += air

	now := m.loop.Now()
	if m.Tracer != nil {
		msdu := 0
		for _, f := range frames {
			msdu += f.Size
		}
		m.Tracer.MACTx(now, st.index, len(frames), msdu, air, slots)
	}
	// Per-MPDU random errors are decided up front; failed subframes stay
	// queued for MAC retry, successful ones decode (and deliver)
	// progressively across the aggregate's airtime, so the receiver
	// observes the true PHY drain rate rather than an instantaneous burst.
	var subEnds []sim.Time
	if p.Aggregates() {
		payloads := make([]int, len(frames))
		for i, f := range frames {
			payloads[i] = f.Size
		}
		subEnds = p.SubframeEnds(payloads)
	}
	var delivered []*Frame
	failed := 0
	for i, f := range frames {
		if m.PER > 0 && m.loop.Rand().Float64() < m.PER {
			failed++
			continue
		}
		delivered = append(delivered, f)
		f := f
		at := now + air
		if subEnds != nil {
			at = now + subEnds[i]
		}
		m.loop.At(at, func() {
			st.Stats.FramesTx++
			st.Stats.BytesTx += int64(f.Size)
			if f.Dst != nil && f.Dst.Receive != nil {
				f.Dst.Receive(f)
			}
		})
	}
	m.loop.After(air, func() {
		// Remove delivered frames from the queue (they are the head run,
		// minus failures which stay for retry).
		st.removeDelivered(delivered)
		if failed > 0 {
			st.Stats.Retries += failed
			st.retries++
			if st.retries > p.RetryLimit {
				// Drop the head frame after exhausting retries.
				if len(st.queue) > 0 {
					m.Tracer.MACDrop(m.loop.Now(), st.index, telemetry.TrigRetryLimit, st.queue[0].Size)
					st.queue = st.queue[1:]
				}
				st.Stats.Drops++
				st.retries = 0
			}
		} else {
			st.retries = 0
		}
		// Post-transmission backoff: winner re-draws next round.
		st.backoff = -1
		m.busy = false
		m.maybeSchedule()
	})
}

// removeDelivered deletes the given frames (a subset of the queue head run)
// from the queue, preserving order of the rest.
func (st *Station) removeDelivered(delivered []*Frame) {
	if len(delivered) == 0 {
		return
	}
	set := make(map[*Frame]bool, len(delivered))
	for _, f := range delivered {
		set[f] = true
	}
	kept := st.queue[:0]
	for _, f := range st.queue {
		if !set[f] {
			kept = append(kept, f)
		}
	}
	st.queue = kept
}

// collide wastes the medium for the duration of the longest colliding
// transmission plus an ACK timeout (EIFS-like), then retries everyone.
// slots is the backoff each collider had waited.
func (m *Medium) collide(winners []*Station, slots int) {
	p := m.params
	var longest sim.Time
	for _, st := range winners {
		frames := st.aggregate()
		var air sim.Time
		if p.Aggregates() {
			payloads := make([]int, len(frames))
			for i, f := range frames {
				payloads[i] = f.Size
			}
			air = p.AggregateAirtime(payloads)
		} else {
			air = p.DataAirtime(frames[0].Size)
		}
		if air > longest {
			longest = air
		}
	}
	waste := longest + p.SIFS + p.AckAirtime() // ack timeout
	m.busy = true
	m.Tracer.MACCollision(m.loop.Now(), winners[0].index, len(winners), waste, slots)
	for _, st := range winners {
		st.Stats.Collisions++
		st.Stats.Retries++
		st.retries++
		st.backoff = -1 // redraw from doubled CW
		if st.retries > p.RetryLimit {
			if len(st.queue) > 0 {
				m.Tracer.MACDrop(m.loop.Now(), st.index, telemetry.TrigRetryLimit, st.queue[0].Size)
				st.queue = st.queue[1:]
			}
			st.Stats.Drops++
			st.retries = 0
		}
	}
	m.loop.After(waste, func() {
		m.busy = false
		m.maybeSchedule()
	})
}

// String summarizes the stats for debugging.
func (s Stats) String() string {
	return fmt.Sprintf("acq=%d coll=%d retry=%d drop=%d tx=%d bytes=%d air=%v",
		s.Acquisitions, s.Collisions, s.Retries, s.Drops, s.FramesTx, s.BytesTx, s.Airtime)
}
