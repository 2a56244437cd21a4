// Package cc implements congestion controllers behind a single interface.
//
// The TACK paper argues (§5.3, §7) that most controllers work with TACK
// once their feedback inputs — RTT samples, delivery-rate samples, loss
// indications — are decoupled from per-packet ACK arrival. This package
// therefore expresses every controller against abstract feedback events; the
// transport layer decides whether those events come from legacy per-packet
// ACKs (sender-computed delivery rate) or from TACKs (receiver-computed,
// synced in the ACK — the receiver-based paradigm).
//
// Implemented families: Reno, CUBIC, Vegas (window-based); BBR (rate-based,
// the paper's co-designed controller), a Copa-style delay controller and a
// PCC-style online rate prober (for the Figure 14 scheme population); and a
// fixed-rate controller for tooling.
package cc

import (
	"fmt"
	"sort"

	"github.com/tacktp/tack/internal/sim"
)

// MSS is the maximum segment size assumed for window arithmetic, matching
// the paper's full-sized 1500-byte packets.
const MSS = 1500

// Ack carries the feedback delivered to a controller when new data is
// acknowledged.
type Ack struct {
	Now sim.Time
	// Bytes newly acknowledged by this event.
	Bytes int
	// RTT is the sample associated with this feedback (0 when absent).
	RTT sim.Time
	// SRTT and MinRTT are the transport's current smoothed/minimum
	// estimates (0 when unknown).
	SRTT   sim.Time
	MinRTT sim.Time
	// DeliveryRate is the latest delivery-rate sample in bits/s (0 when
	// unknown). In TACK mode it is receiver-computed and synced via TACK.
	DeliveryRate float64
	// Inflight is the number of unacknowledged bytes after this event.
	Inflight int
	// AppLimited marks samples taken while the sender had no data to send.
	AppLimited bool
	// AckInterval is the spacing of feedback the sender expects: the TACK
	// interval (Eq. 3) it asked the receiver to keep, or 0 when the
	// receiver acknowledges as data arrives (legacy TCP). A window must
	// cover it, because nothing in flight is released any sooner.
	AckInterval sim.Time
}

// Loss carries the feedback delivered once per loss episode.
type Loss struct {
	Now      sim.Time
	Bytes    int // bytes declared lost
	Inflight int
	// Timeout marks an RTO-driven episode (full window collapse).
	Timeout bool
}

// Controller adapts the send rate to network feedback.
type Controller interface {
	// Name identifies the controller (e.g. "bbr", "cubic").
	Name() string
	// OnAck processes an acknowledgment event.
	OnAck(a Ack)
	// OnLoss processes a loss episode.
	OnLoss(l Loss)
	// CWND returns the congestion window in bytes.
	CWND() int
	// PacingRate returns the pacing rate in bits/s (paper §5.3: window-based
	// controllers convert CWND/sRTT to a rate; rate-based ones publish the
	// estimated bandwidth with a cycle gain).
	PacingRate() float64
}

// InitialWindow is the conventional initial congestion window (10 MSS).
const InitialWindow = 10 * MSS

// maxWindow bounds window growth in bytes.
const maxWindow = 64 << 20

// Factory builds a controller instance.
type Factory func() Controller

var registry = map[string]Factory{}

// Register adds a named controller factory; duplicate names panic.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("cc: duplicate controller %q", name))
	}
	registry[name] = f
}

// New builds a registered controller by name.
func New(name string) (Controller, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("cc: unknown controller %q", name)
	}
	return f(), nil
}

// Names lists registered controllers, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// pacingFromWindow converts a congestion window to a pacing rate using the
// smoothed RTT, with a modest 1.2x gain so pacing is not the throughput
// bottleneck (mirroring Linux's pacing behaviour).
func pacingFromWindow(cwnd int, srtt sim.Time) float64 {
	if srtt <= 0 {
		srtt = 100 * sim.Millisecond // conservative pre-handshake guess
	}
	return float64(cwnd) * 8 / srtt.Seconds() * 1.2
}
