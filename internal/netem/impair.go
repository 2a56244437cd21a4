package netem

import (
	"math/rand"

	"github.com/tacktp/tack/internal/sim"
)

// GilbertElliott parameterizes the classic two-state burst-loss model: the
// channel alternates between a "good" and a "bad" state with per-packet
// transition probabilities, and each state has its own loss probability.
// It captures the bursty frame-error behaviour of a fading wireless channel
// far better than independent Bernoulli loss (the paper's testbed sees
// exactly this regime when stations move away from the AP, §6.5).
//
// The model is enabled iff PEnterBad > 0. A zero LossBad means "drop
// everything while bad" (the common Gilbert configuration); set LossGood to
// add residual loss in the good state.
type GilbertElliott struct {
	// PEnterBad is the per-packet probability of a good→bad transition.
	PEnterBad float64
	// PExitBad is the per-packet probability of a bad→good transition
	// (expected burst length = 1/PExitBad packets).
	PExitBad float64
	// LossGood is the drop probability while in the good state.
	LossGood float64
	// LossBad is the drop probability while in the bad state; zero selects
	// the default of 1.0 (every packet in a burst is lost).
	LossBad float64
}

func (g GilbertElliott) enabled() bool { return g.PEnterBad > 0 }

func (g GilbertElliott) lossBad() float64 {
	if g.LossBad == 0 {
		return 1
	}
	return g.LossBad
}

// MeanLoss returns the configured steady-state loss rate of the model: the
// stationary bad-state occupancy π_bad = PEnterBad/(PEnterBad+PExitBad) of
// the two-state Markov chain, weighted by the per-state loss probabilities.
// Tests and the FEC adaptive controller assert against this ground truth
// instead of re-deriving it. A disabled model (PEnterBad == 0) draws no
// loss at all and returns 0; PExitBad == 0 means the chain is absorbed in
// the bad state.
func (g GilbertElliott) MeanLoss() float64 {
	if !g.enabled() {
		return 0
	}
	if g.PExitBad <= 0 {
		return g.lossBad()
	}
	piBad := g.PEnterBad / (g.PEnterBad + g.PExitBad)
	return piBad*g.lossBad() + (1-piBad)*g.LossGood
}

// Impairments bundles the adversarial per-packet models that can be layered
// on top of a path's basic rate/delay/queue behaviour: independent loss,
// Gilbert–Elliott burst loss, duplication, bit corruption and delay jitter.
// The zero value applies no impairments.
//
// Both the in-sim Link and the real-socket UDPProxy consume an Impairments
// through the same Impairer decision model, so a scenario tuned in
// simulation translates directly to a live chaos run.
type Impairments struct {
	// LossRate is an independent Bernoulli drop probability per packet,
	// applied on top of the Gilbert–Elliott model.
	LossRate float64
	// DuplicateRate is the probability that a surviving packet is delivered
	// twice (duplicate ACK/data injection, e.g. from link-layer retransmit
	// races).
	DuplicateRate float64
	// CorruptRate is the probability that a packet is bit-corrupted in
	// flight. The sim Link treats a corrupted packet as dropped (the frame
	// check sequence would reject it); the UDPProxy forwards the corrupted
	// bytes so the receiver's header validation is exercised.
	CorruptRate float64
	// ReorderRate is the probability that a packet is held back and
	// delivered ReorderDelay later than its peers, forcing out-of-order
	// arrival (fine-grained multi-path load balancing, paper §7).
	ReorderRate float64
	// ReorderDelay is the hold-back applied to reordered packets (default
	// 2 ms when ReorderRate is set).
	ReorderDelay sim.Time
	// JitterMax adds a uniform extra delay in [0, JitterMax) per packet,
	// independent of the reordering model. Combined with multi-packet
	// flights this produces natural reordering.
	JitterMax sim.Time
	// GE is the Gilbert–Elliott burst-loss model.
	GE GilbertElliott
}

// Active reports whether any impairment model is switched on.
func (im Impairments) Active() bool {
	return im.LossRate > 0 || im.DuplicateRate > 0 || im.CorruptRate > 0 ||
		im.ReorderRate > 0 || im.JitterMax > 0 || im.GE.enabled()
}

func (im Impairments) reorderDelay() sim.Time {
	if im.ReorderDelay > 0 {
		return im.ReorderDelay
	}
	return 2 * sim.Millisecond
}

// Verdict is the per-packet decision produced by an Impairer.
type Verdict struct {
	// Drop marks the packet lost (Bernoulli or Gilbert–Elliott).
	Drop bool
	// Duplicate marks the packet for double delivery.
	Duplicate bool
	// Corrupt marks the packet for bit corruption.
	Corrupt bool
	// Reorder marks the packet for a hold-back of the configured
	// ReorderDelay.
	Reorder bool
	// Jitter is the extra delay to apply on top of any reorder hold-back.
	Jitter sim.Time
}

// Delay returns the total extra delay the verdict imposes: the reorder
// hold-back (if any) plus jitter.
func (v Verdict) Delay(imp Impairments) sim.Time {
	d := v.Jitter
	if v.Reorder {
		d += imp.reorderDelay()
	}
	return d
}

// Impairer draws per-packet impairment verdicts from a seeded RNG. Given
// the same Impairments, seed and call sequence it produces the identical
// verdict sequence, which is what makes a chaos-soak failure reproducible
// from its seed.
//
// The draw order per packet is fixed: Gilbert–Elliott state transition and
// state-loss draw (if enabled), then Bernoulli loss, duplication,
// corruption, reordering and jitter. Models that are disabled consume no
// randomness,
// and every enabled model draws on every packet — even packets already
// marked dropped — so one verdict never perturbs the stream seen by later
// packets.
//
// An Impairer is not safe for concurrent use; give each direction its own.
type Impairer struct {
	imp Impairments
	rng *rand.Rand
	bad bool
}

// NewImpairer builds an Impairer drawing from rng.
func NewImpairer(imp Impairments, rng *rand.Rand) *Impairer {
	return &Impairer{imp: imp, rng: rng}
}

// Next draws the verdict for the next packet.
func (im *Impairer) Next() Verdict {
	var v Verdict
	if g := im.imp.GE; g.enabled() {
		if im.bad {
			if im.rng.Float64() < g.PExitBad {
				im.bad = false
			}
		} else if im.rng.Float64() < g.PEnterBad {
			im.bad = true
		}
		p := g.LossGood
		if im.bad {
			p = g.lossBad()
		}
		if p > 0 && im.rng.Float64() < p {
			v.Drop = true
		}
	}
	if im.imp.LossRate > 0 && im.rng.Float64() < im.imp.LossRate {
		v.Drop = true
	}
	if im.imp.DuplicateRate > 0 && im.rng.Float64() < im.imp.DuplicateRate {
		v.Duplicate = true
	}
	if im.imp.CorruptRate > 0 && im.rng.Float64() < im.imp.CorruptRate {
		v.Corrupt = true
	}
	if im.imp.ReorderRate > 0 && im.rng.Float64() < im.imp.ReorderRate {
		v.Reorder = true
	}
	if im.imp.JitterMax > 0 {
		v.Jitter = sim.Time(im.rng.Int63n(int64(im.imp.JitterMax)))
	}
	return v
}

// CorruptBytes flips one to three randomly chosen bits of b in place,
// emulating in-flight bit errors that slip past (or stand in for) the
// link-layer FCS. It is a no-op on an empty slice.
func CorruptBytes(b []byte, rng *rand.Rand) {
	if len(b) == 0 {
		return
	}
	flips := 1 + rng.Intn(3)
	for i := 0; i < flips; i++ {
		bit := rng.Intn(len(b) * 8)
		b[bit/8] ^= 1 << (bit % 8)
	}
}
