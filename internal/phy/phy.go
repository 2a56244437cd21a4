// Package phy models IEEE 802.11 physical layers: per-standard timing
// constants (slot, SIFS, DIFS, contention windows), preamble durations,
// PHY data rates and frame-airtime computation, including A-MPDU
// aggregation limits for 802.11n/ac.
//
// The parameter sets mirror the links evaluated in the TACK paper (its
// Figure 7): 802.11b at 11 Mbit/s, 802.11g at 54 Mbit/s, 802.11n at
// 300 Mbit/s (2x2, 40 MHz, short GI) and 802.11ac at 866.7 Mbit/s (2x2,
// 80 MHz, 256-QAM 5/6, short GI). Aggregation limits are calibrated so the
// simulated UDP baselines land near the paper's measured ceilings
// (7 / 26 / 210 / 590 Mbit/s).
package phy

import (
	"fmt"

	"github.com/tacktp/tack/internal/sim"
)

// Standard enumerates the modelled 802.11 amendments.
type Standard int

// Supported standards.
const (
	Std80211b Standard = iota
	Std80211g
	Std80211n
	Std80211ac
)

// String returns the conventional name, e.g. "802.11n".
func (s Standard) String() string {
	switch s {
	case Std80211b:
		return "802.11b"
	case Std80211g:
		return "802.11g"
	case Std80211n:
		return "802.11n"
	case Std80211ac:
		return "802.11ac"
	default:
		return fmt.Sprintf("Standard(%d)", int(s))
	}
}

// All lists the modelled standards in ascending PHY-rate order.
func All() []Standard {
	return []Standard{Std80211b, Std80211g, Std80211n, Std80211ac}
}

// Params captures the MAC/PHY constants of one standard.
type Params struct {
	Standard Standard
	// Timing.
	Slot sim.Time // backoff slot time
	SIFS sim.Time // short interframe space
	// DIFS = SIFS + 2*Slot, precomputed for convenience.
	DIFS sim.Time
	// Contention window bounds (in slots); CW starts at CWMin and doubles
	// per retry up to CWMax.
	CWMin int
	CWMax int
	// PreambleData is the PLCP preamble+header duration prefixed to data
	// frames; PreambleCtl the one prefixed to control (ACK) frames.
	PreambleData sim.Time
	PreambleCtl  sim.Time
	// DataRate is the PHY payload rate in bit/s; BasicRate carries control
	// responses (ACK / BlockAck).
	DataRate  float64
	BasicRate float64
	// Symbol is the OFDM symbol duration used to round airtime up
	// (zero for DSSS/CCK).
	Symbol sim.Time
	// MaxAMPDU is the maximum A-MPDU aggregate size in bytes; zero disables
	// aggregation (802.11b/g).
	MaxAMPDU int
	// MaxAMPDUFrames bounds the number of subframes in one aggregate.
	MaxAMPDUFrames int
	// RetryLimit is the MAC retransmission limit per frame.
	RetryLimit int
}

// MAC-layer framing constants (bytes).
const (
	MACHeaderLen     = 28 // QoS data header + FCS
	AckFrameLen      = 14
	BlockAckFrameLen = 32
	// MPDUDelimiterLen is the per-subframe A-MPDU delimiter; subframes are
	// additionally padded to 4-byte boundaries.
	MPDUDelimiterLen = 4
)

// Get returns the parameter set of a standard. The values follow the
// IEEE 802.11-2016 tables for the configurations in the paper's Figure 7.
func Get(s Standard) Params {
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }
	switch s {
	case Std80211b:
		p := Params{
			Standard: s,
			Slot:     us(20), SIFS: us(10),
			CWMin: 31, CWMax: 1023,
			// Long PLCP preamble + header: 144 + 48 µs.
			PreambleData: us(192), PreambleCtl: us(192),
			DataRate: 11e6, BasicRate: 2e6,
			RetryLimit: 7,
		}
		p.DIFS = p.SIFS + 2*p.Slot
		return p
	case Std80211g:
		p := Params{
			Standard: s,
			Slot:     us(9), SIFS: us(10),
			CWMin: 15, CWMax: 1023,
			// OFDM preamble 16 µs + SIGNAL 4 µs; +6 µs signal extension
			// folded into the preamble figure.
			PreambleData: us(26), PreambleCtl: us(26),
			DataRate: 54e6, BasicRate: 24e6,
			Symbol:     us(4),
			RetryLimit: 7,
		}
		p.DIFS = p.SIFS + 2*p.Slot
		return p
	case Std80211n:
		p := Params{
			Standard: s,
			Slot:     us(9), SIFS: us(16),
			CWMin: 15, CWMax: 1023,
			// HT-mixed preamble: L-STF+L-LTF+L-SIG + HT-SIG + HT-STF +
			// 2x HT-LTF ≈ 40 µs.
			PreambleData: us(40), PreambleCtl: us(26),
			DataRate: 300e6, BasicRate: 24e6,
			Symbol: sim.Time(3600), // 3.6 µs short-GI symbol
			// Calibrated so the saturated UDP ceiling lands near the
			// paper's measured 210 Mbit/s baseline.
			MaxAMPDU: 24 * 1024, MaxAMPDUFrames: 16,
			RetryLimit: 7,
		}
		p.DIFS = p.SIFS + 2*p.Slot
		return p
	case Std80211ac:
		p := Params{
			Standard: s,
			Slot:     us(9), SIFS: us(16),
			CWMin: 15, CWMax: 1023,
			PreambleData: us(44), PreambleCtl: us(26),
			DataRate: 866.7e6, BasicRate: 24e6,
			Symbol: sim.Time(3600),
			// Calibrated toward the paper's 590 Mbit/s UDP ceiling.
			MaxAMPDU: 50 * 1024, MaxAMPDUFrames: 32,
			RetryLimit: 7,
		}
		p.DIFS = p.SIFS + 2*p.Slot
		return p
	default:
		panic(fmt.Sprintf("phy: unknown standard %d", int(s)))
	}
}

// payloadAirtime returns the duration of n bytes at rate bps rounded up to
// whole symbols when the PHY is OFDM-based.
func (p Params) payloadAirtime(n int, bps float64) sim.Time {
	d := sim.Time(float64(n*8) / bps * 1e9)
	if p.Symbol > 0 && d%p.Symbol != 0 {
		d = (d/p.Symbol + 1) * p.Symbol
	}
	return d
}

// DataAirtime returns the on-air duration of a single (non-aggregated) data
// frame carrying payload bytes of layer-3+ payload.
func (p Params) DataAirtime(payload int) sim.Time {
	return p.PreambleData + p.payloadAirtime(MACHeaderLen+payload, p.DataRate)
}

// AggregateAirtime returns the on-air duration of an A-MPDU carrying the
// given subframe payload sizes, including per-MPDU delimiters and padding.
func (p Params) AggregateAirtime(payloads []int) sim.Time {
	total := 0
	for _, n := range payloads {
		sub := MPDUDelimiterLen + MACHeaderLen + n
		if rem := sub % 4; rem != 0 {
			sub += 4 - rem
		}
		total += sub
	}
	return p.PreambleData + p.payloadAirtime(total, p.DataRate)
}

// SubframeEnds returns, for an A-MPDU with the given subframe payloads,
// each subframe's completion offset from the start of the transmission
// (preamble included). The receiver hands MPDUs up as they decode, so
// delivery timestamps follow these offsets rather than the aggregate end.
func (p Params) SubframeEnds(payloads []int) []sim.Time {
	out := make([]sim.Time, len(payloads))
	total := 0
	for i, n := range payloads {
		sub := MPDUDelimiterLen + MACHeaderLen + n
		if rem := sub % 4; rem != 0 {
			sub += 4 - rem
		}
		total += sub
		out[i] = p.PreambleData + p.payloadAirtime(total, p.DataRate)
	}
	return out
}

// AckAirtime returns the duration of a MAC-layer ACK control frame.
func (p Params) AckAirtime() sim.Time {
	return p.PreambleCtl + p.payloadAirtime(AckFrameLen, p.BasicRate)
}

// BlockAckAirtime returns the duration of a BlockAck control frame.
func (p Params) BlockAckAirtime() sim.Time {
	return p.PreambleCtl + p.payloadAirtime(BlockAckFrameLen, p.BasicRate)
}

// Aggregates reports whether the standard uses A-MPDU aggregation.
func (p Params) Aggregates() bool { return p.MaxAMPDU > 0 }

// CW returns the contention window (in slots) after retries collisions,
// doubling from CWMin and saturating at CWMax.
func (p Params) CW(retries int) int {
	cw := p.CWMin
	for i := 0; i < retries && cw < p.CWMax; i++ {
		cw = cw*2 + 1
	}
	if cw > p.CWMax {
		cw = p.CWMax
	}
	return cw
}
