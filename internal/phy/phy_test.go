package phy

import (
	"testing"

	"github.com/tacktp/tack/internal/sim"
)

func TestAllStandardsHaveSaneParams(t *testing.T) {
	for _, s := range All() {
		p := Get(s)
		if p.DIFS != p.SIFS+2*p.Slot {
			t.Errorf("%v: DIFS = %v, want SIFS+2*Slot", s, p.DIFS)
		}
		if p.DataRate <= 0 || p.BasicRate <= 0 {
			t.Errorf("%v: nonpositive rates", s)
		}
		if p.CWMin <= 0 || p.CWMax < p.CWMin {
			t.Errorf("%v: bad CW bounds %d/%d", s, p.CWMin, p.CWMax)
		}
		if p.RetryLimit <= 0 {
			t.Errorf("%v: bad retry limit", s)
		}
	}
}

func TestStandardString(t *testing.T) {
	if Std80211n.String() != "802.11n" || Std80211ac.String() != "802.11ac" {
		t.Fatal("Standard.String broken")
	}
	if Standard(42).String() == "" {
		t.Fatal("unknown standard must format")
	}
}

func TestGetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get(unknown) should panic")
		}
	}()
	Get(Standard(42))
}

func TestRatesAscend(t *testing.T) {
	prev := 0.0
	for _, s := range All() {
		p := Get(s)
		if p.DataRate <= prev {
			t.Fatalf("PHY rates not ascending at %v", s)
		}
		prev = p.DataRate
	}
}

func TestDataAirtime80211b(t *testing.T) {
	p := Get(Std80211b)
	// 1500 B payload: preamble 192 µs + (28+1500)*8 bits / 11 Mbit/s ≈ 1111 µs.
	got := p.DataAirtime(1500)
	bits := float64((28 + 1500) * 8)
	want := 192*sim.Microsecond + sim.Time(bits/11e6*1e9)
	if got != want {
		t.Fatalf("airtime = %v, want %v", got, want)
	}
}

func TestAirtimeSymbolRounding(t *testing.T) {
	p := Get(Std80211g)
	a1 := p.DataAirtime(1)
	a2 := p.DataAirtime(2)
	if a1 != a2 {
		// 1 extra byte within one symbol must not change duration.
		t.Fatalf("symbol rounding broken: %v vs %v", a1, a2)
	}
	if (a1-p.PreambleData)%p.Symbol != 0 {
		t.Fatalf("payload airtime %v not whole symbols", a1-p.PreambleData)
	}
}

func TestAckShorterThanData(t *testing.T) {
	for _, s := range All() {
		p := Get(s)
		if p.AckAirtime() >= p.DataAirtime(1500) {
			t.Errorf("%v: ACK airtime %v not shorter than data %v", s, p.AckAirtime(), p.DataAirtime(1500))
		}
		if p.BlockAckAirtime() <= p.AckAirtime()/4 {
			t.Errorf("%v: BlockAck airtime %v implausible", s, p.BlockAckAirtime())
		}
	}
}

func TestAggregation(t *testing.T) {
	if Get(Std80211b).Aggregates() || Get(Std80211g).Aggregates() {
		t.Fatal("b/g should not aggregate")
	}
	if !Get(Std80211n).Aggregates() || !Get(Std80211ac).Aggregates() {
		t.Fatal("n/ac should aggregate")
	}
}

func TestAggregateAirtimeBeatsSerial(t *testing.T) {
	p := Get(Std80211n)
	payloads := make([]int, 16)
	for i := range payloads {
		payloads[i] = 1500
	}
	agg := p.AggregateAirtime(payloads)
	serial := sim.Time(0)
	for range payloads {
		serial += p.DataAirtime(1500) + p.SIFS + p.AckAirtime() + p.DIFS
	}
	if agg >= serial/2 {
		t.Fatalf("aggregation saves too little: agg %v vs serial %v", agg, serial)
	}
}

func TestCWDoubling(t *testing.T) {
	p := Get(Std80211g) // CWMin 15, CWMax 1023
	want := []int{15, 31, 63, 127, 255, 511, 1023, 1023}
	for retries, w := range want {
		if got := p.CW(retries); got != w {
			t.Fatalf("CW(%d) = %d, want %d", retries, got, w)
		}
	}
}

// TestSaturationCeilings sanity-checks the airtime model against the
// paper's Figure 7 UDP baselines: a single saturated sender (no contention)
// should achieve roughly 7 / 26 / 210 / 590 Mbit/s of UDP goodput.
func TestSaturationCeilings(t *testing.T) {
	cases := []struct {
		std     Standard
		wantMin float64 // Mbit/s
		wantMax float64
	}{
		{Std80211b, 5.5, 8.5},
		{Std80211g, 22, 32},
		{Std80211n, 180, 240},
		{Std80211ac, 520, 660},
	}
	const frame = 1518 // paper's UDP tool frame size
	for _, c := range cases {
		p := Get(c.std)
		var cycle sim.Time
		var payloadBits float64
		avgBackoff := sim.Time(p.CWMin/2) * p.Slot
		if p.Aggregates() {
			n := p.MaxAMPDUFrames
			if lim := p.MaxAMPDU / (frame + MACHeaderLen + MPDUDelimiterLen); lim < n {
				n = lim
			}
			payloads := make([]int, n)
			for i := range payloads {
				payloads[i] = frame
			}
			cycle = p.DIFS + avgBackoff + p.AggregateAirtime(payloads) + p.SIFS + p.BlockAckAirtime()
			payloadBits = float64(n * frame * 8)
		} else {
			cycle = p.DIFS + avgBackoff + p.DataAirtime(frame) + p.SIFS + p.AckAirtime()
			payloadBits = float64(frame * 8)
		}
		mbps := payloadBits / cycle.Seconds() / 1e6
		if mbps < c.wantMin || mbps > c.wantMax {
			t.Errorf("%v: saturation ceiling %.1f Mbit/s outside [%v, %v]", c.std, mbps, c.wantMin, c.wantMax)
		}
	}
}

func TestSubframeEnds(t *testing.T) {
	p := Get(Std80211n)
	payloads := []int{1500, 1500, 700}
	ends := SubframeEndsOf(p, payloads)
	if len(ends) != 3 {
		t.Fatalf("got %d offsets", len(ends))
	}
	// Strictly increasing and starting after the preamble.
	if ends[0] <= p.PreambleData {
		t.Fatalf("first subframe ends at %v, before preamble end", ends[0])
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] <= ends[i-1] {
			t.Fatalf("offsets not increasing: %v", ends)
		}
	}
	// The final offset equals the aggregate's data airtime.
	if got, want := ends[2], p.AggregateAirtime(payloads); got != want {
		t.Fatalf("last subframe end %v != aggregate airtime %v", got, want)
	}
}

// SubframeEndsOf avoids shadowing in the test.
func SubframeEndsOf(p Params, payloads []int) []sim.Time { return p.SubframeEnds(payloads) }
