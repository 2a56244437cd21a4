package cc

func init() {
	Register("static", func() Controller { return NewStatic(100e6) })
}

// Static is a fixed-rate controller used by the UDP-style measurement tool
// (paper §3.2) and in tests: it paces at a constant rate with an
// effectively unbounded window.
type Static struct {
	rate float64
}

// NewStatic constructs a fixed-rate controller at rateBps.
func NewStatic(rateBps float64) *Static {
	return &Static{rate: rateBps}
}

// Name implements Controller.
func (s *Static) Name() string { return "static" }

// OnAck implements Controller (no-op).
func (s *Static) OnAck(Ack) {}

// OnLoss implements Controller (no-op).
func (s *Static) OnLoss(Loss) {}

// CWND implements Controller.
func (s *Static) CWND() int { return maxWindow }

// PacingRate implements Controller.
func (s *Static) PacingRate() float64 { return s.rate }

// SetRate changes the fixed rate.
func (s *Static) SetRate(rateBps float64) { s.rate = rateBps }
