package transport

import (
	"testing"

	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
)

func ptr[T any](v T) *T { return &v }

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero config", Config{}, true},
		{"full tack config", Config{
			Mode: ModeTACK, CC: "bbr", RichTACK: true,
			TransferBytes: 1 << 20,
		}, true},
		{"legacy mode", Config{Mode: ModeLegacy, CC: "cubic"}, true},
		{"app paced", Config{Mode: ModeTACK, AppPaced: true}, true},
		{"unknown mode", Config{Mode: Mode(42)}, false},
		{"unknown cc", Config{CC: "no-such-cc"}, false},
		{"negative transfer", Config{TransferBytes: -1}, false},
		{"negative recvbuf", Config{RecvBuf: -1}, false},
		{"negative beta", Config{Params: Params{Beta: -1}}, false},
		{"negative rto", Config{MinRTO: -sim.Second}, false},
		{"min rto above max", Config{MinRTO: 2 * sim.Second, MaxRTO: sim.Second}, false},
		{"app paced with byte bound", Config{AppPaced: true, TransferBytes: 1 << 20}, false},
		{"streams default", Config{Mode: ModeTACK, Streams: ptr(stream.Default())}, true},
		{"streams custom scheduler", Config{Mode: ModeTACK, Streams: &stream.Config{
			RecvWindow: 64 << 10, MaxStreams: 16, Scheduler: stream.SchedulerWeighted,
		}}, true},
		{"streams legacy mode", Config{Mode: ModeLegacy, Streams: ptr(stream.Default())}, false},
		{"streams with transfer bytes", Config{Mode: ModeTACK, TransferBytes: 1 << 20,
			Streams: ptr(stream.Default())}, false},
		{"streams with app pacing", Config{Mode: ModeTACK, AppPaced: true,
			Streams: ptr(stream.Default())}, false},
		{"streams zero recv window", Config{Mode: ModeTACK,
			Streams: &stream.Config{RecvWindow: 0, MaxStreams: 16}}, false},
		{"streams negative recv window", Config{Mode: ModeTACK,
			Streams: &stream.Config{RecvWindow: -1, MaxStreams: 16}}, false},
		{"streams zero max streams", Config{Mode: ModeTACK,
			Streams: &stream.Config{RecvWindow: 64 << 10, MaxStreams: 0}}, false},
		{"streams negative max streams", Config{Mode: ModeTACK,
			Streams: &stream.Config{RecvWindow: 64 << 10, MaxStreams: -4}}, false},
		{"streams negative send buffer", Config{Mode: ModeTACK,
			Streams: &stream.Config{RecvWindow: 64 << 10, MaxStreams: 16, SendBuffer: -1}}, false},
		{"streams unknown scheduler", Config{Mode: ModeTACK,
			Streams: &stream.Config{RecvWindow: 64 << 10, MaxStreams: 16, Scheduler: "fifo"}}, false},
		{"loss rack default", Config{Detector: DetectorRACK}, true},
		{"loss dupthresh", Config{Detector: DetectorDupThresh}, true},
		{"loss unknown detector", Config{Detector: LossDetector(7)}, false},
		{"loss dupthresh legacy mode", Config{Mode: ModeLegacy, Detector: DetectorDupThresh}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate() = nil, want error")
			}
		})
	}
}

// TestNewSenderRejectsInvalidConfig checks that the constructor surfaces
// Validate failures instead of silently defaulting.
func TestNewSenderRejectsInvalidConfig(t *testing.T) {
	loop := sim.NewLoop(1)
	_, err := NewSender(loop, Config{CC: "no-such-cc"}, func(*packet.Packet) {})
	if err == nil {
		t.Fatal("NewSender accepted an unknown congestion controller")
	}
}
