package experiments

import (
	"testing"

	"github.com/tacktp/tack/internal/sim"
)

func TestSourceAverageBitrate(t *testing.T) {
	s := newVideoSource(16e6) // 16 Mbit/s UHD stream
	total := 0
	for i := 0; i < 600; i++ { // 10 seconds at 60 fps
		total += s.NextFrameBytes()
	}
	gotBps := float64(total) * 8 / 10
	if gotBps < 15e6 || gotBps > 17e6 {
		t.Fatalf("average bit rate %.1f Mbit/s, want ~16", gotBps/1e6)
	}
}

func TestSourceIFramePeaks(t *testing.T) {
	s := newVideoSource(16e6)
	first := s.NextFrameBytes() // I-frame
	second := s.NextFrameBytes()
	if first <= second {
		t.Fatalf("I-frame (%d) should exceed P-frame (%d)", first, second)
	}
}

func TestPlayoutSmoothSession(t *testing.T) {
	p := newVideoPlayout(60, 3)
	dur := 10 * sim.Second
	frame := sim.Second / 60
	// Frames arrive on time.
	for at := sim.Time(0); at < dur; at += frame {
		p.OnFrame(at, false)
		p.Tick(at)
	}
	p.Finish(dur)
	if p.Stalls != 0 {
		t.Fatalf("smooth session stalled %d times", p.Stalls)
	}
	if ratio := p.RebufferRatio(dur); ratio > 0.02 {
		t.Fatalf("rebuffer ratio %.3f on a smooth session", ratio)
	}
	if p.Played < 500 {
		t.Fatalf("played only %d frames", p.Played)
	}
}

func TestPlayoutStallsOnStarvation(t *testing.T) {
	p := newVideoPlayout(60, 3)
	frame := sim.Second / 60
	// 2 seconds of frames, then a 3-second gap, then more frames.
	at := sim.Time(0)
	for ; at < 2*sim.Second; at += frame {
		p.OnFrame(at, false)
		p.Tick(at)
	}
	at += 3 * sim.Second
	for ; at < 7*sim.Second; at += frame {
		p.OnFrame(at, false)
		p.Tick(at)
	}
	p.Finish(at)
	if p.Stalls == 0 {
		t.Fatal("starved playout did not stall")
	}
	ratio := p.RebufferRatio(at)
	if ratio < 0.2 || ratio > 0.7 {
		t.Fatalf("rebuffer ratio %.2f, want ~3s/7s", ratio)
	}
}

func TestMacroblockAccounting(t *testing.T) {
	p := newVideoPlayout(60, 3)
	frame := sim.Second / 60
	at := sim.Time(0)
	for i := 0; i < 600; i++ {
		p.OnFrame(at, i%100 == 0) // 6 corrupted frames
		p.Tick(at)
		at += frame
	}
	p.Finish(at)
	if p.Macroblocked != 6 {
		t.Fatalf("macroblocked = %d, want 6", p.Macroblocked)
	}
	// 6 events in 10 s → 1080 per 30 min.
	per30 := p.MacroblockPer30Min(at)
	if per30 < 1000 || per30 > 1200 {
		t.Fatalf("per-30min = %.0f, want ~1080", per30)
	}
}

func TestRebufferRatioBeforeStart(t *testing.T) {
	p := newVideoPlayout(60, 3)
	if p.RebufferRatio(sim.Second) != 0 {
		t.Fatal("unstarted playout should report 0")
	}
}
