package experiments

// The Miracast-style screen-projection workload of the paper's §6.4
// deployment study (fig11, ab-fec): a constant-frame-rate encoder feeding a
// transport, and a playout model charging rebuffering (reliable transports
// that fall behind) and macroblocking artifacts (unreliable transports that
// lose frame fragments).
//
// The metrics mirror Figure 11: rebuffering ratio (fraction of wall-clock
// time the playout buffer is empty) and macroblocking events per 30 minutes
// (frames rendered with missing fragments).

import "github.com/tacktp/tack/internal/sim"

// videoSource generates encoded video frames at a constant frame rate and
// average bit rate with a configurable peak factor (I-frames).
type videoSource struct {
	FPS        int
	AvgBitrate float64 // bits/s
	// PeakFactor scales every GOPSize-th frame (I-frame); the paper notes
	// UHD video needs ~2x peak over average.
	PeakFactor float64
	GOPSize    int

	frame int
}

// newVideoSource returns a 60 fps source at the given average bit rate with 2x
// I-frames every 30 frames (a typical Miracast configuration).
func newVideoSource(avgBitrate float64) *videoSource {
	return &videoSource{FPS: 60, AvgBitrate: avgBitrate, PeakFactor: 2, GOPSize: 30}
}

// Interval returns the frame period.
func (s *videoSource) Interval() sim.Time { return sim.Second / sim.Time(s.FPS) }

// NextFrameBytes returns the size of the next frame in bytes.
func (s *videoSource) NextFrameBytes() int {
	base := s.AvgBitrate / float64(s.FPS) / 8
	s.frame++
	gop := s.GOPSize
	if gop <= 0 {
		gop = 30
	}
	if s.frame%gop == 1 && s.PeakFactor > 1 {
		// Redistribute: I-frame takes PeakFactor×, P-frames shrink so the
		// average holds.
		return int(base * s.PeakFactor)
	}
	shrink := (float64(gop) - s.PeakFactor) / float64(gop-1)
	return int(base * shrink)
}

// videoPlayout consumes frames at the source frame rate and accounts stalls and
// artifacts.
type videoPlayout struct {
	fps        int
	frameDur   sim.Time
	buffered   int // frames ready to render
	target     int // startup/rebuffer threshold in frames
	buffering  bool
	bufferFrom sim.Time

	// Metrics.
	Played       int
	Macroblocked int
	Stalls       int
	StallTime    sim.Time
	started      bool
	startAt      sim.Time
	lastTick     sim.Time
}

// newVideoPlayout returns a playout buffer targeting the given startup depth in
// frames (e.g. 5 frames ≈ 83 ms at 60 fps).
func newVideoPlayout(fps, targetFrames int) *videoPlayout {
	if targetFrames < 1 {
		targetFrames = 1
	}
	return &videoPlayout{fps: fps, frameDur: sim.Second / sim.Time(fps), target: targetFrames, buffering: true}
}

// OnFrame delivers a decoded frame at time now; corrupted marks a frame
// rendered with missing data (macroblocking) rather than discarded.
func (p *videoPlayout) OnFrame(now sim.Time, corrupted bool) {
	if !p.started {
		p.started = true
		p.startAt = now
		p.bufferFrom = now
		p.lastTick = now
	}
	if corrupted {
		p.Macroblocked++
	}
	p.buffered++
	if p.buffering && p.buffered >= p.target {
		p.buffering = false
		p.StallTime += now - p.bufferFrom
	}
}

// Tick advances playout to time now, consuming frames at the frame rate.
// Call at frame-interval granularity or coarser.
func (p *videoPlayout) Tick(now sim.Time) {
	if !p.started {
		return
	}
	for p.lastTick+p.frameDur <= now {
		p.lastTick += p.frameDur
		if p.buffering {
			continue
		}
		if p.buffered == 0 {
			p.buffering = true
			p.bufferFrom = p.lastTick
			p.Stalls++
			continue
		}
		p.buffered--
		p.Played++
	}
}

// Finish closes accounting at time now.
func (p *videoPlayout) Finish(now sim.Time) {
	p.Tick(now)
	if p.buffering && p.started {
		p.StallTime += now - p.bufferFrom
	}
}

// RebufferRatio returns stalled time over total session time.
func (p *videoPlayout) RebufferRatio(now sim.Time) float64 {
	if !p.started || now <= p.startAt {
		return 0
	}
	total := now - p.startAt
	r := float64(p.StallTime) / float64(total)
	if r > 1 {
		r = 1
	}
	return r
}

// MacroblockPer30Min scales the artifact count to the paper's
// times-per-30-minutes unit.
func (p *videoPlayout) MacroblockPer30Min(sessionDur sim.Time) float64 {
	if sessionDur <= 0 {
		return 0
	}
	return float64(p.Macroblocked) * (30 * 60) / sessionDur.Seconds()
}
