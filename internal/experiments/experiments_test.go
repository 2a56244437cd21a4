package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
)

// TestIDsCoverEveryPaperFigure pins the registry: every paper figure, the
// feature A/Bs and the extensions, in the one order IDs promises.
func TestIDsCoverEveryPaperFigure(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig5a", "fig5b", "fig6a", "fig6b", "fig8",
		"fig9a", "fig9b", "fig10a", "fig10b", "fig11", "fig13", "fig14",
		"fig15", "fig16", "fig17",
		"ab-fec", "ab-hol", "ab-rack",
		"ext-pacing", "ext-reorder", "ext-split",
	}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("IDs() = %v\nwant    %v", got, want)
	}
}

func TestUDPToolDeterministic(t *testing.T) {
	cfg := udpToolConfig{
		Std: phy.Std80211n, FrameSize: 1518, AckSize: 64,
		AckEveryL: 2, Dur: sim.Second, Seed: 5,
	}
	a := runUDPTool(cfg)
	b := runUDPTool(cfg)
	if a != b {
		t.Fatalf("udp tool not deterministic: %+v vs %+v", a, b)
	}
	if a.DataFrames == 0 || a.AckFrames == 0 {
		t.Fatalf("no traffic: %+v", a)
	}
}

func TestUDPToolSaturatedExceedsCBR(t *testing.T) {
	base := udpToolConfig{Std: phy.Std80211n, FrameSize: 1518, AckSize: 64, Dur: sim.Second, Seed: 5}
	cbr := base
	cbr.SendBps = 50e6
	sat := base // SendBps 0 saturates
	rCBR := runUDPTool(cbr)
	rSat := runUDPTool(sat)
	if rCBR.DataBps < 45e6 || rCBR.DataBps > 52e6 {
		t.Fatalf("CBR achieved %.1f Mbit/s, want ~50", rCBR.DataBps/1e6)
	}
	if rSat.DataBps < 3*rCBR.DataBps {
		t.Fatalf("saturated (%.1f) should far exceed 50 Mbit/s CBR", rSat.DataBps/1e6)
	}
}

func TestUDPToolPeriodicAckMode(t *testing.T) {
	cfg := udpToolConfig{
		Std: phy.Std80211n, FrameSize: 1518, AckSize: 64,
		AckPeriod: 20 * sim.Millisecond, Dur: sim.Second, Seed: 5,
	}
	r := runUDPTool(cfg)
	// ~50 acks expected from the periodic generator.
	if r.AckFrames < 40 || r.AckFrames > 60 {
		t.Fatalf("periodic acks = %d, want ~50", r.AckFrames)
	}
}

func TestOptionsScaling(t *testing.T) {
	q := Options{Quick: true}
	if q.dur(8*sim.Second) != 2*sim.Second {
		t.Fatalf("quick dur = %v", q.dur(8*sim.Second))
	}
	if q.count(12) != 3 {
		t.Fatalf("quick count = %d", q.count(12))
	}
	if q.count(2) != 1 {
		t.Fatal("quick count must floor at 1")
	}
	full := Options{}
	if full.dur(8*sim.Second) != 8*sim.Second || full.count(12) != 12 {
		t.Fatal("full options must not scale")
	}
	if (Options{}).seed() != 1 || (Options{Seed: 9}).seed() != 9 {
		t.Fatal("seed defaulting broken")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{ID: "x", Title: "T", Table: "body\n", Notes: "n"}
	out := r.String()
	for _, frag := range []string{"== x: T ==", "body", "n"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("missing %q in %q", frag, out)
		}
	}
}
