package experiments

import (
	"testing"

	"github.com/tacktp/tack/internal/sim"
)

func TestSampleScenariosDeterministic(t *testing.T) {
	a := samplePantheon(5, 42, sim.Second)
	b := samplePantheon(5, 42, sim.Second)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scenario sampling not deterministic: %+v vs %+v", a[i], b[i])
		}
	}
	for _, sc := range a {
		if sc.RateBps < 5e6 || sc.RateBps > 200e6 {
			t.Fatalf("rate out of range: %v", sc.RateBps)
		}
		if sc.OWD < 2*sim.Millisecond || sc.OWD > 122*sim.Millisecond {
			t.Fatalf("owd out of range: %v", sc.OWD)
		}
		if sc.Loss < 0 || sc.Loss > 0.01 {
			t.Fatalf("loss out of range: %v", sc.Loss)
		}
	}
}

func TestDefaultSchemesIncludeTACKAndBaselines(t *testing.T) {
	names := map[string]bool{}
	for _, s := range pantheonSchemes() {
		names[s.Name] = true
	}
	for _, want := range []string{"tcp-tack", "tcp-bbr", "tcp-cubic", "tcp-vegas"} {
		if !names[want] {
			t.Fatalf("scheme %q missing", want)
		}
	}
}

func TestRunSchemeProducesTraffic(t *testing.T) {
	sc := pantheonScenario{RateBps: 50e6, OWD: 10 * sim.Millisecond, QueueBDP: 2, Dur: 2 * sim.Second, Seed: 1}
	res := runPantheon(sc, pantheonSchemes()[0]) // tcp-tack
	if !res.Completed || res.Goodput < 5e6 {
		t.Fatalf("tack run: %+v", res)
	}
	if res.OWD95 <= 0 {
		t.Fatalf("no OWD measured: %+v", res)
	}
}

func TestEvaluateRanksAllSchemes(t *testing.T) {
	scenarios := samplePantheon(2, 7, sim.Second)
	schemes := pantheonSchemes()[:3] // keep the smoke test fast
	rankings := rankPantheon(scenarios, schemes)
	if len(rankings) != 3 {
		t.Fatalf("%d rankings, want 3", len(rankings))
	}
	for _, r := range rankings {
		if r.Ranks.Count() != 2 {
			t.Fatalf("%s ranked in %d scenarios, want 2", r.Scheme, r.Ranks.Count())
		}
		if r.Mean < 1 || r.Mean > 3 {
			t.Fatalf("%s mean rank %v out of range", r.Scheme, r.Mean)
		}
	}
	// Rankings are sorted best-first.
	for i := 1; i < len(rankings); i++ {
		if rankings[i-1].Mean > rankings[i].Mean {
			t.Fatal("rankings not sorted")
		}
	}
}
