package experiments

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The paper's verdicts as assertions (EXPERIMENTS.md "Verdict summary").
// The goldens pin a table's bytes; these pin its meaning, so a change that
// moves a table on purpose (and regenerates the golden) still fails here if
// it flips a row. Each failure names the row and the cause the summary
// gives for it. Like the goldens they skip under -short: the simulations
// are single-goroutine, so the race job gains nothing from them.

// cellSep splits a rendered table row into cells: stats.Table pads columns
// and joins them with two spaces, and no cell holds two spaces in a row.
var cellSep = regexp.MustCompile(`\s{2,}`)

// table is one experiment's first table, as rows of cells keyed by header.
type table []map[string]string

// runTable runs experiment id and parses its first table.
func runTable(t *testing.T, id string, opt Options) table {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Run(id, opt)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	lines := strings.Split(r.Table, "\n")
	header := cellSep.Split(strings.TrimSpace(lines[0]), -1)
	var rows table
	for _, l := range lines[2:] { // lines[1] is the rule
		if strings.TrimSpace(l) == "" {
			break
		}
		cells := cellSep.Split(strings.TrimSpace(l), -1)
		if len(cells) != len(header) {
			t.Fatalf("%s: row %q has %d cells, header %d", id, l, len(cells), len(header))
		}
		row := map[string]string{}
		for i, h := range header {
			row[h] = cells[i]
		}
		rows = append(rows, row)
	}
	return rows
}

// row returns the row whose column col reads key.
func (tb table) row(t *testing.T, col, key string) map[string]string {
	t.Helper()
	for _, r := range tb {
		if r[col] == key {
			return r
		}
	}
	t.Fatalf("no row with %s = %q", col, key)
	return nil
}

// num parses a cell: a plain number, a percentage (in percent), or a
// duration (in seconds).
func num(t *testing.T, cell string) float64 {
	t.Helper()
	if strings.HasSuffix(cell, "s") {
		d, err := time.ParseDuration(cell)
		if err != nil {
			t.Fatalf("cell %q: %v", cell, err)
		}
		return d.Seconds()
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func quickAt(seed int64) Options { return Options{Quick: true, Seed: seed} }

// fig5bSeeds and fig5bTolerance: the quick fig5b run is one seed and
// mostly startup, so the verdict is taken on the mean over eight seeds.
// The tolerance is twice the standard error of that mean as measured when
// this test was written: rich − poor had a per-seed standard deviation of
// 2.05 points at 0.2 % ACK loss and 4.72 at 10 % over seeds 1–16 (means
// −0.57 and −1.32: in quick mode the two arms are indistinguishable, and
// rich must not fall behind).
const fig5bSeeds = 8

var fig5bTolerance = map[string]float64{"0.2%": 1.5, "10.0%": 3.4}

// TestVerdictFig5bRichHoldsUnderAckLoss: TACK-rich utilization is at least
// TACK-poor's and legacy BBR's at every ACK-path loss rate.
func TestVerdictFig5bRichHoldsUnderAckLoss(t *testing.T) {
	sum := map[string]map[string]float64{}
	for seed := int64(1); seed <= fig5bSeeds; seed++ {
		for _, r := range runTable(t, "fig5b", quickAt(seed)) {
			if sum[r["ACK loss"]] == nil {
				sum[r["ACK loss"]] = map[string]float64{}
			}
			for _, arm := range []string{"TACK-rich", "TACK-poor", "TCP BBR"} {
				sum[r["ACK loss"]][arm] += num(t, r[arm]) / fig5bSeeds
			}
		}
	}
	for loss, tol := range fig5bTolerance {
		m := sum[loss]
		t.Logf("ACK loss %s, mean of %d seeds: rich %.2f%% poor %.2f%% bbr %.2f%%",
			loss, fig5bSeeds, m["TACK-rich"], m["TACK-poor"], m["TCP BBR"])
		for _, other := range []string{"TACK-poor", "TCP BBR"} {
			if m["TACK-rich"] < m[other]-tol {
				t.Errorf("fig5b at %s ACK loss: TACK-rich %.2f%% below %s %.2f%% by more than %.1f points "+
					"(rich TACKs repeat every reported loss, so ACK loss should cost them least)",
					loss, m["TACK-rich"], other, m[other], tol)
			}
		}
	}
}

// TestVerdictFig6bAdvancedTimingLowersOWD: the advanced (Δt-corrected)
// estimator's flow queues less than the sampling one's. Full mode: the
// quick run ends inside startup, where the two arms trade places by seed.
func TestVerdictFig6bAdvancedTimingLowersOWD(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tb := runTable(t, "fig6b", Options{Seed: seed})
		before := num(t, tb.row(t, "Timing", "sampling (before)")["95th pct OWD"])
		after := num(t, tb.row(t, "Timing", "advanced (after)")["95th pct OWD"])
		t.Logf("seed %d: OWD95 sampling %.1f ms, advanced %.1f ms (−%.0f%%)", seed, before*1e3, after*1e3, (1-after/before)*100)
		if after >= before {
			t.Errorf("fig6b seed %d: advanced OWD95 %.1f ms not below sampling %.1f ms "+
				"(partial row: our BBR leans on RTTmin less than the paper's, so the gap is ~7-20 %%, not gone)",
				seed, after*1e3, before*1e3)
		}
	}
}

// fig13Wins asserts TACK's goodput beats legacy BBR's in the given cases.
func fig13Wins(t *testing.T, tb table, cases ...string) {
	t.Helper()
	for _, c := range cases {
		r := tb.row(t, "Case", c)
		tack, bbr := num(t, r["TACK Mbit/s"]), num(t, r["BBR Mbit/s"])
		if tack <= bbr {
			t.Errorf("fig13 case %s: TACK %.2f Mbit/s does not beat BBR %.2f "+
				"(fewer ACKs should mean less WLAN contention and more goodput)", c, tack, bbr)
		}
	}
}

// TestVerdictFig13QuickCasesWin: in the 802.11g cases TACK wins goodput.
func TestVerdictFig13QuickCasesWin(t *testing.T) {
	fig13Wins(t, runTable(t, "fig13", quickAt(1)), "1", "2")
}

// TestVerdictFig13Full (full mode, where cases 3–4 exist): TACK wins cases
// 1–3; case 4 is pinned at the partial verdict it has; the ACK count tracks
// Eq. 3 across RTT.
func TestVerdictFig13Full(t *testing.T) {
	tb := runTable(t, "fig13", Options{})
	fig13Wins(t, tb, "1", "2", "3")
	c4 := tb.row(t, "Case", "4")
	if r := num(t, c4["TACK Mbit/s"]) / num(t, c4["BBR Mbit/s"]); r < 0.9 {
		t.Errorf("fig13 case 4: TACK at %.2f× BBR's goodput, below the pinned 0.9× (0.93× when pinned) "+
			"(known gap: receiver-coordinated BBR discovers bandwidth slowly under 1 %% loss at 200 ms)", r)
	}
	ratio := num(t, tb.row(t, "Case", "1")["TACK ACK#"]) / num(t, tb.row(t, "Case", "3")["TACK ACK#"])
	if ratio < 6.5 {
		t.Errorf("fig13: case1/case3 TACK ACK ratio %.1f×, want ≥ 6.5× (7.0× when pinned; Eq. 3's β/RTTmin gives ~10× from 20 to 200 ms)", ratio)
	}
}

// TestVerdictFig14TackTopTier: TACK ranks in the top two of seven.
func TestVerdictFig14TackTopTier(t *testing.T) {
	tb := runTable(t, "fig14", quickAt(1))
	rank := num(t, tb.row(t, "Scheme", "tcp-tack")["Rank"])
	if rank > 2 {
		t.Errorf("fig14: TCP-TACK ranked #%.0f of %d, want top tier (#1 or #2) under the power metric", rank, len(tb))
	}
}

// TestVerdictFig15FriendlinessNotAboveBBR: against CUBIC, TACK's BBR takes
// no more than legacy BBR does. Quick mode only: at full length the row is
// partial (TACK 1.56 vs BBR 1.46 when this test was written: its faster
// loss recovery wins share).
func TestVerdictFig15FriendlinessNotAboveBBR(t *testing.T) {
	tb := runTable(t, "fig15", quickAt(1))
	bbr := num(t, tb.row(t, "Pairing", "BBR vs CUBIC")["A ratio"])
	tack := num(t, tb.row(t, "Pairing", "TACK vs CUBIC")["A ratio"])
	if tack > bbr {
		t.Errorf("fig15: TACK's share against CUBIC %.2f is above legacy BBR's %.2f "+
			"(the ACK mechanism should not make the controller more aggressive)", tack, bbr)
	}
}

// TestVerdictFig9bTackNearUDP: TACK's ideal goodput is within 2 % of the
// UDP baseline.
func TestVerdictFig9bTackNearUDP(t *testing.T) {
	tb := runTable(t, "fig9b", quickAt(1))
	tack := num(t, tb.row(t, "Scheme", "TACK (L=2)")["Ideal goodput Mbit/s"])
	udp := num(t, tb.row(t, "Scheme", "UDP Baseline")["Ideal goodput Mbit/s"])
	if tack < 0.98*udp {
		t.Errorf("fig9b: TACK %.2f Mbit/s more than 2%% below the UDP baseline %.2f "+
			"(Eq. 3 leaves so few ACKs that the data path should see almost no contention)", tack, udp)
	}
}

// TestVerdictGainMonotoneInPHYRate: fig1's ACK reduction and goodput gain,
// and fig10a's gain, grow with the 802.11 PHY rate.
func TestVerdictGainMonotoneInPHYRate(t *testing.T) {
	for _, c := range []struct{ id, col string }{
		{"fig1", "ACKs reduced"}, {"fig1", "Goodput improved"}, {"fig10a", "Gain"},
	} {
		prev := -1e9
		for _, r := range runTable(t, c.id, quickAt(1)) {
			v := num(t, r[c.col])
			if v <= prev {
				t.Errorf("%s %q: %s reads %.1f, not above the slower standard's %.1f "+
					"(a faster PHY pays more airtime per ACK, so thinning should gain more)", c.id, c.col, r["Link"], v, prev)
			}
			prev = v
		}
	}
}

// TestVerdictExtReorderFreeWithinSettle: reordering inside the settle delay
// costs no retransmission, fixed or adaptive.
func TestVerdictExtReorderFreeWithinSettle(t *testing.T) {
	tb := runTable(t, "ext-reorder", quickAt(1))
	for _, d := range []string{"2ms", "8ms"} {
		r := tb.row(t, "Reorder delay", d)
		for _, col := range []string{"fixed-settle retx", "adaptive retx"} {
			if n := num(t, r[col]); n != 0 {
				t.Errorf("ext-reorder at %s: %s = %.0f, want 0 (a gap that fills within RTTmin/4 is never reported lost)", d, col, n)
			}
		}
	}
}

// TestVerdictExtPacingPreventsBurstLoss: pacing loses less than ACK-clocked
// bursts and no more than it did when this test was written (8.4 %; the
// path has no random impairment, so the rate is the same on every seed).
func TestVerdictExtPacingPreventsBurstLoss(t *testing.T) {
	tb := runTable(t, "ext-pacing", quickAt(1))
	paced := num(t, tb.row(t, "Send pattern", "paced")["Retransmit rate"])
	burst := num(t, tb.row(t, "Send pattern", "ACK-clocked bursts")["Retransmit rate"])
	if paced >= burst || paced > 8.4 {
		t.Errorf("ext-pacing: paced retransmit rate %.1f%% (bursts %.1f%%), want below bursts and ≤ 8.4%% "+
			"(a window that overshoots the 128 kB queue shows up here first)", paced, burst)
	}
}

// TestVerdictExtWANNoDeeperOvershoot: on wan_bulk's path TACK retransmits
// no larger share of what it sends than when ext-wan was added (0.338 per
// DATA packet in quick mode): the guard that a window change does not
// deepen the overshoot ROADMAP item 5 is about.
func TestVerdictExtWANNoDeeperOvershoot(t *testing.T) {
	tb := runTable(t, "ext-wan", quickAt(1))
	if retx := num(t, tb.row(t, "Scheme", "TCP-TACK")["Retx/DATA"]); retx > 0.338 {
		t.Errorf("ext-wan: TACK retransmits %.3f per DATA packet, above 0.338 "+
			"(the controller offers more than the 100 Mbit/s link and its one-BDP queue take)", retx)
	}
}

// TestVerdictFig3GoodputFallsAsAcksThicken: data goodput falls at every
// step from 16:1 to 1:1 data:ACK, while the ACK path itself carries only a
// few Mbit/s.
func TestVerdictFig3GoodputFallsAsAcksThicken(t *testing.T) {
	prev := 1e9
	for _, r := range runTable(t, "fig3", quickAt(1)) {
		data, ack := num(t, r["Data Mbit/s"]), num(t, r["ACK Mbit/s"])
		if data >= prev {
			t.Errorf("fig3 at %s: data %.2f Mbit/s not below the thinner ratio's %.2f "+
				"(each ACK costs a medium acquisition, so thicker ACKs should cost goodput)", r["data:ACKs"], data, prev)
		}
		if ack > 10 {
			t.Errorf("fig3 at %s: ACK path %.2f Mbit/s, want a few (the decline is medium-acquisition overhead, not ACK bytes)", r["data:ACKs"], ack)
		}
		prev = data
	}
}

// TestVerdictFig5aIACKShiftsBlockedBytesLeft (full mode, seed 1): loss
// IACKs keep the median blocked bytes at least 10× below the IACK-less
// arm's (13× when pinned). Partial: the paper's gap is orders of
// magnitude, and so was ours (55 KB vs 37 MB) until the sender gained
// RACK-TLP, which finds a hole within about an RTT without the IACK.
func TestVerdictFig5aIACKShiftsBlockedBytesLeft(t *testing.T) {
	p50 := runTable(t, "fig5a", Options{Seed: 1}).row(t, "Percentile", "P50")
	with, without := num(t, p50["With IACK (bytes)"]), num(t, p50["Without IACK (bytes)"])
	if with*10 > without {
		t.Errorf("fig5a: median blocked bytes %.0f with IACK vs %.0f without, want ≥ 10× apart "+
			"(partial row: RACK-TLP repairs holes without the IACK, so the gap is one order of magnitude, not the paper's several)", with, without)
	}
}

// TestVerdictFig10bLegacyPlateausBelowTACK (full mode): TACK beats legacy
// TCP at every ACK-thinning factor by at least 10 % (17 % over the best,
// L = 16, when pinned). Partial: the paper's legacy TCP declines as ACKs
// thin; ours rises and plateaus below the ideal.
func TestVerdictFig10bLegacyPlateausBelowTACK(t *testing.T) {
	tb := runTable(t, "fig10b", Options{Seed: 1})
	tack := num(t, tb.row(t, "Scheme", "TACK (L=2)")["Actual goodput Mbit/s"])
	for _, r := range tb {
		if r["Scheme"] == "TACK (L=2)" {
			continue
		}
		if legacy := num(t, r["Actual goodput Mbit/s"]); tack < 1.1*legacy {
			t.Errorf("fig10b: TACK %.2f Mbit/s less than 10%% above %s's %.2f "+
				"(partial row: our legacy TCP plateaus ~15%% below its ideal as ACKs thin, where the paper's declines; TACK's lead is what reproduces)",
				tack, r["Scheme"], legacy)
		}
	}
}

// TestVerdictFig6aSamplingOverestimatesRTTmin: the sampled RTTmin sits
// above the advanced (Δt-corrected) one at every reading. Quick mode shows
// a 1.1 % bias; the paper's 8–18 % needs the full run's TACK delays.
func TestVerdictFig6aSamplingOverestimatesRTTmin(t *testing.T) {
	for _, r := range runTable(t, "fig6a", quickAt(1)) {
		if sampled, advanced := num(t, r["sampled RTTmin"]), num(t, r["advanced RTTmin"]); sampled <= advanced {
			t.Errorf("fig6a at %s: sampled RTTmin %.3f ms not above advanced %.3f ms "+
				"(a sample taken at a delayed TACK includes the delay; the echoed Δt removes it)", r["t"], sampled*1e3, advanced*1e3)
		}
	}
}

// TestVerdictFig9aImprovementGrowsWithPHYRate: TACK's absolute goodput gain
// over legacy BBR grows from 802.11b to 802.11ac.
func TestVerdictFig9aImprovementGrowsWithPHYRate(t *testing.T) {
	prev := -1e9
	for _, r := range runTable(t, "fig9a", quickAt(1)) {
		v := num(t, r["Improvement Mbit/s"])
		if v <= prev {
			t.Errorf("fig9a %s: improvement %.2f Mbit/s not above the slower standard's %.2f "+
				"(the airtime an ACK costs grows with the PHY rate)", r["Link"], v, prev)
		}
		prev = v
	}
}

// TestVerdictFig11TACKRebuffersLeast: only RTP+UDP macroblocks, and TACK
// rebuffers least of the reliable transports.
func TestVerdictFig11TACKRebuffersLeast(t *testing.T) {
	tb := runTable(t, "fig11", quickAt(1))
	mb, rebuf := tb.row(t, "Metric", "Macroblocking (times/30min)"), tb.row(t, "Metric", "Rebuffering (%)")
	if num(t, mb["RTP+UDP"]) == 0 {
		t.Error("fig11: RTP+UDP never macroblocks (an unreliable transport should lose frames)")
	}
	tack := num(t, rebuf["TCP-TACK"])
	for _, s := range []string{"TCP CUBIC", "TCP BBR", "TCP-TACK"} {
		if num(t, mb[s]) != 0 {
			t.Errorf("fig11: %s macroblocks %s times, want 0 (a reliable transport repairs every frame)", s, mb[s])
		}
		if s != "TCP-TACK" && tack >= num(t, rebuf[s]) {
			t.Errorf("fig11: TACK rebuffers %.1f%%, not below %s's %s (fewer ACKs leave the WLAN more airtime for video)", tack, s, rebuf[s])
		}
	}
}

// TestVerdictExtSplitShortensClientLoop: splitting at the access point gives
// the client a sub-millisecond control loop and leaves data held at the
// proxy.
func TestVerdictExtSplitShortensClientLoop(t *testing.T) {
	split := runTable(t, "ext-split", quickAt(1)).row(t, "Deployment", "split at AP")
	if rtt := num(t, split["Client RTTmin"]); rtt >= 1e-3 {
		t.Errorf("ext-split: client RTTmin %.3f ms, want under 1 ms (the split loop spans only the WLAN hop)", rtt*1e3)
	}
	if num(t, split["Proxy backlog (bytes)"]) <= 0 {
		t.Error("ext-split: no proxy backlog (data the proxy acknowledged but the server has not is the split's cost)")
	}
}
