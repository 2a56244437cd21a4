package experiments

import (
	"fmt"

	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
)

func init() {
	register("fig8", runFig8)
	register("fig16", runFig16)
	register("fig17", runFig17)
}

// stdGoodput maps each standard to its UDP-baseline goodput (paper Fig. 7),
// the bw operating point of the Figure 8 frequency analysis.
var stdGoodput = map[phy.Standard]float64{
	phy.Std80211b:  7e6,
	phy.Std80211g:  26e6,
	phy.Std80211n:  210e6,
	phy.Std80211ac: 590e6,
}

// runFig8 reproduces Figure 8: the ACK-frequency reduction Δf = f_tcp −
// f_tack across standards and RTTs (a), and the absolute frequency table
// comparing TCP(L=2) with TACK(L=2) (b).
func runFig8(opt Options) (*Result, error) {
	rtts := []sim.Time{10 * sim.Millisecond, 80 * sim.Millisecond, 200 * sim.Millisecond}
	tbl := stats.NewTable("Link", "RTTmin", "f_tcp(L=2) Hz", "f_tack Hz", "reduced Hz", "reduced %")
	for _, std := range phy.All() {
		bw := stdGoodput[std]
		for _, rtt := range rtts {
			ftcp := freqByteCount(bw, 2)
			ftack := freqTACK(bw, 2, 4, rtt)
			tbl.AddRow(std.String(), rtt.String(),
				fmt.Sprintf("%.0f", ftcp), fmt.Sprintf("%.0f", ftack),
				fmt.Sprintf("%.0f", ftcp-ftack), stats.Pct(1-ftack/ftcp))
		}
	}
	notes := "Paper Figure 8(b) anchors: 802.11b@10ms ≈ 294 Hz for both (byte-counting regime); 802.11ac: TACK 400 Hz at 10 ms vs TCP ≈ 24.8 kHz, dropping to 50 Hz at 80 ms — two to three orders of magnitude."
	return &Result{ID: "fig8", Title: "ACK frequency reduction over 802.11 links (analytic, Eq. 3–5)", Table: tbl.String(), Notes: notes}, nil
}

// runFig16 reproduces the Appendix B.1 analysis behind Figure 16: the
// minimum send window and ideal buffer requirement as β varies, showing
// why β = 1 degenerates and β = 4 is the robust default.
func runFig16(opt Options) (*Result, error) {
	bdp := 1e6 // 1 MB reference bdp
	tbl := stats.NewTable("beta", "W_min / bdp", "buffer / bdp", "note")
	for _, beta := range []int{2, 3, 4, 6, 8} {
		w := minSendWindow(bdp, beta) / bdp
		b := bufferRequirement(bdp, beta) / bdp
		note := ""
		if beta == 2 {
			note = "minimum viable (Appendix B.1)"
		}
		if beta == 4 {
			note = "paper default (robustness headroom)"
		}
		tbl.AddRow(fmt.Sprintf("%d", beta), fmt.Sprintf("%.2f", w), fmt.Sprintf("%.2f", b), note)
	}
	notes := "β=1 is stop-and-wait (utilization collapses; MinSendWindow panics by design). Doubling β=2→4 cuts the ideal buffer need from 1.00 to 0.33 bdp (§7)."
	return &Result{ID: "fig16", Title: "Lower bound of beta: send window and buffer requirement (Appendix B)", Table: tbl.String(), Notes: notes}, nil
}

// runFig17 reproduces Figure 17: ACK frequency as a function of bandwidth
// (a) and of RTTmin (b), with the analytic pivot points where TACK switches
// between the byte-counting and periodic regimes.
func runFig17(opt Options) (*Result, error) {
	tblA := stats.NewTable("bw Mbit/s", "f_tcp(L=1) Hz", "f_tack@10ms", "f_tack@80ms", "f_tack@200ms")
	for _, bwM := range []float64{1, 2, 5, 10, 50, 100, 500, 1000, 3000} {
		bw := bwM * 1e6
		tblA.AddRow(fmt.Sprintf("%.0f", bwM),
			fmt.Sprintf("%.0f", freqPerPacket(bw)),
			fmt.Sprintf("%.0f", freqTACK(bw, 1, 4, 10*sim.Millisecond)),
			fmt.Sprintf("%.0f", freqTACK(bw, 1, 4, 80*sim.Millisecond)),
			fmt.Sprintf("%.0f", freqTACK(bw, 1, 4, 200*sim.Millisecond)))
	}
	tblB := stats.NewTable("RTTmin ms", "f_tack@0.1Mbps", "f_tack@100Mbps", "f_tack@1000Mbps")
	for _, rttMs := range []int64{1, 5, 10, 20, 40, 80, 100} {
		rtt := sim.Time(rttMs) * sim.Millisecond
		tblB.AddRow(fmt.Sprintf("%d", rttMs),
			fmt.Sprintf("%.1f", freqTACK(0.1e6, 1, 4, rtt)),
			fmt.Sprintf("%.0f", freqTACK(100e6, 1, 4, rtt)),
			fmt.Sprintf("%.0f", freqTACK(1000e6, 1, 4, rtt)))
	}
	pivot10 := pivotBandwidth(4, 1, 10*sim.Millisecond) / 1e6
	pivot100M := pivotRTT(4, 1, 100e6)
	notes := fmt.Sprintf("Pivot points: at RTTmin=10 ms the regimes cross at %.1f Mbit/s; at 100 Mbit/s they cross at %v. Above the pivot TACK is periodic (flat in bw), below it byte-counting (flat in RTT).",
		pivot10, pivot100M)
	return &Result{
		ID: "fig17", Title: "ACK frequency dynamics vs bandwidth and RTTmin (Appendix B.4)",
		Table: tblA.String() + "\n" + tblB.String(), Notes: notes,
	}, nil
}
