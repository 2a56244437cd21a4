package telemetry

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expositionLine matches one valid Prometheus text-format line: a HELP/
// TYPE comment or a sample with an optional single le label.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9.eE+-]+(e[+-][0-9]+)?)$`)

func buildTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("ep.rx_packets").Add(42)
	reg.Counter("snd.data_packets").Add(7)
	reg.Gauge("ep.conns").Set(3.5)
	h := reg.Histogram("snd.rtt_s")
	for _, v := range []float64{0.001, 0.002, 0.004, 0.05, 1.5} {
		h.Observe(v)
	}
	return reg
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := buildTestRegistry()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE tack_ep_rx_packets counter\ntack_ep_rx_packets 42\n",
		"# TYPE tack_ep_conns gauge\ntack_ep_conns 3.5\n",
		"# TYPE tack_snd_rtt_s histogram\n",
		`tack_snd_rtt_s_bucket{le="+Inf"} 5`,
		"tack_snd_rtt_s_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// Quantiles are the scraper's to derive from the buckets.
	for _, gone := range []string{"_p50", "_p95", "_p99"} {
		if strings.Contains(out, gone) {
			t.Errorf("output carries a %s quantile gauge\n%s", gone, out)
		}
	}
}

func TestWritePrometheusHistogramCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("x")
	h.Observe(0.001) // le="0.001" bucket (bounds include 1e-3)
	h.Observe(0.5)
	h.Observe(2)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	// Bucket counts must be cumulative and monotonically non-decreasing.
	re := regexp.MustCompile(`tack_x_bucket\{le="([^"]+)"\} (\d+)`)
	last := int64(-1)
	matches := re.FindAllStringSubmatch(buf.String(), -1)
	if len(matches) < 2 {
		t.Fatalf("no bucket lines in output:\n%s", buf.String())
	}
	for _, m := range matches {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n < last {
			t.Fatalf("bucket le=%s count %d < previous %d (not cumulative)", m[1], n, last)
		}
		last = n
	}
	if last != 3 {
		t.Fatalf("final bucket count = %d, want 3", last)
	}
}

func TestWritePrometheusNilSafe(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q", buf.String())
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"ep.rx_packets":             "tack_ep_rx_packets",
		"ep.anomaly.stall":          "tack_ep_anomaly_stall",
		"weird-name@2":              "tack_weird_name_2",
		"ep.batch.read_size":        "tack_ep_batch_read_size",
		"telemetry.dropped_events":  "tack_telemetry_dropped_events",
		"already_clean:with_colons": "tack_already_clean:with_colons",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestExportDeterministic locks the exporters to one stable order —
// counters, gauges, histograms, each sorted by name — whatever the
// creation order: two registries built in different orders export
// byte-equal Prometheus text and snapshot JSON.
func TestExportDeterministic(t *testing.T) {
	export := func(order []string) (prom, snap []byte) {
		reg := NewRegistry()
		for _, n := range order {
			switch n[0] {
			case 'c':
				reg.Counter(n).Inc()
			case 'g':
				reg.Gauge(n).Set(1)
			default:
				reg.Histogram(n).Observe(1)
			}
		}
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, reg); err != nil {
			t.Fatal(err)
		}
		snap, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), snap
	}
	promA, snapA := export([]string{"c.b", "g.x", "h.z", "c.a", "g.y"})
	promB, snapB := export([]string{"g.y", "c.a", "c.b", "h.z", "g.x"})
	if !bytes.Equal(promA, promB) {
		t.Fatalf("Prometheus output depends on creation order:\n%s\nvs\n%s", promA, promB)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Fatalf("snapshot JSON depends on creation order:\n%s\nvs\n%s", snapA, snapB)
	}
	var types []string
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllSubmatch(promA, -1) {
		types = append(types, string(m[1]))
	}
	want := []string{"tack_c_a", "tack_c_b", "tack_g_x", "tack_g_y", "tack_h_z"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("export order = %v, want %v", types, want)
	}
}

// TestSnapshotDeterministic pins Snapshot to the same stable ordering
// and the values each kind exports.
func TestSnapshotDeterministic(t *testing.T) {
	reg := buildTestRegistry()
	a, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
	s := reg.Snapshot()
	if s.Counters["ep.rx_packets"] != 42 || s.Gauges["ep.conns"] != 3.5 || s.Histograms["snd.rtt_s"].Count != 5 {
		t.Fatalf("snapshot values: %+v", s)
	}
}
