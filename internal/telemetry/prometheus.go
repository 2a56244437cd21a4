package telemetry

import (
	"io"
	"strconv"
)

// WritePrometheus renders every instrument in r in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as real Prometheus histograms built from the
// fixed bucketBounds (cumulative `le` buckets, `_sum`, `_count`); a
// scraper derives quantiles from the buckets. Metric names are the
// registry names prefixed with "tack_" and sanitized (every character
// outside [a-zA-Z0-9_:] becomes '_'), so e.g. "ep.rx_packets" exports
// as tack_ep_rx_packets. Output order follows Registry.each, so scrapes
// are deterministic for a fixed instrument set. Nil-safe.
func WritePrometheus(w io.Writer, r *Registry) error {
	var err error
	buf := make([]byte, 0, 256)
	flush := func() {
		if err == nil && len(buf) > 0 {
			_, err = w.Write(buf)
		}
		buf = buf[:0]
	}
	r.each(func(name string, kind metricKind, c *Counter, g *Gauge, h *Histogram) {
		if err != nil {
			return
		}
		pn := promName(name)
		switch kind {
		case metricCounter:
			buf = append(buf, "# TYPE "...)
			buf = append(buf, pn...)
			buf = append(buf, " counter\n"...)
			buf = append(buf, pn...)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, c.Value(), 10)
			buf = append(buf, '\n')
		case metricGauge:
			buf = append(buf, "# TYPE "...)
			buf = append(buf, pn...)
			buf = append(buf, " gauge\n"...)
			buf = append(buf, pn...)
			buf = append(buf, ' ')
			buf = appendPromFloat(buf, g.Value())
			buf = append(buf, '\n')
		case metricHistogram:
			buf = append(buf, "# TYPE "...)
			buf = append(buf, pn...)
			buf = append(buf, " histogram\n"...)
			count, sum := h.VisitBuckets(func(le float64, cum uint64) {
				buf = append(buf, pn...)
				buf = append(buf, `_bucket{le="`...)
				buf = appendPromFloat(buf, le)
				buf = append(buf, `"} `...)
				buf = strconv.AppendUint(buf, cum, 10)
				buf = append(buf, '\n')
			})
			buf = append(buf, pn...)
			buf = append(buf, `_bucket{le="+Inf"} `...)
			buf = strconv.AppendInt(buf, int64(count), 10)
			buf = append(buf, '\n')
			buf = append(buf, pn...)
			buf = append(buf, "_sum "...)
			buf = appendPromFloat(buf, sum)
			buf = append(buf, '\n')
			buf = append(buf, pn...)
			buf = append(buf, "_count "...)
			buf = strconv.AppendInt(buf, int64(count), 10)
			buf = append(buf, '\n')
		}
		flush()
	})
	flush()
	return err
}

// promName converts a registry metric name ("ep.batch.read_size") into
// a valid Prometheus metric name ("tack_ep_batch_read_size").
func promName(name string) string {
	out := make([]byte, 0, len(name)+5)
	out = append(out, "tack_"...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == ':':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// appendPromFloat renders a float sample value; integral values render
// without an exponent or trailing zeros, matching common exporters.
func appendPromFloat(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
