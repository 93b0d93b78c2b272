package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of a Snapshot — what
// the ops endpoint serves at /metrics, so any Prometheus-compatible
// scraper can collect the registry; sonic-top reads the JSON view. Names are sanitized into the
// prom grammar, label values are escaped, series within a family and
// families themselves are emitted in sorted order, histograms expose
// cumulative le buckets plus _sum/_count, and spans are exported as one
// summary family keyed by a span label.

// PromContentType is the Content-Type of the exposition.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// ParseMetricKey splits a registry key ("name" or "name{k=v,k=v}") back
// into its metric name and label pairs. Consumers like sonic-top use it
// to group snapshot series by family.
func ParseMetricKey(key string) (name string, labels [][2]string) {
	open := strings.IndexByte(key, '{')
	if open < 0 || !strings.HasSuffix(key, "}") {
		return key, nil
	}
	name = key[:open]
	body := key[open+1 : len(key)-1]
	for _, pair := range strings.Split(body, ",") {
		if eq := strings.IndexByte(pair, '='); eq >= 0 {
			labels = append(labels, [2]string{pair[:eq], pair[eq+1:]})
		}
	}
	return name, labels
}

// promName sanitizes a metric or label name into the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promValue renders a sample value (prom accepts +Inf/-Inf/NaN).
func promValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders {k="v",...}; extra pairs are appended after the
// parsed ones (used for le/quantile). Empty input renders "".
func promLabels(labels [][2]string, extra ...[2]string) string {
	all := append(append([][2]string(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(kv[0]))
		b.WriteString(`="`)
		b.WriteString(promEscape(kv[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promSeries is one snapshot key parsed for exposition.
type promSeries struct {
	key    string // original snapshot key, the within-family sort order
	labels [][2]string
}

// familiesOf groups snapshot keys by sanitized family name. The returned
// family names are sorted; each family's series are sorted by their
// original key so output order is deterministic.
func familiesOf(keys []string) (names []string, byFamily map[string][]promSeries) {
	byFamily = make(map[string][]promSeries)
	for _, k := range keys {
		name, labels := ParseMetricKey(k)
		fam := promName(name)
		byFamily[fam] = append(byFamily[fam], promSeries{key: k, labels: labels})
	}
	for fam, series := range byFamily {
		sort.Slice(series, func(i, j int) bool { return series[i].key < series[j].key })
		byFamily[fam] = series
		names = append(names, fam)
	}
	sort.Strings(names)
	return names, byFamily
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format: sorted, typed, escaped, with cumulative histogram buckets and
// spans exported as a sonic_span_seconds summary family.
func (s Snapshot) WriteProm(w io.Writer) {
	counterKeys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		counterKeys = append(counterKeys, k)
	}
	names, fams := familiesOf(counterKeys)
	for _, fam := range names {
		fmt.Fprintf(w, "# TYPE %s counter\n", fam)
		for _, sr := range fams[fam] {
			fmt.Fprintf(w, "%s%s %d\n", fam, promLabels(sr.labels), s.Counters[sr.key])
		}
	}

	gaugeKeys := make([]string, 0, len(s.Gauges))
	for k := range s.Gauges {
		gaugeKeys = append(gaugeKeys, k)
	}
	names, fams = familiesOf(gaugeKeys)
	for _, fam := range names {
		fmt.Fprintf(w, "# TYPE %s gauge\n", fam)
		for _, sr := range fams[fam] {
			fmt.Fprintf(w, "%s%s %s\n", fam, promLabels(sr.labels), promValue(s.Gauges[sr.key]))
		}
	}

	histKeys := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		histKeys = append(histKeys, k)
	}
	names, fams = familiesOf(histKeys)
	for _, fam := range names {
		fmt.Fprintf(w, "# TYPE %s histogram\n", fam)
		for _, sr := range fams[fam] {
			h := s.Histograms[sr.key]
			var cum int64
			sawInf := false
			for _, b := range h.Buckets {
				cum += b.Count
				sawInf = sawInf || b.Le == "+Inf"
				fmt.Fprintf(w, "%s_bucket%s %d\n", fam, promLabels(sr.labels, [2]string{"le", b.Le}), cum)
			}
			if !sawInf {
				fmt.Fprintf(w, "%s_bucket%s %d\n", fam, promLabels(sr.labels, [2]string{"le", "+Inf"}), h.Count)
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", fam, promLabels(sr.labels), promValue(h.Sum))
			fmt.Fprintf(w, "%s_count%s %d\n", fam, promLabels(sr.labels), h.Count)
		}
	}

	if len(s.Spans) > 0 {
		fmt.Fprintln(w, "# TYPE sonic_span_seconds summary")
		for _, k := range sortedKeys(s.Spans) {
			sp := s.Spans[k]
			base := [][2]string{{"span", k}}
			fmt.Fprintf(w, "sonic_span_seconds%s %s\n",
				promLabels(base, [2]string{"quantile", "0.5"}), promValue(sp.P50Seconds))
			fmt.Fprintf(w, "sonic_span_seconds%s %s\n",
				promLabels(base, [2]string{"quantile", "0.99"}), promValue(sp.P99Seconds))
			fmt.Fprintf(w, "sonic_span_seconds_sum%s %s\n", promLabels(base), promValue(sp.TotalSeconds))
			fmt.Fprintf(w, "sonic_span_seconds_count%s %d\n", promLabels(base), sp.Count)
		}
	}
}

// sortedKeys returns map keys in stable order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
