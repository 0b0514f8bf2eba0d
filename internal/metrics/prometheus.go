package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4): families grouped under one
// # HELP / # TYPE header, histograms expanded into cumulative _bucket
// series plus _sum and _count. Families print in registration order;
// series within a family in label order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Snapshot the family structure under the lock; instrument reads are
	// atomic and happen after release, so a scrape never blocks updates.
	type fam struct {
		name, help string
		kind       kind
		series     []*metric
	}
	var fams []*fam
	byName := make(map[string]*fam)
	for _, m := range r.order {
		f, ok := byName[m.name]
		if !ok {
			f = &fam{name: m.name, help: m.help, kind: m.kind}
			byName[m.name] = f
			fams = append(fams, f)
		}
		f.series = append(f.series, m)
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typeName(f.kind)); err != nil {
			return err
		}
		series := append([]*metric(nil), f.series...)
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })
		for _, m := range series {
			if err := writeSeries(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func typeName(k kind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

func writeSeries(w io.Writer, m *metric) error {
	switch m.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.c.Value())
		return err
	case kindGauge:
		v := int64(0)
		if m.gf != nil {
			v = m.gf()
		}
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, v)
		return err
	default:
		return writeHistogram(w, m)
	}
}

// writeHistogram renders the cumulative bucket series. Extra labels merge
// with the le label, preserving the series' own labels first.
func writeHistogram(w io.Writer, m *metric) error {
	h := m.h
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			m.name, mergeLabels(m.labels, "le", formatBound(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		m.name, mergeLabels(m.labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", m.name, m.labels, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, h.Count())
	return err
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// mergeLabels splices one extra label into a pre-rendered label block.
func mergeLabels(rendered, key, val string) string {
	extra := fmt.Sprintf("%s=%q", key, val)
	if rendered == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(rendered, "}") + "," + extra + "}"
}
