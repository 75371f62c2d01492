package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exporter (exposition format version 0.0.4): one
// snapshot of every counter, gauge and histogram in the registry. Counters
// render their exact int64 value so a parse of the output round-trips
// losslessly (pinned by the exporter tests). Series are sorted by family
// then label set, so diffs between snapshots are stable.

// family returns the metric family of a full series name (the part before
// any label braces).
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// splitSeries splits a full series name into family and label body (the
// text between the braces, "" when unlabelled). Histogram rendering needs
// both: the family takes the _bucket/_sum/_count suffix and the labels merge
// with le, e.g. ugrapher_serve_request_seconds{model="GCN"} renders as
// ugrapher_serve_request_seconds_bucket{model="GCN",le="0.001"}.
func splitSeries(series string) (fam, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], strings.TrimSuffix(series[i+1:], "}")
	}
	return series, ""
}

// WritePrometheus renders the metrics snapshot in the Prometheus text
// format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	type histSnap struct {
		name   string
		bounds []float64
		counts []int64
		sum    float64
		count  int64
	}
	hists := make([]histSnap, 0, len(r.hists))
	for name, h := range r.hists {
		hs := histSnap{name: name, bounds: h.bounds, sum: h.SumSeconds(), count: h.Count()}
		hs.counts = make([]int64, len(h.counts))
		for i := range h.counts {
			hs.counts[i] = h.counts[i].Load()
		}
		hists = append(hists, hs)
	}
	r.mu.Unlock()
	addPoolCounters(counters)
	addProcessGauges(gauges)

	// Counters and gauges, grouped by family with one TYPE line each.
	emit := func(kind string, series []string, value func(string) string) error {
		sort.Strings(series)
		lastFamily := ""
		for _, s := range series {
			if f := family(s); f != lastFamily {
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f, kind); err != nil {
					return err
				}
				lastFamily = f
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", s, value(s)); err != nil {
				return err
			}
		}
		return nil
	}

	cs := make([]string, 0, len(counters))
	for s := range counters {
		cs = append(cs, s)
	}
	if err := emit("counter", cs, func(s string) string {
		return strconv.FormatInt(counters[s], 10)
	}); err != nil {
		return err
	}

	gs := make([]string, 0, len(gauges))
	for s := range gauges {
		gs = append(gs, s)
	}
	if err := emit("gauge", gs, func(s string) string {
		return formatFloat(gauges[s])
	}); err != nil {
		return err
	}

	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	lastFamily := ""
	for _, h := range hists {
		fam, labels := splitSeries(h.name)
		if fam != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", fam); err != nil {
				return err
			}
			lastFamily = fam
		}
		bucket := func(le string) string {
			if labels == "" {
				return fam + "_bucket{le=\"" + le + "\"}"
			}
			return fam + "_bucket{" + labels + ",le=\"" + le + "\"}"
		}
		suffixed := func(suffix string) string {
			if labels == "" {
				return fam + suffix
			}
			return fam + suffix + "{" + labels + "}"
		}
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i]
			if _, err := fmt.Fprintf(w, "%s %d\n", bucket(formatFloat(b)), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)]
		if _, err := fmt.Fprintf(w, "%s %d\n", bucket("+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", suffixed("_sum"), formatFloat(h.sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", suffixed("_count"), h.count); err != nil {
			return err
		}
	}
	return nil
}
