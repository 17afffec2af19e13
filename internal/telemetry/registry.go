package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value
// is ready; Add is a single atomic instruction.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64 metric (e.g. shard size, last-round
// timestamp). The zero value is ready.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// metricKind tags a family for rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one labeled instance inside a family.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups every labeled series sharing a metric name.
type family struct {
	name   string
	kind   metricKind
	help   string
	series map[string]*series // keyed by canonical label string
}

// Registry holds named metric families. Lookup (Counter/Histogram/
// Gauge) takes a short RWMutex critical section and returns the live
// metric, so hot paths should hold on to the returned pointer; the
// metrics themselves are lock-free. The zero value is ready.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// defaultRegistry is the process-wide registry every component
// instruments unless explicitly given another one.
var defaultRegistry = &Registry{}

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// sortedLabels returns labels ordered by key: the slice itself when it
// already is (every call site with at most one label, and most others),
// otherwise a sorted copy in scratch, which stays on the caller's stack
// for the label counts in use.
func sortedLabels(labels []Label, scratch *[4]Label) []Label {
	inOrder := true
	for i := 1; i < len(labels) && inOrder; i++ {
		inOrder = labels[i-1].Key <= labels[i].Key
	}
	if inOrder {
		return labels
	}
	sorted := append(scratch[:0], labels...)
	for i := 1; i < len(sorted); i++ { // insertion sort: sort.Slice would move scratch to the heap
		for j := i; j > 0 && sorted[j].Key < sorted[j-1].Key; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted
}

// appendLabelKey renders the canonical series key — sorted by label
// key, k="v" comma-joined — into b.
func appendLabelKey(b []byte, sorted []Label) []byte {
	for i, l := range sorted {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return b
}

// L builds labels from alternating key, value strings: L("node",
// "node-3") — a convenience for call sites.
func L(kv ...string) []Label {
	if len(kv)%2 != 0 {
		panic("telemetry: L needs alternating key, value pairs")
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{Key: kv[i], Value: kv[i+1]})
	}
	return out
}

// lookup returns (creating on demand) the series for name+labels,
// enforcing kind consistency within a family.
func (r *Registry) lookup(name string, kind metricKind, labels []Label) *series {
	// The hit path runs per RPC and per query: the key is rendered into
	// a stack buffer and looked up without becoming a string, so finding
	// an existing series allocates nothing.
	var (
		scratch [4]Label
		buf     [128]byte
	)
	sorted := sortedLabels(labels, &scratch)
	key := appendLabelKey(buf[:0], sorted)
	r.mu.RLock()
	if f, ok := r.families[name]; ok && f.kind == kind {
		if s, ok := f.series[string(key)]; ok {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = map[string]*family{}
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered twice with different kinds", name))
	}
	s, ok := f.series[string(key)]
	if !ok {
		s = &series{labels: append([]Label(nil), sorted...)}
		switch kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = &Histogram{}
		}
		f.series[string(key)] = s
	}
	return s
}

// Counter returns the counter for name with the given labels, creating
// it on first use: Counter("qens_errors_total", L("node", id)...).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, kindCounter, labels).counter
}

// Gauge returns the gauge for name with the given labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, kindGauge, labels).gauge
}

// Histogram returns the histogram for name with the given labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, kindHistogram, labels).hist
}

// SetHelp attaches a HELP string rendered above the family in the
// Prometheus exposition.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
	}
}

// MetricValue is one scalar series in a Snapshot.
type MetricValue struct {
	Name   string
	Labels []Label
	Value  float64
}

// HistogramValue is one histogram series in a Snapshot.
type HistogramValue struct {
	Name   string
	Labels []Label
	HistogramSnapshot
}

// RegistrySnapshot is a point-in-time copy of every series.
type RegistrySnapshot struct {
	Counters   []MetricValue
	Gauges     []MetricValue
	Histograms []HistogramValue
}

// Snapshot copies the registry's current state (sorted by name then
// label key) — the experiment harness reads results through this.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var snap RegistrySnapshot
	for _, f := range r.sortedFamiliesLocked() {
		for _, key := range sortedSeriesKeys(f) {
			s := f.series[key]
			switch f.kind {
			case kindCounter:
				snap.Counters = append(snap.Counters, MetricValue{f.name, s.labels, float64(s.counter.Value())})
			case kindGauge:
				snap.Gauges = append(snap.Gauges, MetricValue{f.name, s.labels, s.gauge.Value()})
			case kindHistogram:
				snap.Histograms = append(snap.Histograms, HistogramValue{f.name, s.labels, s.hist.Snapshot()})
			}
		}
	}
	return snap
}

// Reset drops every registered family. Metric pointers held by callers
// keep working but are no longer rendered — experiment boundaries
// should re-look-up after Reset.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = nil
}

func (r *Registry) sortedFamiliesLocked() []*family {
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func sortedSeriesKeys(f *family) []string {
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-bucket series plus _sum and
// _count, with quantile estimates exported as companion gauges
// (<name>_p50 etc.) since the native histogram type carries no
// quantiles.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	families := r.sortedFamiliesLocked()
	// Capture the per-family series lists under the lock; the metric
	// values themselves are atomics read afterwards.
	type famView struct {
		f    *family
		keys []string
	}
	views := make([]famView, len(families))
	for i, f := range families {
		views[i] = famView{f, sortedSeriesKeys(f)}
	}
	r.mu.RUnlock()

	for _, v := range views {
		f := v.f
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typeString(f.kind)); err != nil {
			return err
		}
		for _, key := range v.keys {
			s := f.series[key]
			switch f.kind {
			case kindCounter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels, nil), s.counter.Value()); err != nil {
					return err
				}
			case kindGauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels, nil), formatFloat(s.gauge.Value())); err != nil {
					return err
				}
			case kindHistogram:
				if err := writeHistogram(w, f.name, s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s *series) error {
	snap := s.hist.Snapshot()
	for _, b := range snap.Buckets {
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = formatFloat(b.UpperBound)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, renderLabels(s.labels, &Label{"le", le}), b.Cumulative); err != nil {
			return err
		}
	}
	// Prometheus requires the +Inf bucket even when empty up top.
	if len(snap.Buckets) == 0 || !math.IsInf(snap.Buckets[len(snap.Buckets)-1].UpperBound, 1) {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, renderLabels(s.labels, &Label{"le", "+Inf"}), snap.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(s.labels, nil), formatFloat(snap.Sum)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(s.labels, nil), snap.Count); err != nil {
		return err
	}
	for _, q := range []struct {
		suffix string
		v      float64
	}{{"p50", snap.P50}, {"p95", snap.P95}, {"p99", snap.P99}} {
		if _, err := fmt.Fprintf(w, "%s_%s%s %s\n", name, q.suffix, renderLabels(s.labels, nil), formatFloat(q.v)); err != nil {
			return err
		}
	}
	// Histograms with a rolling window attached additionally export
	// last-window companions (window seconds as a label), so dashboards
	// can plot "now" next to "since start".
	if win := s.hist.Window(); win != nil {
		st := win.Stats()
		winLabel := &Label{"window", formatFloat(st.Window.Seconds()) + "s"}
		if _, err := fmt.Fprintf(w, "%s_win_count%s %d\n", name, renderLabels(s.labels, winLabel), st.Count); err != nil {
			return err
		}
		for _, q := range []struct {
			suffix string
			v      float64
		}{{"win_p50", st.P50}, {"win_p95", st.P95}, {"win_p99", st.P99}} {
			if _, err := fmt.Fprintf(w, "%s_%s%s %s\n", name, q.suffix, renderLabels(s.labels, winLabel), formatFloat(q.v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderLabels renders {k="v",...}; extra (e.g. le) is appended last.
func renderLabels(labels []Label, extra *Label) string {
	if len(labels) == 0 && extra == nil {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, escapeLabelValue(l.Value))
	}
	if extra != nil {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extra.Key, escapeLabelValue(extra.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue strips characters that would corrupt the text
// exposition (the %q quoting handles backslash and double-quote).
func escapeLabelValue(v string) string {
	return strings.Map(func(r rune) rune {
		if r == '\n' {
			return ' '
		}
		return r
	}, v)
}

func typeString(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// formatFloat renders a float compactly (integers without the trailing
// .0 Prometheus tolerates either way).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
