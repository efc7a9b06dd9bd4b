package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// name with the same shape returns the existing metric; a conflicting
// re-registration panics (it is a programming error, not runtime input).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// metric is one registered family: it renders its complete exposition
// block (HELP, TYPE, series) given its name. exemplars is true only for
// the OpenMetrics format; the plain 0.0.4 format must not carry them.
type metric interface {
	metricType() string
	helpText() string
	write(w *bufio.Writer, name string, exemplars bool)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// register installs m under name, or returns the existing metric when it
// has the same concrete shape.
func (r *Registry) register(name string, m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metrics[name]; ok {
		if fmt.Sprintf("%T", old) != fmt.Sprintf("%T", m) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %T (was %T)", name, m, old))
		}
		return old
	}
	r.metrics[name] = m
	return m
}

// WritePrometheus renders every registered metric, sorted by name, in
// the plain text exposition format (version 0.0.4). Exemplars are
// omitted: the 0.0.4 parser rejects trailing content after a sample
// value, so they are only legal on OpenMetrics output.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.write(w, false) }

// WriteOpenMetrics renders every registered metric in the OpenMetrics
// text format: the same families and samples as WritePrometheus, plus
// per-bucket histogram exemplars and the terminating "# EOF" marker.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

func (r *Registry) write(w io.Writer, openMetrics bool) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	ms := make([]metric, len(names))
	for i, n := range names {
		ms[i] = r.metrics[n]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for i, m := range ms {
		if h := m.helpText(); h != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", names[i], h)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", names[i], m.metricType())
		m.write(bw, names[i], openMetrics)
	}
	if openMetrics {
		fmt.Fprintln(bw, "# EOF")
	}
	return bw.Flush()
}

// formatValue renders a sample value: integers without an exponent,
// floats in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// labelString renders {k="v",...} for parallel name/value slices.
func labelString(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// --- counter ---

// Counter is a monotonically increasing uint64.
type Counter struct {
	help string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricType() string { return "counter" }
func (c *Counter) helpText() string   { return c.help }
func (c *Counter) write(w *bufio.Writer, name string, _ bool) {
	fmt.Fprintf(w, "%s %d\n", name, c.v.Load())
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, &Counter{help: help}).(*Counter)
}

// counterFunc reports a counter read from a callback at scrape time —
// the bridge for counters owned by another subsystem (the datastore's
// commit and cache counters).
type counterFunc struct {
	help string
	fn   func() uint64
}

func (c *counterFunc) metricType() string { return "counter" }
func (c *counterFunc) helpText() string   { return c.help }
func (c *counterFunc) write(w *bufio.Writer, name string, _ bool) {
	fmt.Fprintf(w, "%s %d\n", name, c.fn())
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, &counterFunc{help: help, fn: fn})
}

// --- gauge ---

// Gauge is a float64 that goes up and down.
type Gauge struct {
	help string
	bits atomic.Uint64
}

// Add adds delta (possibly negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) helpText() string   { return g.help }
func (g *Gauge) write(w *bufio.Writer, name string, _ bool) {
	fmt.Fprintf(w, "%s %s\n", name, formatValue(g.Value()))
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, &Gauge{help: help}).(*Gauge)
}

// gaugeFunc reads its value from a callback at scrape time.
type gaugeFunc struct {
	help string
	fn   func() float64
}

func (g *gaugeFunc) metricType() string { return "gauge" }
func (g *gaugeFunc) helpText() string   { return g.help }
func (g *gaugeFunc) write(w *bufio.Writer, name string, _ bool) {
	fmt.Fprintf(w, "%s %s\n", name, formatValue(g.fn()))
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFunc{help: help, fn: fn})
}

// --- labeled families ---

// labelKey joins label values into one map key. \x1f cannot appear in
// practical label values, so the join is unambiguous.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

// CounterVec is a family of counters sharing a name, keyed by label
// values (e.g. route and status code).
type CounterVec struct {
	help   string
	labels []string

	mu       sync.RWMutex
	children map[string]*Counter
	keys     map[string][]string // label key -> values, for rendering
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return r.register(name, &CounterVec{
		help: help, labels: labels,
		children: make(map[string]*Counter),
		keys:     make(map[string][]string),
	}).(*CounterVec)
}

// With returns the counter for the given label values, creating it on
// first use. len(values) must equal the family's label count.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: counter wants %d labels, got %d", len(v.labels), len(values)))
	}
	key := labelKey(values)
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c = &Counter{}
	v.children[key] = c
	v.keys[key] = append([]string(nil), values...)
	return c
}

// Each visits every child with its label values, sorted by label key.
func (v *CounterVec) Each(fn func(values []string, c *Counter)) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([][]string, len(keys))
	cs := make([]*Counter, len(keys))
	for i, k := range keys {
		vals[i], cs[i] = v.keys[k], v.children[k]
	}
	v.mu.RUnlock()
	for i := range keys {
		fn(vals[i], cs[i])
	}
}

func (v *CounterVec) metricType() string { return "counter" }
func (v *CounterVec) helpText() string   { return v.help }
func (v *CounterVec) write(w *bufio.Writer, name string, _ bool) {
	v.Each(func(values []string, c *Counter) {
		fmt.Fprintf(w, "%s%s %d\n", name, labelString(v.labels, values), c.Value())
	})
}

// HistogramVec is a family of histograms sharing a name and bucket
// layout, keyed by label values (e.g. route).
type HistogramVec struct {
	help    string
	labels  []string
	buckets []float64

	mu       sync.RWMutex
	children map[string]*Histogram
	keys     map[string][]string
}

// HistogramVec registers (or returns) a labeled histogram family with
// the given upper bounds (ascending; +Inf is implicit).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return r.register(name, &HistogramVec{
		help: help, labels: labels, buckets: buckets,
		children: make(map[string]*Histogram),
		keys:     make(map[string][]string),
	}).(*HistogramVec)
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: histogram wants %d labels, got %d", len(v.labels), len(values)))
	}
	key := labelKey(values)
	v.mu.RLock()
	h, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.children[key]; ok {
		return h
	}
	h = NewHistogram(v.buckets)
	v.children[key] = h
	v.keys[key] = append([]string(nil), values...)
	return h
}

// Each visits every child with its label values, sorted by label key.
func (v *HistogramVec) Each(fn func(values []string, h *Histogram)) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([][]string, len(keys))
	hs := make([]*Histogram, len(keys))
	for i, k := range keys {
		vals[i], hs[i] = v.keys[k], v.children[k]
	}
	v.mu.RUnlock()
	for i := range keys {
		fn(vals[i], hs[i])
	}
}

func (v *HistogramVec) metricType() string { return "histogram" }
func (v *HistogramVec) helpText() string   { return v.help }
func (v *HistogramVec) write(w *bufio.Writer, name string, exemplars bool) {
	v.Each(func(values []string, h *Histogram) {
		h.writeSeries(w, name, v.labels, values, exemplars)
	})
}

// RegisterHistogram installs an externally owned histogram under name —
// the bridge for histograms maintained by another subsystem (the
// datastore's segment scan-bytes histogram).
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(name, &histogramMetric{help: help, h: h})
}

// histogramMetric adapts a bare Histogram to the registry.
type histogramMetric struct {
	help string
	h    *Histogram
}

func (m *histogramMetric) metricType() string { return "histogram" }
func (m *histogramMetric) helpText() string   { return m.help }
func (m *histogramMetric) write(w *bufio.Writer, name string, exemplars bool) {
	m.h.writeSeries(w, name, nil, nil, exemplars)
}
