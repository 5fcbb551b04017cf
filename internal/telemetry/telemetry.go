// Package telemetry is the dependency-free metrics layer behind the
// sdserve /metrics endpoint: counters, gauges and fixed-bucket
// histograms with atomic updates, exposed in the Prometheus text
// exposition format (text/plain; version=0.0.4).
//
// Every instrumented package declares its metrics as package-level
// variables against the Default registry:
//
//	var points = telemetry.NewCounter("campaign_points_started_total",
//		"Campaign points handed to the simulator.")
//
// and updates them with lock-free atomic operations on the hot path.
// Scrapes (Registry.WritePrometheus, or the http.Handler returned by
// Registry.Handler) walk the registry and render a deterministic
// snapshot: families sorted by name, children sorted by label values,
// so the output is diffable and goldens stay stable.
//
// The package deliberately implements only what the repo needs — no
// summaries, no exemplars, no push — but the exposition it produces is
// accepted verbatim by Prometheus, VictoriaMetrics and promtool.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram buckets, in seconds: the usual
// Prometheus latency ladder stretched to the minutes range, because a
// full-scale campaign point legitimately simulates for that long.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
	floatCounterKind
)

func (k kind) String() string {
	switch k {
	case counterKind, floatCounterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// sample is the common interface of a single child (one label-value
// combination) of a metric family.
type sample interface {
	// write renders the child's exposition lines. name is the family
	// name, labels the pre-rendered `k="v"` pairs (no braces), which a
	// histogram needs to merge with its own le label.
	write(w io.Writer, name, labels string)
	// scalar returns the child's headline value: the count of a
	// counter, the level of a gauge, the observation count of a
	// histogram. It backs Registry.Value.
	scalar() float64
}

// family is one metric name: its metadata plus a child per label-value
// combination (a single, unlabeled child when labels is empty).
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]sample // key: rendered label pairs
}

// child returns (creating if needed) the sample for the label values.
func (f *family) child(lvs []string) sample {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d",
			f.name, len(f.labels), len(lvs)))
	}
	key := renderLabels(f.labels, lvs)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.children[key]
	if !ok {
		switch f.kind {
		case counterKind:
			s = &Counter{}
		case gaugeKind:
			s = &Gauge{}
		case floatCounterKind:
			s = &FloatCounter{}
		default:
			s = newHistogram(f.buckets)
		}
		f.children[key] = s
	}
	return s
}

// Registry holds metric families and renders them. The zero value is
// not usable; use NewRegistry, or the package-level Default that every
// NewCounter/NewGauge/NewHistogram convenience registers into.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry: instrumented packages register
// into it at init and sdserve's /metrics exposes it.
var Default = NewRegistry()

// register returns the family, creating it on first use. Re-registering
// an existing name with the same shape returns the existing family —
// registration is idempotent, so tests and packages need not coordinate
// — but a shape mismatch (kind or labels) panics: two meanings for one
// metric name is a programming error no scrape should paper over.
func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64) *family {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s%v, was %s%v",
				name, k, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     k,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]sample),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, counterKind, nil, nil).child(nil).(*Counter)
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, counterKind, labels, nil)}
}

// FloatCounter registers (or fetches) an unlabeled float counter.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	return r.register(name, help, floatCounterKind, nil, nil).child(nil).(*FloatCounter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, gaugeKind, nil, nil).child(nil).(*Gauge)
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, gaugeKind, labels, nil)}
}

// Histogram registers (or fetches) an unlabeled fixed-bucket histogram.
// Bucket bounds must be sorted ascending; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, histogramKind, nil, checkBuckets(buckets)).child(nil).(*Histogram)
}

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, histogramKind, labels, checkBuckets(buckets))}
}

func checkBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic("telemetry: histogram buckets must be sorted strictly ascending")
		}
	}
	return buckets
}

// Package-level conveniences against Default.

// NewCounter registers an unlabeled counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewCounterVec registers a labeled counter family in the Default registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.CounterVec(name, help, labels...)
}

// NewFloatCounter registers an unlabeled float counter in the Default
// registry.
func NewFloatCounter(name, help string) *FloatCounter { return Default.FloatCounter(name, help) }

// NewGauge registers an unlabeled gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewGaugeVec registers a labeled gauge family in the Default registry.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return Default.GaugeVec(name, help, labels...)
}

// NewHistogram registers an unlabeled histogram in the Default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.Histogram(name, help, buckets)
}

// NewHistogramVec registers a labeled histogram family in the Default registry.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return Default.HistogramVec(name, help, buckets, labels...)
}

// Counter is a monotonically increasing uint64. All methods are
// lock-free and safe for concurrent use.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

func (c *Counter) scalar() float64 { return float64(c.n.Load()) }

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), c.n.Load())
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the label values (created on first use).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues).(*Counter)
}

// FloatCounter is a monotonically increasing float64, for counters of
// non-integral quantities such as seconds. All methods are lock-free
// and safe for concurrent use.
type FloatCounter struct{ g Gauge }

// Add adds delta, which must not be negative.
func (c *FloatCounter) Add(delta float64) {
	if delta < 0 {
		panic(fmt.Sprintf("telemetry: counter decremented by %v", -delta))
	}
	c.g.Add(delta)
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 { return c.g.Value() }

func (c *FloatCounter) scalar() float64 { return c.g.Value() }

func (c *FloatCounter) write(w io.Writer, name, labels string) { c.g.write(w, name, labels) }

// Gauge is a float64 that can go up and down. All methods are lock-free
// (CAS loops) and safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) scalar() float64 { return g.Value() }

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), formatFloat(g.Value()))
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the label values (created on first use).
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues).(*Gauge)
}

// Histogram counts observations into fixed buckets, tracking the total
// sum and count. Observe is lock-free; a concurrent scrape sees a
// near-consistent snapshot (bucket counts may trail the total by the
// handful of observations in flight, which Prometheus tolerates).
type Histogram struct {
	bounds []float64       // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    Gauge
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, matching le semantics
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

func (h *Histogram) scalar() float64 { return float64(h.count.Load()) }

func (h *Histogram) write(w io.Writer, name, labels string) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="`+formatFloat(b)+`"`)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="+Inf"`)), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatFloat(h.sum.Value()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), h.count.Load())
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the label values (created on first use).
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues).(*Histogram)
}

// Value returns the headline value of the metric child with the given
// label values (the count of a counter or histogram, the level of a
// gauge), and whether that child exists. It lets consumers such as
// sdexp's machine-readable stats line read the same counters the
// exposition reports instead of keeping a parallel tally.
func (r *Registry) Value(name string, labelValues ...string) (float64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok || len(labelValues) != len(f.labels) {
		return 0, false
	}
	key := renderLabels(f.labels, labelValues)
	f.mu.Lock()
	s, ok := f.children[key]
	f.mu.Unlock()
	if !ok {
		return 0, false
	}
	return s.scalar(), true
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, children
// sorted by rendered label values, so output is deterministic given the
// same metric state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var buf strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) > 0 {
			fmt.Fprintf(&buf, "# HELP %s %s\n", f.name, escapeHelp(f.help))
			fmt.Fprintf(&buf, "# TYPE %s %s\n", f.name, f.kind)
			for _, k := range keys {
				f.children[k].write(&buf, f.name, k)
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, buf.String())
	return err
}

// ContentType is the exposition MIME type /metrics responses carry.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns the GET /metrics handler over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		if req.Method == http.MethodHead {
			return
		}
		r.WritePrometheus(w)
	})
}

// renderLabels renders `k="v"` pairs (comma-joined, no braces) with
// label values escaped per the exposition format.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// joinLabels appends one more rendered pair to a possibly empty set.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// braced wraps rendered label pairs for a sample line; an empty set
// renders no braces at all.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
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
