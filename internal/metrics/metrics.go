// Package metrics is a dependency-free instrumentation kit for the
// search service: atomic counters, gauges, and fixed-bucket latency
// histograms, collected in a registry that renders the Prometheus text
// exposition format (version 0.0.4).
//
// The package exists so the serving layer can be observable without
// pulling a client library into a reproduction repo. Metrics are cheap
// enough for request paths — a counter increment is one atomic add, a
// histogram observation is two atomic adds plus a CAS loop on the sum —
// and reads never block writers.
//
// Series identity follows Prometheus: a metric name plus a sorted label
// set. Getting a series takes the registry's one mutex and renders its
// label set, so request paths do not look series up per request: they
// keep the returned pointer — resolved once at construction, or on a
// series' first use where creating it eagerly would render a
// zero-valued series nobody asked for (internal/server's per-route
// table).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair identifying a series.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (e.g. in-flight requests).
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with cumulative rendering.
// Bounds are upper bounds ("le") in increasing order; an implicit +Inf
// bucket catches the overflow.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound ≥ v is the bucket; misses land in +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefBuckets are default latency bounds in seconds, spanning sub-
// millisecond probes to multi-second batch requests.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// LinearBuckets builds count evenly spaced histogram bounds starting
// at start — e.g. LinearBuckets(1, 1, 8) for a block-occupancy
// histogram whose realized width is an integer in [1, 8].
func LinearBuckets(start, width float64, count int) []float64 {
	bounds := make([]float64, count)
	for i := range bounds {
		bounds[i] = start + float64(i)*width
	}
	return bounds
}

// metricKind discriminates family types for rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// series is one labeled instance within a family.
type series struct {
	labels string // rendered sorted label set, "" or `path="/v1/search"`
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
}

// Registry holds metric families and renders them deterministically.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelString renders labels sorted by key: `k1="v1",k2="v2"`.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(labelEscaper.Replace(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

// labelEscaper escapes a label value per the text exposition format. It
// is built once: a Replacer is safe for concurrent use, and building one
// costs more than the replacement.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// getFamily returns the family for name, creating it with the given
// kind and help on first use. A name reused with a different kind
// returns nil — the caller's series accessors treat that as a distinct
// fresh series to avoid corrupting the original (and the misuse shows
// up immediately in tests as a missing metric).
func (r *Registry) getFamily(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		return nil
	}
	return f
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter)
	if f == nil {
		return &Counter{} // kind clash: hand back a detached series
	}
	key := labelString(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, c: &Counter{}}
		f.series[key] = s
	}
	return s.c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge)
	if f == nil {
		return &Gauge{}
	}
	key := labelString(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, g: &Gauge{}}
		f.series[key] = s
	}
	return s.g
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket bounds on first use (later calls reuse the first bounds).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindHistogram)
	if f == nil {
		return newHistogram(bounds)
	}
	key := labelString(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, h: newHistogram(bounds)}
		f.series[key] = s
	}
	return s.h
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name and series by label set, so successive
// scrapes of an unchanged registry are byte-identical. It holds the
// registry's mutex while it renders, because it walks the series maps a
// first use adds to; observing an existing series takes no lock and is
// never blocked by it.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := r.families[name].write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, f.help, f.name, f.kind); err != nil {
		return err
	}
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := f.series[k].write(w, f); err != nil {
			return err
		}
	}
	return nil
}

func (s *series) write(w io.Writer, f *family) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, braced(s.labels), s.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, braced(s.labels), s.g.Value())
		return err
	default:
		return s.writeHistogram(w, f)
	}
}

// writeHistogram renders cumulative buckets, then _sum and _count.
func (s *series) writeHistogram(w io.Writer, f *family) error {
	h := s.h
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if err := s.bucketLine(w, f.name, formatBound(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if err := s.bucketLine(w, f.name, "+Inf", cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", f.name, braced(s.labels), h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(s.labels), h.Count())
	return err
}

func (s *series) bucketLine(w io.Writer, name, le string, cum int64) error {
	labels := s.labels
	if labels != "" {
		labels += ","
	}
	labels += `le="` + le + `"`
	_, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, labels, cum)
	return err
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal form (%g never emits trailing zeros for our bounds).
func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// braced wraps a non-empty label set in braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}
