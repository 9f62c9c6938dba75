package metrics

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	if again := r.Counter("reqs_total", "requests"); again != c {
		t.Fatal("same name+labels did not return the same counter")
	}
	g := r.Gauge("inflight", "in flight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs", "h", Label{Key: "path", Value: "/a"})
	b := r.Counter("reqs", "h", Label{Key: "path", Value: "/b"})
	if a == b {
		t.Fatal("different labels share a series")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatal("increment leaked across series")
	}
	// Label order must not matter.
	x := r.Counter("multi", "h", Label{Key: "a", Value: "1"}, Label{Key: "b", Value: "2"})
	y := r.Counter("multi", "h", Label{Key: "b", Value: "2"}, Label{Key: "a", Value: "1"})
	if x != y {
		t.Fatal("label order created distinct series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 3} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-3.565) > 1e-9 {
		t.Fatalf("sum = %v", h.Sum())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Cumulative: ≤0.01 holds 0.005 and the boundary value 0.01.
	for _, want := range []string{
		`lat_bucket{le="0.01"} 2`,
		`lat_bucket{le="0.1"} 3`,
		`lat_bucket{le="1"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		"lat_count 5",
		"# TYPE lat histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusDeterministicAndEscaped(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second", Label{Key: "path", Value: `x"y\z`}).Inc()
	r.Counter("a_total", "first").Inc()
	g := r.Gauge("g", "gauge")
	g.Inc()
	g.Inc()
	g.Dec()
	var first, second strings.Builder
	if err := r.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("successive renders differ")
	}
	out := first.String()
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
	if !strings.Contains(out, `b_total{path="x\"y\\z"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE g gauge") || !strings.Contains(out, "\ng 1\n") {
		t.Fatalf("gauge missing:\n%s", out)
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c", "h").Inc()
				r.Histogram("h", "h", DefBuckets).Observe(0.001)
				g := r.Gauge("g", "h")
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", "h").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	h := r.Histogram("h", "h", DefBuckets)
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if math.Abs(h.Sum()-8.0) > 1e-9 {
		t.Fatalf("histogram sum = %v", h.Sum())
	}
	if r.Gauge("g", "h").Value() != 0 {
		t.Fatal("gauge should return to 0")
	}
}

// TestWritePrometheusWhileSeriesAreAdded renders while other goroutines
// create series in the families being rendered; under -race an
// unguarded walk of a family's series map is reported.
func TestWritePrometheusWhileSeriesAreAdded(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests", Label{Key: "path", Value: "/0"})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := strconv.Itoa(i)
				r.Counter("reqs_total", "requests", Label{Key: "path", Value: "/" + v}).Inc()
				r.Histogram("req_seconds", "latency", DefBuckets, Label{Key: "path", Value: "/" + v}).Observe(0.001)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
