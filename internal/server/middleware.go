package server

import (
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Metric names exposed by /metrics. Per-endpoint series are labeled
// with the route path (unknown paths collapse to "other" to bound
// cardinality) and, for the request counter, the status class.
const (
	metricRequestsTotal = "biohd_http_requests_total"
	metricRequestSecs   = "biohd_http_request_seconds"
	metricInFlight      = "biohd_http_inflight_requests"

	helpRequestsTotal = "HTTP requests served, by route path and status class."
	helpRequestSecs   = "HTTP request latency in seconds, by route path."
	helpInFlight      = "HTTP requests currently being served."
)

// routes are the mounted route paths, in the order of the server's
// series table; every other path is labeled "other" (the last slot) so
// a path-scanning client cannot mint unbounded series.
var routes = [...]string{
	"/healthz",
	"/metrics",
	"/v1/stats",
	"/v1/search",
	"/v1/classify",
	"/v1/batch",
	"/v1/refs",
	"/v1/compact",
	"other",
}

const routeOther = len(routes) - 1

// statusClasses are the status-class labels, indexed by statusClass.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// routeOf returns the series-table index of a request path.
func routeOf(p string) int {
	if strings.HasPrefix(p, "/v1/refs/") {
		// DELETE /v1/refs/{id}: collapse the id so reference names
		// cannot mint unbounded series.
		p = "/v1/refs"
	}
	for i, r := range routes[:routeOther] {
		if p == r {
			return i
		}
	}
	return routeOther
}

// statusClass returns the index in statusClasses of an HTTP status.
func statusClass(code int) int {
	switch {
	case code >= 500:
		return 3
	case code >= 400:
		return 2
	case code >= 300:
		return 1
	default:
		return 0
	}
}

// httpSeries holds the per-request series: a request counter for each
// route and status class and a latency histogram for each route. A slot
// is filled through the registry on its first use and read with one
// atomic load after that, so a slot no request has used is no series —
// /metrics renders only the series traffic has touched — and observing
// a request takes no lock and renders no label.
type httpSeries struct {
	requests [len(routes)][len(statusClasses)]atomic.Pointer[metrics.Counter]
	seconds  [len(routes)]atomic.Pointer[metrics.Histogram]
}

// observe records one served request.
//
//biohd:hotpath
func (s *Server) observe(path string, status int, elapsed time.Duration) {
	route, class := routeOf(path), statusClass(status)
	c := s.series.requests[route][class].Load()
	if c == nil {
		c = s.resolveSeries(route, class)
	}
	c.Inc()
	s.series.seconds[route].Load().Observe(elapsed.Seconds())
}

// resolveSeries fills the request counter slot of route and class, and
// the route's histogram slot first if it is empty, so a loaded counter
// implies a loaded histogram. Requests racing here get the registry's
// one series for each slot and store the same pointer.
//
//biohd:coldstart the first request on a route and status class registers its series; later requests load the slot
func (s *Server) resolveSeries(route, class int) *metrics.Counter {
	path := metrics.Label{Key: "path", Value: routes[route]}
	if s.series.seconds[route].Load() == nil {
		s.series.seconds[route].Store(s.reg.Histogram(metricRequestSecs, helpRequestSecs, metrics.DefBuckets, path))
	}
	c := s.reg.Counter(metricRequestsTotal, helpRequestsTotal,
		path, metrics.Label{Key: "status", Value: statusClasses[class]})
	s.series.requests[route][class].Store(c)
	return c
}

// statusWriter records the status code a handler wrote. Handlers in
// this package always set explicit statuses; a body write without
// WriteHeader still records the implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// withObservability counts and times every request (including unknown
// routes and method mismatches) and maintains the in-flight gauge.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Inc()
		defer s.inflight.Dec()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.observe(r.URL.Path, status, elapsed)
		if s.logger != nil {
			s.logger.Printf("%s %s %d %s", r.Method, r.URL.Path, status, elapsed)
		}
	})
}
