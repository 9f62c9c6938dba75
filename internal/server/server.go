// Package server exposes a frozen BioHD library as an HTTP JSON API —
// the service form of the genome search platform. Search endpoints read
// an atomically published library snapshot and never lock; the mutation
// endpoints (ingest, remove, compact) serialize inside the core and
// publish each change as a fresh snapshot, so search traffic keeps
// flowing while the library changes underneath it.
//
// Endpoints:
//
//	GET  /healthz     liveness
//	GET  /metrics     Prometheus text metrics (requests, latency, core counters)
//	GET  /v1/stats    library shape, model and calibration numbers
//	POST /v1/search   one pattern → verified matches
//	POST /v1/classify one long read → best-supported reference
//	POST /v1/batch    many patterns → per-pattern matches
//	POST /v1/refs     ingest one reference into the live segment
//	DELETE /v1/refs/{id}  tombstone a reference out of the library
//	POST /v1/compact  rewrite segments past a tombstone ratio
//
// Request lifecycle: the handler chain records per-endpoint request
// counts and latency histograms. Only a batch reads its context while
// it runs, so only a batch has a deadline (Config.RequestTimeout,
// armed in execBatch): when the client disconnects or the deadline
// fires, the batch stops searching the patterns it has not reached and
// the response carries the partial results with a "canceled" marker.
// Run the service through HTTPServer to get the connection-level
// timeouts; see cmd/biohd's serve for the full
// SIGTERM-drains-then-exits lifecycle.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// maxBodyBytes bounds request bodies (patterns are short; reads are a
// few kilobases).
const maxBodyBytes = 16 << 20

// Server serves search requests against one frozen index, whatever
// its backend — it talks only to the core.Index contract.
type Server struct {
	lib      core.Index
	cfg      Config
	reg      *metrics.Registry
	inflight *metrics.Gauge
	series   httpSeries
	coal     *coalesce.Coalescer // forward searches; every other route calls lib
	logger   *log.Logger         // nil: no per-request logging

	// refMu is held across a reference-ID check and the Add or Remove
	// it guards, so two requests naming one ID cannot both pass it.
	refMu sync.Mutex
}

// Option customizes a Server.
type Option func(*Server)

// WithConfig sets the request-lifecycle configuration (zero fields
// take defaults; negative durations disable the timeout).
func WithConfig(cfg Config) Option {
	return func(s *Server) { s.cfg = cfg }
}

// WithLogger enables per-request logging (method, path, status,
// latency) on the given logger.
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// New creates a Server over any index backend. The index must be
// frozen.
func New(lib core.Index, opts ...Option) (*Server, error) {
	if lib == nil || !lib.Describe().Frozen {
		return nil, fmt.Errorf("server: library must be frozen")
	}
	s := &Server{lib: lib, cfg: DefaultConfig(), reg: metrics.NewRegistry()}
	for _, opt := range opts {
		opt(s)
	}
	s.cfg = s.cfg.withDefaults()
	s.inflight = s.reg.Gauge(metricInFlight, helpInFlight)
	c, err := coalesce.New(lib, s.reg)
	if err != nil {
		return nil, err
	}
	s.coal = c
	return s, nil
}

// Close does nothing: the server and its coalescer run nothing in the
// background, so there is nothing to release. It is kept for the
// benchmark harness, which calls it.
func (s *Server) Close() {}

// Registry exposes the server's metrics registry, e.g. for registering
// additional series or asserting on counters in tests.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the HTTP handler with all routes mounted behind the
// observability middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/classify", s.handleClassify)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/refs", s.handleAddRef)
	mux.HandleFunc("DELETE /v1/refs/{id}", s.handleRemoveRef)
	mux.HandleFunc("POST /v1/compact", s.handleCompact)
	return s.withObservability(mux)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:ignore errcheck a failed response write means the client is gone
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeResult writes an exec answer: res with status 200, or the
// request's failure as an error body.
func writeResult(w http.ResponseWriter, res any, serr *wire.StatusError) {
	if serr != nil {
		writeError(w, serr.Code, "%s", serr.Msg)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// decodeBody is readBody answering 400 for any failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := readBody(w, r, v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// readBody decodes the body's one JSON value into v; unknown fields are
// an error, and so is anything but whitespace after the value, as the
// wire decoder refuses a frame with trailing bytes. A body with no
// value at all, whatever its framing, is io.EOF.
func readBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders the HTTP metrics registry plus the library's
// cumulative core counters in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, "rendering metrics: %v", err)
		return
	}
	info := s.lib.Describe()
	fmt.Fprintf(&buf, "# HELP biohd_index_info Index backend serving this collection (constant 1, backend in the label).\n"+
		"# TYPE biohd_index_info gauge\nbiohd_index_info{backend=%q} 1\n", info.Backend)
	c := s.lib.Counters()
	fmt.Fprintf(&buf, "# HELP biohd_core_bucket_probes_total Query-window bucket probes executed by the library.\n"+
		"# TYPE biohd_core_bucket_probes_total counter\nbiohd_core_bucket_probes_total %d\n", c.BucketProbes)
	fmt.Fprintf(&buf, "# HELP biohd_core_early_abandons_total Sealed-arena rows scanned that did not become candidates, dropped by the sketch stage or the full-row bound.\n"+
		"# TYPE biohd_core_early_abandons_total counter\nbiohd_core_early_abandons_total %d\n", c.EarlyAbandons)
	fmt.Fprintf(&buf, "# HELP biohd_core_sketch_rows_total Rows scanned by the probe cascade's sketch stage.\n"+
		"# TYPE biohd_core_sketch_rows_total counter\nbiohd_core_sketch_rows_total %d\n", c.SketchRows)
	fmt.Fprintf(&buf, "# HELP biohd_core_sketch_survivors_total Rows the sketch stage passed on to the full-row stage; over sketch rows this is the observed survivor ratio.\n"+
		"# TYPE biohd_core_sketch_survivors_total counter\nbiohd_core_sketch_survivors_total %d\n", c.SketchSurvivors)
	fmt.Fprintf(&buf, "# HELP biohd_core_sketch_predicted_survivor_ratio Survivor ratio the quality model predicts for the sketch stage (0 without one).\n"+
		"# TYPE biohd_core_sketch_predicted_survivor_ratio gauge\nbiohd_core_sketch_predicted_survivor_ratio %g\n", info.SketchSurvivorRatio)
	fmt.Fprintf(&buf, "# HELP biohd_core_batch_cancellations_total Batch lookups stopped early by context cancellation.\n"+
		"# TYPE biohd_core_batch_cancellations_total counter\nbiohd_core_batch_cancellations_total %d\n", c.BatchCancellations)
	fmt.Fprintf(&buf, "# HELP biohd_core_blocked_probes_total Query-blocked arena scans: each plane read once for every query of a block.\n"+
		"# TYPE biohd_core_blocked_probes_total counter\nbiohd_core_blocked_probes_total %d\n", c.BlockedProbes)
	fmt.Fprintf(&buf, "# HELP biohd_core_blocked_windows_total Query windows served by blocked scans; divided by blocked probes this is the realized block occupancy.\n"+
		"# TYPE biohd_core_blocked_windows_total counter\nbiohd_core_blocked_windows_total %d\n", c.BlockedWindows)
	fmt.Fprintf(&buf, "# HELP biohd_core_segment_seals_total Active segments sealed into immutable segments by live ingest.\n"+
		"# TYPE biohd_core_segment_seals_total counter\nbiohd_core_segment_seals_total %d\n", c.SegmentSeals)
	fmt.Fprintf(&buf, "# HELP biohd_core_compactions_total Segments rewritten by compaction to drop tombstoned windows.\n"+
		"# TYPE biohd_core_compactions_total counter\nbiohd_core_compactions_total %d\n", c.Compactions)
	fmt.Fprintf(&buf, "# HELP biohd_core_mapped_scans_total Arena range scans served from mmapped (file-backed) segments.\n"+
		"# TYPE biohd_core_mapped_scans_total counter\nbiohd_core_mapped_scans_total %d\n", c.MappedScans)
	fmt.Fprintf(&buf, "# HELP biohd_core_heap_scans_total Arena range scans served from heap-resident segments.\n"+
		"# TYPE biohd_core_heap_scans_total counter\nbiohd_core_heap_scans_total %d\n", c.HeapScans)
	fmt.Fprintf(&buf, "# HELP biohd_library_segments Segments in the library's current snapshot.\n"+
		"# TYPE biohd_library_segments gauge\nbiohd_library_segments %d\n", info.Segments)
	fmt.Fprintf(&buf, "# HELP biohd_library_tombstone_ratio Fraction of memorized windows whose reference has been removed.\n"+
		"# TYPE biohd_library_tombstone_ratio gauge\nbiohd_library_tombstone_ratio %g\n", info.TombstoneRatio)
	fmt.Fprintf(&buf, "# HELP biohd_library_memory_bytes Resident bytes of the library's hypervector storage.\n"+
		"# TYPE biohd_library_memory_bytes gauge\nbiohd_library_memory_bytes %d\n", info.MemoryBytes)
	fmt.Fprintf(&buf, "# HELP biohd_library_mapped_bytes Bytes of the library file mmapped into the process (0 for heap-loaded libraries).\n"+
		"# TYPE biohd_library_mapped_bytes gauge\nbiohd_library_mapped_bytes %d\n", info.MappedBytes)
	fmt.Fprintf(&buf, "# HELP biohd_library_resident_bytes Bytes of the library's search store resident in RAM: mincore over the mapped arenas for the mmap tier, the heap footprint otherwise.\n"+
		"# TYPE biohd_library_resident_bytes gauge\nbiohd_library_resident_bytes %d\n", info.ResidentBytes)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	//lint:ignore errcheck a failed response write means the client is gone
	w.Write(buf.Bytes())
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.execStats())
}

// SearchRequest is the /v1/search payload.
type SearchRequest struct {
	Pattern string `json:"pattern"`
	// Strands selects "forward" (default) or "both".
	Strands string `json:"strands,omitempty"`
}

// SearchResponse is the /v1/search result, kept as a name for callers
// that decode into it; every route answers with a wire result type.
type SearchResponse = wire.SearchResult

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var both bool
	switch req.Strands {
	case "", "forward":
	case "both":
		both = true
	default:
		writeError(w, http.StatusBadRequest, `strands must be "forward" or "both"`)
		return
	}
	res, serr := s.execSearch(r.Context(), req.Pattern, both)
	writeResult(w, res, serr)
}

// ClassifyRequest is the /v1/classify payload.
type ClassifyRequest struct {
	Read        string  `json:"read"`
	MinFraction float64 `json:"minFraction,omitempty"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req ClassifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, serr := s.execClassify(r.Context(), req.Read, req.MinFraction)
	writeResult(w, res, serr)
}

// BatchRequest is the /v1/batch payload, the patterns alone; a body
// that names any other field is a 400.
type BatchRequest struct {
	Patterns []string `json:"patterns"`
}

// maxBatchPatterns bounds one batch request.
const maxBatchPatterns = 10_000

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, serr := s.execBatch(r.Context(), req.Patterns)
	writeResult(w, res, serr)
}
