package main

// metricDef names one reported metric. The two tables below are the
// single list of names and units: BENCHMARK.json repeats them (a unit
// test holds the two in step) and every run prints exactly these, a
// zero where a layer does no work on the workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, share of the median
}

// endToEnd is what a user of the service sees, measured with tracing
// off. error_ratio and write_p50_us from ISSUE 11's table are per-layer
// here (client.*): the driver's contract wants every end-to-end metric
// on every workload and never zero, and those two are zero or undefined
// on most rows. Failures still gate the run through "failed"/"correct".
//
// The timing bounds are the widest the driver allows. On the reference
// host (a shared 2-vCPU VM) a fixed register-only loop runs 20-35%
// slower after a minute of sustained load than in the first minute, and
// ten back-to-back runs of one binary spread 3-17% (interquartile range
// over median) on these metrics; README.md has the numbers.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p95_us", "us", "lower", 0.25},
	{"recall", "ratio", "higher", 0.01},
	{"precision", "ratio", "higher", 0.01},
	{"index_bytes_per_base", "B/base", "lower", 0.01},
}

// perLayer is named <module>.<metric>. README.md maps each to the
// end-to-end metric it should move, and on which workload.
var perLayer = []metricDef{
	// The scan, replayed on traced requests' encoded windows.
	{Name: "core.probe_us", Unit: "us", Better: "lower"},
	{Name: "core.probe_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "core.probe_bw_fraction", Unit: "ratio", Better: "higher"},
	{Name: "core.probemulti_us_per_query", Unit: "us", Better: "lower"},
	{Name: "core.early_abandon_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.mapped_scan_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.resident_ratio", Unit: "ratio", Better: "higher"},
	// Kernel and memory ceilings.
	{Name: "bitvec.hamming_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "bitvec.multi8_ns_per_kib_query", Unit: "ns", Better: "lower"},
	{Name: "mem.read_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "mem.l2_read_gbps", Unit: "GB/s", Better: "higher"},
	// The encoders, replayed.
	{Name: "encoding.exact_us_per_window", Unit: "us", Better: "lower"},
	{Name: "encoding.approx_us_per_window", Unit: "us", Better: "lower"},
	{Name: "encoding.share_of_lookup", Unit: "ratio", Better: "lower"},
	// The core.Index seam of the HDC backend.
	{Name: "core.lookup_us", Unit: "us", Better: "lower"},
	{Name: "core.lookup_self_us", Unit: "us", Better: "lower"},
	{Name: "core.classify_us", Unit: "us", Better: "lower"},
	{Name: "core.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "core.windows_verified_per_query", Unit: "count", Better: "lower"},
	{Name: "core.candidate_waste_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.blocked_occupancy_mean", Unit: "count", Better: "higher"},
	// Build and storage, timed in set-up.
	{Name: "core.build_us_per_window", Unit: "us", Better: "lower"},
	{Name: "core.write_v3_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "core.open_mmap_ms", Unit: "ms", Better: "lower"},
	{Name: "core.open_heap_ms", Unit: "ms", Better: "lower"},
	{Name: "core.memory_footprint_mib", Unit: "MiB", Better: "lower"},
	// Mutation.
	{Name: "core.add_us_per_window", Unit: "us", Better: "lower"},
	{Name: "core.remove_us", Unit: "us", Better: "lower"},
	{Name: "core.segment_seals", Unit: "count", Better: "lower"},
	{Name: "core.compactions", Unit: "count", Better: "lower"},
	{Name: "core.segments_end", Unit: "count", Better: "lower"},
	{Name: "core.tombstone_ratio_end", Unit: "ratio", Better: "lower"},
	// The core.Index seam of the cobs backend.
	{Name: "cobs.lookup_us", Unit: "us", Better: "lower"},
	{Name: "cobs.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "cobs.candidate_waste_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cobs.build_us_per_window", Unit: "us", Better: "lower"},
	{Name: "cobs.memory_footprint_mib", Unit: "MiB", Better: "lower"},
	// Everything between the socket and the index.
	{Name: "server.exec_self_us", Unit: "us", Better: "lower"},
	{Name: "server.http_self_us", Unit: "us", Better: "lower"},
	{Name: "server.http_transport_self_us", Unit: "us", Better: "lower"},
	{Name: "genome.parse_us", Unit: "us", Better: "lower"},
	{Name: "wire.transport_self_us", Unit: "us", Better: "lower"},
	{Name: "wire.codec_us", Unit: "us", Better: "lower"},
	{Name: "wire.pipeline_depth_mean", Unit: "count", Better: "higher"},
	{Name: "wire.frames_per_request", Unit: "count", Better: "lower"},
	{Name: "coalesce.wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "coalesce.block_occupancy_mean", Unit: "count", Better: "higher"},
	// The driver's own diagnostics.
	{Name: "client.p99_us", Unit: "us", Better: "lower"},
	{Name: "client.p999_us", Unit: "us", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.error_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.late_p95_us", Unit: "us", Better: "lower"},
	{Name: "client.oracle_s", Unit: "s", Better: "lower"},
	// The Go runtime under the baseline load.
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "go.heap_inuse_mib", Unit: "MiB", Better: "lower"},
	{Name: "go.peak_rss_mib", Unit: "MiB", Better: "lower"},
	// How far the per-layer numbers can be trusted.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "trace.root_us", Unit: "us", Better: "lower"},
	{Name: "trace.accounted_ratio", Unit: "ratio", Better: "higher"},
}

// values is one run's metrics by name.
type values map[string]float64
