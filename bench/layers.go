package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/metrics"
	"repro/internal/wire"
)

const usPerNs = 1e-3

// tracedPass is what one pass of distinct requests over a decorated
// service produced.
type tracedPass struct {
	qps      float64
	answers  []answer // by trace-pool position
	tally    tally
	writer   writerRun
	counters core.Counters // index counter deltas over the pass
}

// runTraced issues every query of the trace pool exactly once across
// the workload's closed-loop clients, timing each call as the root
// span. For churn the writer runs beside them until they finish.
func runTraced(svc *service, trace []query, churn *churnState) tracedPass {
	w, rec := svc.w, svc.rec
	clients := w.clients()
	out := tracedPass{answers: make([]answer, len(trace))}
	tallies := make([]tally, clients)
	before := svc.idx.Counters()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(trace); i += clients {
				q := &trace[i]
				t0 := rec.now()
				a, err := svc.call(ctx, c, q)
				t1 := rec.now()
				rec.add(q.Text, spanClient, "", t0, t1)
				tallies[c].judge(w, q, a, err, time.Duration(t1-t0))
				out.answers[i] = a
			}
		}(c)
	}
	if churn != nil {
		// The writer runs until the readers have issued every query.
		stop, cancel := context.WithCancel(ctx)
		readersDone := make(chan struct{})
		go func() {
			wg.Wait()
			cancel()
			close(readersDone)
		}()
		out.writer = churn.run(ctx, stop, svc, measureWindow{start: start, segment: time.Hour, segments: 1})
		<-readersDone
	}
	wg.Wait()
	out.qps = float64(len(trace)) / time.Since(start).Seconds()
	out.counters = countersSince(svc.idx.Counters(), before)
	for _, t := range tallies {
		out.tally.merge(t)
	}
	out.tally.merge(out.writer.tally)
	return out
}

// countersSince is the work an index counted between two snapshots.
func countersSince(after, before core.Counters) core.Counters {
	return core.Counters{
		BucketProbes:   after.BucketProbes - before.BucketProbes,
		EarlyAbandons:  after.EarlyAbandons - before.EarlyAbandons,
		BlockedProbes:  after.BlockedProbes - before.BlockedProbes,
		BlockedWindows: after.BlockedWindows - before.BlockedWindows,
		SegmentSeals:   after.SegmentSeals - before.SegmentSeals,
		Compactions:    after.Compactions - before.Compactions,
		MappedScans:    after.MappedScans - before.MappedScans,
		HeapScans:      after.HeapScans - before.HeapScans,
	}
}

// servedDiffers counts traced requests whose served answer is not the
// answer the same index gives in process for the same query.
func servedDiffers(plain core.Index, w workload, trace []query, served []answer) (int, string) {
	n, first := 0, ""
	for i := range trace {
		want, err := callIndex(plain, w, &trace[i])
		if err == nil && want.Ref == served[i].Ref && sameHits(want.Hits, served[i].Hits) {
			continue
		}
		n++
		if first == "" {
			first = fmt.Sprintf("%s: served %+v, in process %+v (err %v)", trace[i].Text, served[i], want, err)
		}
	}
	return n, first
}

// timeEach runs fn once per item on workers goroutines and returns the
// per-call times in nanoseconds. Replays run under the same concurrency
// as the workload's clients, so a replayed layer contends for cache and
// memory bandwidth the way it did inside the request.
func timeEach(n, workers int, fn func(worker, i int)) []float64 {
	out := make([]float64, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				start := time.Now()
				fn(w, i)
				out[i] = float64(time.Since(start))
			}
		}(w)
	}
	wg.Wait()
	return out
}

// replayCore feeds the sampled traced queries to the public functions
// below the core.Index seam, which nothing can wrap. Per query, back to
// back and under the same concurrency: encode its windows, scan for
// them (Probe for one window, ProbeMulti for a read's block), and make
// the whole Lookup/Classify call; what the whole call takes beyond its
// encode and scan is verify and merge. The in-situ core.index span is
// split by these shares.
func replayCore(lib *core.Library, w workload, sample []query, workers int, v values) error {
	p := lib.Params()
	enc := lib.Encoder()
	type scratch struct {
		hvs []*hdc.HV
		acc *hdc.Acc
		err error
	}
	scr := make([]scratch, workers)
	for i := range scr {
		scr[i].acc = hdc.NewAcc(p.Dim)
		for j := 0; j < core.BlockWidth; j++ {
			scr[i].hvs = append(scr[i].hvs, hdc.NewHV(p.Dim))
		}
	}
	encode := func(sc *scratch, q *query) int {
		n := 0
		for off := 0; off+p.Window <= q.Seq.Len() && n < len(sc.hvs); off += p.Window {
			if p.Approx {
				enc.EncodeWindowApproxInto(sc.hvs[n], sc.acc, q.Seq, off)
			} else {
				enc.EncodeWindowExactInto(sc.hvs[n], q.Seq, off)
			}
			n++
		}
		return n
	}

	first := make([]*hdc.HV, len(sample)) // each query's first window, for the block scans below
	encNs := make([]float64, len(sample))
	encShare, selfNs := make([]float64, len(sample)), make([]float64, len(sample))
	before := lib.Counters()
	timeEach(len(sample), workers, func(wk, i int) {
		sc, q := &scr[wk], &sample[i]
		t0 := time.Now()
		n := encode(sc, q)
		t1 := time.Now()
		var st core.Stats
		var err error
		if n == 1 {
			_, err = lib.Probe(sc.hvs[0], &st)
		} else {
			_, err = lib.ProbeMulti(sc.hvs[:n], &st)
		}
		t2 := time.Now()
		if _, cerr := callIndex(lib, w, q); err == nil {
			err = cerr
		}
		whole := float64(time.Since(t2))
		if err != nil {
			sc.err = err
		}
		first[i] = sc.hvs[0].Clone()
		encNs[i] = float64(t1.Sub(t0)) / float64(n)
		encShare[i] = ratio(float64(t1.Sub(t0)), whole)
		selfNs[i] = whole - float64(t2.Sub(t0))
	})
	work := countersSince(lib.Counters(), before)
	if p.Approx {
		v["encoding.approx_us_per_window"] = median(encNs) * usPerNs
	} else {
		v["encoding.exact_us_per_window"] = median(encNs) * usPerNs
	}
	v["encoding.share_of_lookup"] = median(encShare)
	v["core.lookup_self_us"] = median(selfNs) * usPerNs
	v["core.early_abandon_ratio"] = ratio(float64(work.EarlyAbandons), float64(work.BucketProbes))
	v["core.mapped_scan_ratio"] = ratio(float64(work.MappedScans), float64(work.MappedScans+work.HeapScans))

	// The other mode's encoder on a few queries, so both rates are on
	// every row (the approximate encoder is the slow one by ~50x).
	few := sample[:min(len(sample), 32)]
	other := timeEach(len(few), workers, func(wk, i int) {
		if p.Approx {
			enc.EncodeWindowExactInto(scr[wk].hvs[0], few[i].Seq, 0)
		} else {
			enc.EncodeWindowApproxInto(scr[wk].hvs[0], scr[wk].acc, few[i].Seq, 0)
		}
	})
	if p.Approx {
		v["encoding.exact_us_per_window"] = median(other) * usPerNs
	} else {
		v["encoding.approx_us_per_window"] = median(other) * usPerNs
	}

	// One-window and full-block scans of the same encoded windows.
	probe := timeEach(len(first), workers, func(wk, i int) {
		var st core.Stats
		if _, err := lib.Probe(first[i], &st); err != nil {
			scr[wk].err = err
		}
	})
	multi := timeEach(len(first)/core.BlockWidth, workers, func(wk, i int) {
		var st core.Stats
		if _, err := lib.ProbeMulti(first[i*core.BlockWidth:(i+1)*core.BlockWidth], &st); err != nil {
			scr[wk].err = err
		}
	})
	for i := range scr {
		if scr[i].err != nil {
			return scr[i].err
		}
	}
	v["core.probe_us"] = median(probe) * usPerNs
	v["core.probe_gbps"] = ratio(float64(lib.MemoryFootprint()), median(probe)) // bytes per ns = GB/s
	v["core.probemulti_us_per_query"] = median(multi) * usPerNs / core.BlockWidth
	v["core.resident_ratio"] = 1
	if lib.Mapped() {
		v["core.resident_ratio"] = ratio(float64(lib.ResidentBytes()), float64(lib.MappedBytes()))
	}
	return nil
}

// replayEdges times the work either side of the index that no seam
// separates on a served workload: pattern parsing (the exec layer's
// first step) and, on the wire, the codecs for the same request and its
// answer.
func replayEdges(w workload, sample []query, answers []answer, v values) error {
	var err error
	parse := timeEach(len(sample), 1, func(_, i int) {
		if _, perr := genome.FromString(strings.ToUpper(sample[i].Text)); perr != nil {
			err = perr
		}
	})
	v["genome.parse_us"] = median(parse) * usPerNs
	if w.Via != viaWire {
		return err
	}
	buf := make([]byte, 0, 4096)
	codec := timeEach(len(sample), 1, func(_, i int) {
		res := wire.SearchResult{}
		for _, h := range answers[i].Hits {
			res.Matches = append(res.Matches, wire.Match{Ref: h.Ref, Offset: h.Off, Strand: "+"})
		}
		buf = wire.AppendSearchRequest(buf[:0], []byte(sample[i].Text), false)
		if _, _, cerr := wire.ParseSearchRequest(buf); cerr != nil {
			err = cerr
		}
		buf = wire.AppendSearchResult(buf[:0], &res)
		if _, cerr := wire.ParseSearchResult(buf); cerr != nil {
			err = cerr
		}
	})
	v["wire.codec_us"] = median(codec) * usPerNs
	return err
}

var sink int // keeps the ceiling loops' results alive

// ceilings measures what the machine can do, on one thread: the scan
// kernels on cache-resident rows (the compute ceiling) and a read of a
// buffer the size of the arena and of 1 MiB (the bandwidth ceiling).
// The read uses bytes.IndexByte, the runtime's vectorised scan: a plain
// Go summing loop tops out below the SIMD probe kernel and would not be
// a ceiling.
func ceilings(arenaBytes int64, v values) {
	const rowWords = hdcDim / 64
	row := make([]uint64, rowWords)
	qs := make([][]uint64, bitvec.MaxMultiQueries)
	for i := range qs {
		qs[i] = make([]uint64, rowWords)
		qs[i][i] = ^uint64(0)
	}
	dist := make([]int, len(qs))
	const reps = 200_000
	kib := float64(rowWords*8) / 1024
	start := time.Now()
	for i := 0; i < reps; i++ {
		sink += bitvec.HammingWords(row, qs[i%len(qs)])
	}
	v["bitvec.hamming_ns_per_kib"] = float64(time.Since(start)) / reps / kib
	start = time.Now()
	for i := 0; i < reps/4; i++ {
		bitvec.HammingMulti(row, qs, dist)
		sink += dist[0]
	}
	v["bitvec.multi8_ns_per_kib_query"] = float64(time.Since(start)) / (reps / 4) / kib / float64(len(qs))

	v["mem.read_gbps"] = readGBps(int(max(arenaBytes, 1<<20)))
	v["mem.l2_read_gbps"] = readGBps(1 << 20)
}

// readGBps reads an n-byte buffer end to end repeatedly (at least
// 256 MiB in all) and returns the median pass's bytes per nanosecond.
func readGBps(n int) float64 {
	buf := bytes.Repeat([]byte{1}, n)
	passes := max(3, (256<<20)/n)
	times := make([]float64, passes)
	for p := range times {
		start := time.Now()
		sink += bytes.IndexByte(buf, 0xff)
		times[p] = float64(time.Since(start))
	}
	return ratio(float64(n), median(times))
}

// storage times the v3 round trip in both load modes (trace runs only;
// set-up pays for it only on the workload that serves from the file).
func storage(b *built, dir string, v values) error {
	path := filepath.Join(dir, "storage.v3")
	start := time.Now()
	n, err := saveV3(b.idx, path)
	if err != nil {
		return err
	}
	v["core.write_v3_mbps"] = ratio(float64(n)/1e6, time.Since(start).Seconds())
	for _, mode := range []struct {
		name string
		mode core.LoadMode
	}{{"core.open_heap_ms", core.LoadHeap}, {"core.open_mmap_ms", core.MapArena}} {
		start = time.Now()
		idx, err := core.OpenLibraryFile(path, mode.mode)
		if err != nil {
			return err
		}
		v[mode.name] = time.Since(start).Seconds() * 1e3
		if err := idx.Close(); err != nil {
			return err
		}
	}
	return os.Remove(path)
}

// histMean reads the mean of a registry histogram the program under
// test maintains. Registering the same name again returns the live
// series; the bounds are only used if the series did not exist.
func histMean(reg *metrics.Registry, name string) float64 {
	h := reg.Histogram(name, "", metrics.DefBuckets)
	return ratio(h.Sum(), float64(h.Count()))
}

// readMemStats snapshots the allocator and collector counters a load
// phase is bracketed with.
func readMemStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// goMetrics fills the go.* metrics for a phase of ops requests.
func goMetrics(before, after runtime.MemStats, ops int, v values) {
	v["go.allocs_per_op"] = ratio(float64(after.Mallocs-before.Mallocs), float64(ops))
	v["go.gc_pause_ms_total"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	v["go.heap_inuse_mib"] = float64(after.HeapInuse) / (1 << 20)
	v["go.peak_rss_mib"] = peakRSSMiB()
}

// peakRSSMiB reads VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// attribute turns the recorded spans, the work counts and the replays
// into the per-layer metrics of the request path, and checks that the
// self times along the root span account for it.
func attribute(svc *service, b *built, pass tracedPass, v values) {
	w, rec := svc.w, svc.rec
	self, dur := selfTimes(rec.spans), durations(rec.spans)
	us := func(ns []float64) float64 { return median(ns) * usPerNs }

	root := us(dur[spanClient])
	v["trace.spans"] = float64(len(rec.spans))
	v["trace.root_us"] = root

	index := us(dur[spanIndex])
	calls := float64(rec.calls)
	prefix := "core."
	if w.Backend != core.BackendHDC {
		prefix = w.Backend + "."
	}
	if w.Classify {
		v[prefix+"classify_us"] = index
	} else {
		v[prefix+"lookup_us"] = index
	}
	v[prefix+"candidates_per_query"] = ratio(float64(rec.work.CandidateBuckets), calls)
	// A candidate bucket is useful when verification finds a match in
	// it; matches found bound the useful ones from above.
	wasted := max(rec.work.CandidateBuckets-rec.found, 0)
	v[prefix+"candidate_waste_ratio"] = ratio(float64(wasted), float64(rec.work.CandidateBuckets))
	v[prefix+"build_us_per_window"] = ratio(b.buildS*1e6, float64(b.windows))
	v[prefix+"memory_footprint_mib"] = float64(b.idx.MemoryFootprint()) / (1 << 20)

	if b.lib != nil {
		v["core.windows_verified_per_query"] = ratio(float64(rec.work.WindowsVerified), calls)
		v["core.blocked_occupancy_mean"] = ratio(float64(pass.counters.BlockedWindows), float64(pass.counters.BlockedProbes))
	}

	// Self times along the root span: each wrapped seam's own, down to
	// the index span (which replayCore splits further).
	accounted := us(self[spanClient]) + us(self[spanIndex])
	switch w.Via {
	case viaWire:
		v["wire.transport_self_us"] = us(self[spanClient])
		// The coalescer's queue wait lies inside the backend span and
		// outside the index span, but only queued requests have one (a
		// lone request runs directly), so it is taken off as a mean over
		// every request, from the mean backend self time.
		waits := svc.reg.Histogram("biohd_coalesce_wait_seconds", "", metrics.DefBuckets)
		v["coalesce.wait_us_mean"] = ratio(waits.Sum(), float64(waits.Count())) * 1e6
		v["coalesce.block_occupancy_mean"] = histMean(svc.reg, "biohd_coalesce_block_occupancy")
		v["server.exec_self_us"] = mean(self[spanBackend])*usPerNs - ratio(waits.Sum()*1e6, float64(len(self[spanBackend])))
		v["wire.pipeline_depth_mean"] = histMean(svc.reg, "biohd_wire_pipeline_depth")
		frames := svc.reg.Counter("biohd_wire_frames_total", "", metrics.Label{Key: "opcode", Value: wire.OpSearch.String()})
		v["wire.frames_per_request"] = ratio(float64(frames.Value()), float64(pass.tally.Attempted))
		accounted += us(self[spanBackend])
	case viaHTTP:
		v["server.http_transport_self_us"] = us(self[spanClient])
		v["server.http_self_us"] = us(self[spanHandler])
		accounted += us(self[spanHandler])
	}
	v["trace.accounted_ratio"] = ratio(accounted, root)

	if w.Churn {
		v["core.add_us_per_window"] = ratio(sum(dur[spanAdd])*usPerNs, float64(rec.added))
		v["core.remove_us"] = us(dur[spanRemove])
		v["core.segment_seals"] = float64(pass.counters.SegmentSeals)
		v["core.compactions"] = float64(pass.counters.Compactions)
		var ws []float64
		for _, seg := range pass.writer.write {
			ws = append(ws, seg...)
		}
		v["client.write_p50_us"] = median(ws)
		late := append([]float64(nil), pass.writer.late...)
		sort.Float64s(late)
		v["client.late_p95_us"] = percentile(late, 0.95)
	}
	v["core.segments_end"] = float64(b.idx.NumSegments())
	v["core.tombstone_ratio_end"] = b.idx.TombstoneRatio()
}

// writeTrace stores the spans of one workload's traced pass as one JSON
// array, a span per line.
func writeTrace(dir, name string, spans []span) error {
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f) // a failed write surfaces at Flush
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "[\n")
	for i := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(&spans[i]); err != nil { // ends the line
			return errors.Join(err, f.Close())
		}
	}
	fmt.Fprint(w, "]\n")
	return errors.Join(w.Flush(), f.Close())
}
