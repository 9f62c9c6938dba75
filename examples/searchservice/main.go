// Searchservice: the platform as a service. Builds a library, serves it
// over the HTTP JSON API on a loopback port with production lifecycle
// settings (connection timeouts, per-request deadline), and exercises
// the API as a client would — stats, single search, both-strand search,
// read classification, a batch, and the Prometheus metrics — then
// drains the server gracefully.
//
//	go run ./examples/searchservice
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	// 1. Library over two synthetic chromosomes.
	src := rng.New(41)
	chr1, chr2 := genome.Random(8_000, src), genome.Random(8_000, src)
	lib, err := core.NewLibrary(core.Params{Dim: 8192, Window: 32, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	must(lib.Add(genome.Record{ID: "chr1", Seq: chr1}))
	must(lib.Add(genome.Record{ID: "chr2", Seq: chr2}))
	lib.Freeze()

	// 2. Serve on an ephemeral loopback port with lifecycle timeouts:
	// a production-shaped http.Server, not a bare http.Serve.
	srv, err := server.New(lib, server.WithConfig(server.Config{
		RequestTimeout: 10 * time.Second,
	}))
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := srv.HTTPServer(ln.Addr().String())
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// 3. Stats.
	var stats wire.StatsResult
	getJSON(base+"/v1/stats", &stats)
	fmt.Printf("stats: %d refs, %d buckets, D=%d, %.0f KiB\n",
		stats.References, stats.Buckets, stats.Dim, float64(stats.MemBytes)/1024)

	// 4. Single search for a planted pattern.
	var sr wire.SearchResult
	postJSON(base+"/v1/search", server.SearchRequest{
		Pattern: chr2.Slice(4000, 4032).String(),
	}, &sr)
	fmt.Printf("search: %d match(es), %d probes\n", len(sr.Matches), sr.Probes)
	for _, m := range sr.Matches {
		fmt.Printf("  %s:%d (%s)\n", m.Ref, m.Offset, m.Strand)
	}

	// 5. Both strands: query the reverse complement.
	var sr2 wire.SearchResult
	postJSON(base+"/v1/search", server.SearchRequest{
		Pattern: chr1.Slice(100, 132).ReverseComplement().String(),
		Strands: "both",
	}, &sr2)
	for _, m := range sr2.Matches {
		fmt.Printf("revcomp search: %s:%d strand=%s\n", m.Ref, m.Offset, m.Strand)
	}

	// 6. Classify a 320-base read.
	var cr wire.ClassifyResult
	postJSON(base+"/v1/classify", server.ClassifyRequest{
		Read: chr1.Slice(2000, 2320).String(),
	}, &cr)
	fmt.Printf("classify: %s offset=%d support=%.0f%%\n", cr.Ref, cr.Offset, 100*cr.Fraction)

	// 7. Batch of three patterns.
	var br wire.BatchResult
	postJSON(base+"/v1/batch", server.BatchRequest{Patterns: []string{
		chr1.Slice(50, 82).String(),
		chr2.Slice(50, 82).String(),
		genome.Random(32, src).String(),
	}}, &br)
	for i, item := range br.Results {
		fmt.Printf("batch[%d]: %d match(es)\n", i, len(item.Matches))
	}

	// 8. Metrics: every request above was counted and timed.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	must(resp.Body.Close())
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "biohd_http_requests_total") ||
			strings.HasPrefix(line, "biohd_core_bucket_probes_total") {
			fmt.Println("metric:", line)
		}
	}

	// 9. Graceful shutdown: stop accepting, drain in-flight requests.
	if err := hs.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != http.ErrServerClosed {
		log.Fatal(err)
	}
	fmt.Println("server drained cleanly")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func getJSON(url string, v interface{}) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}

func postJSON(url string, body, v interface{}) {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
