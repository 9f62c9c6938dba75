package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/wire"
)

// cmdWire is a client for the binary wire protocol (serve
// -wire-addr): one-shot searches, classification, stats, and ping,
// with -n issuing that many pipelined copies of the request on one
// connection — the smoke test uses it to drive the server's reader
// path through the wire transport and assert all pipelined answers
// agree.
func cmdWire(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wire", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8651", "wire-protocol server address")
	pattern := fs.String("pattern", "", "pattern to search")
	strands := fs.String("strands", "forward", `strand mode: "forward" or "both"`)
	n := fs.Int("n", 1, "pipelined copies of the search request")
	read := fs.String("classify", "", "read to classify")
	minFrac := fs.Float64("minfrac", 0, "classify minimum support fraction (0 = server default)")
	stats := fs.Bool("stats", false, "fetch library stats")
	ping := fs.Bool("ping", false, "round-trip a PING frame")
	timeout := fs.Duration("timeout", 30*time.Second, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl, err := wire.Dial(*addr, wire.ClientConfig{})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch {
	case *ping:
		if err := cl.Ping(ctx); err != nil {
			return err
		}
		fmt.Fprintln(out, "pong")
		return nil
	case *stats:
		st, err := cl.Stats(ctx)
		if err != nil {
			return err
		}
		return printJSON(out, st)
	case *read != "":
		res, err := cl.Classify(ctx, *read, *minFrac)
		if err != nil {
			return err
		}
		return printJSON(out, res)
	case *pattern != "":
		return wireSearch(ctx, out, cl, *pattern, *strands, *n)
	}
	return fmt.Errorf("nothing to do: pass -pattern, -classify, -stats, or -ping")
}

// wireSearch issues n pipelined copies of one search and verifies the
// responses agree before printing the shared answer.
func wireSearch(ctx context.Context, out io.Writer, cl *wire.Client, pattern, strands string, n int) error {
	both := false
	switch strands {
	case "", "forward":
	case "both":
		both = true
	default:
		return fmt.Errorf(`-strands must be "forward" or "both"`)
	}
	if n < 1 {
		n = 1
	}
	results := make([]wire.SearchResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cl.Search(ctx, pattern, both)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	first, err := json.Marshal(results[0])
	if err != nil {
		return err
	}
	for i := 1; i < n; i++ {
		b, err := json.Marshal(results[i])
		if err != nil {
			return err
		}
		if string(b) != string(first) {
			return fmt.Errorf("pipelined response %d disagrees with response 0", i)
		}
	}
	if n > 1 {
		fmt.Fprintf(out, "%d pipelined responses identical\n", n)
	}
	_, err = fmt.Fprintf(out, "%s\n", first)
	return err
}

// printJSON writes v as one line of JSON, the same marshal the HTTP
// API would answer with.
func printJSON(out io.Writer, v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
