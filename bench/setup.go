package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cobs"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/wire"
)

// built is a frozen index plus what building it cost.
type built struct {
	idx core.Index
	lib *core.Library // the same index when the backend is HDC, for the replays

	windows int
	buildS  float64 // Add/AddConcurrent + Freeze
	v3Bytes int64   // size of the served file (Mmap workloads only)
}

// buildIndex runs the workload's build: memorize every reference,
// freeze, and for the mmap workload save to v3 under dir and reopen
// mapped. The returned index must be Closed.
func buildIndex(w workload, refs []genome.Record, dir string) (*built, error) {
	b := &built{}
	start := time.Now()
	switch w.Backend {
	case core.BackendHDC:
		lib, err := core.NewLibrary(core.Params{
			Dim: hdcDim, Window: window, Stride: 1, Capacity: w.Capacity,
			Approx: w.Approx, Sealed: true, MutTolerance: w.MutTol, Seed: itemSeed,
		})
		if err != nil {
			return nil, err
		}
		if err := lib.AddConcurrent(refs, runtime.GOMAXPROCS(0)); err != nil {
			return nil, err
		}
		lib.Freeze()
		b.idx, b.lib = lib, lib
	case "cobs":
		x, err := cobs.New(cobs.Params{Window: window})
		if err != nil {
			return nil, err
		}
		for _, rec := range refs {
			if err := x.Add(rec); err != nil {
				return nil, err
			}
		}
		x.Freeze()
		b.idx = x
	default:
		return nil, fmt.Errorf("workload %s: unknown backend %q", w.Name, w.Backend)
	}
	b.buildS = time.Since(start).Seconds()
	b.windows = b.idx.NumWindows()

	if w.Mmap {
		path := filepath.Join(dir, w.Name+".v3")
		var err error
		if b.v3Bytes, err = saveV3(b.idx, path); err != nil {
			return nil, err
		}
		if err := b.idx.Close(); err != nil {
			return nil, err
		}
		idx, err := core.OpenLibraryFile(path, core.MapArena)
		if err != nil {
			return nil, err
		}
		lib, ok := idx.(*core.Library)
		if !ok || !idx.Mapped() {
			return nil, errors.Join(fmt.Errorf("workload %s: %s did not open memory-mapped", w.Name, path), idx.Close())
		}
		b.idx, b.lib = idx, lib
	}
	if w.SealThreshold > 0 {
		b.idx.SetSealThreshold(w.SealThreshold)
	}
	if w.AutoCompact > 0 {
		b.idx.SetAutoCompact(w.AutoCompact)
	}
	return b, nil
}

// saveV3 writes idx to path and returns the bytes written.
func saveV3(idx core.Index, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := idx.WriteToV3(f)
	if err != nil {
		return n, errors.Join(err, f.Close())
	}
	return n, f.Close()
}

// answer is a response reduced to what the oracle judges.
type answer struct {
	Hits []hit  // search
	Ref  string // classify; "" when no reference reached the support
}

// service is one wired-up instance of the program under test: the
// index behind the workload's transport, with one caller function per
// closed-loop client. When rec is set every seam the harness wires is
// wrapped in a span recorder.
type service struct {
	w   workload
	idx core.Index // as served: decorated when traced
	rec *recorder
	reg *metrics.Registry // nil in process

	// call issues one request on behalf of client c. ctx bounds the
	// phase, not the request: a request past requestDeadline is failed
	// by the driver when it returns.
	call func(ctx context.Context, c int, q *query) (answer, error)
	// The writer's connection (churn only).
	addRef    func(ctx context.Context, rec genome.Record) error
	removeRef func(ctx context.Context, id string) error
	probe     func(ctx context.Context, q *query) (answer, error)

	// stop shuts the service down and waits for everything it started;
	// a second call does nothing.
	stop func() error
}

// startService puts idx behind the workload's transport and dials the
// workload's connections.
func startService(w workload, idx core.Index, rec *recorder) (*service, error) {
	svc := &service{w: w, idx: idx, rec: rec}
	switch w.Via {
	case viaInproc:
		if rec != nil {
			svc.idx = &tracedIndex{Index: idx, rec: rec, parent: spanClient}
		}
		served := svc.idx
		svc.call = func(_ context.Context, _ int, q *query) (answer, error) { return callIndex(served, w, q) }
		svc.stop = func() error { return nil }
		return svc, nil
	case viaWire:
		return startWire(svc)
	case viaHTTP:
		return startHTTP(svc)
	}
	return nil, fmt.Errorf("workload %s: unknown transport %q", w.Name, w.Via)
}

// callIndex is the in-process client: the same calls the exec layer
// makes, minus everything in front of them.
func callIndex(idx core.Index, w workload, q *query) (answer, error) {
	if w.Classify {
		best, _, err := idx.Classify(q.Seq, classifyFrac)
		if errors.Is(err, core.ErrNoSupport) {
			return answer{}, nil
		}
		if err != nil {
			return answer{}, err
		}
		return answer{Ref: idx.Ref(best.Ref).ID}, nil
	}
	matches, _, err := idx.Lookup(q.Seq)
	if err != nil {
		return answer{}, err
	}
	hits := make([]hit, len(matches))
	for i, m := range matches {
		hits[i] = hit{Ref: idx.Ref(m.Ref).ID, Off: m.Off}
	}
	return answer{Hits: hits}, nil
}

func newServer(svc *service, parent string) (*server.Server, error) {
	if svc.rec != nil {
		svc.idx = &tracedIndex{Index: svc.idx, rec: svc.rec, parent: parent}
	}
	s, err := server.New(svc.idx)
	if err != nil {
		return nil, err
	}
	svc.reg = s.Registry()
	return s, nil
}

func startWire(svc *service) (*service, error) {
	s, err := newServer(svc, spanBackend)
	if err != nil {
		return nil, err
	}
	backend := s.WireBackend()
	if svc.rec != nil {
		backend = tracedBackend{Backend: backend, rec: svc.rec}
	}
	ws := wire.NewServer(backend, s.Registry(), wire.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- ws.Serve(ln) }()
	var clients []*wire.Client
	svc.stop = sync.OnceValue(func() error {
		var errs []error
		for _, cl := range clients {
			errs = append(errs, cl.Close())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		errs = append(errs, ws.Shutdown(ctx))
		if err := <-served; !errors.Is(err, wire.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.Close()
		return errors.Join(errs...)
	})
	// One single-connection client per socket: callers pinned to a
	// socket pipeline on it, as the workload table states.
	for i := 0; i < svc.w.Conns; i++ {
		cl, err := wire.Dial(ln.Addr().String(), wire.ClientConfig{Conns: 1})
		if err != nil {
			return nil, errors.Join(err, svc.stop())
		}
		clients = append(clients, cl)
	}
	w := svc.w
	svc.call = func(ctx context.Context, c int, q *query) (answer, error) {
		cl := clients[c%len(clients)]
		if w.Classify {
			res, err := cl.Classify(ctx, q.Text, classifyFrac)
			var se *wire.StatusError
			if errors.As(err, &se) && se.Code == http.StatusNotFound {
				return answer{}, nil
			}
			return answer{Ref: res.Ref}, err
		}
		res, err := cl.Search(ctx, q.Text, false)
		if err != nil {
			return answer{}, err
		}
		hits := make([]hit, len(res.Matches))
		for i, m := range res.Matches {
			hits[i] = hit{Ref: m.Ref, Off: m.Offset}
		}
		return answer{Hits: hits}, nil
	}
	return svc, nil
}

func startHTTP(svc *service) (*service, error) {
	s, err := newServer(svc, spanHandler)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	hs := s.HTTPServer(ln.Addr().String())
	if svc.rec != nil {
		hs.Handler = traceHandler(hs.Handler, svc.rec)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	// One keep-alive connection per client, never more: each
	// http.Client owns a transport capped at a single connection.
	clients := make([]*http.Client, svc.w.Conns)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	svc.stop = sync.OnceValue(func() error {
		for _, cl := range clients {
			cl.CloseIdleConnections()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		s.Close()
		return err
	})
	base := "http://" + ln.Addr().String()
	traced := svc.rec != nil
	search := func(ctx context.Context, cl *http.Client, q *query) (answer, error) {
		var resp server.SearchResponse
		err := roundTrip(ctx, cl, http.MethodPost, base+"/v1/search", q.Text, traced,
			server.SearchRequest{Pattern: q.Text}, http.StatusOK, &resp)
		if err != nil {
			return answer{}, err
		}
		hits := make([]hit, len(resp.Matches))
		for i, m := range resp.Matches {
			hits[i] = hit{Ref: m.Ref, Off: m.Offset}
		}
		return answer{Hits: hits}, nil
	}
	// The last connection is the writer's; readers share the others.
	writer, readers := clients[len(clients)-1], clients[:max(len(clients)-1, 1)]
	svc.call = func(ctx context.Context, c int, q *query) (answer, error) {
		return search(ctx, readers[c%len(readers)], q)
	}
	svc.probe = func(ctx context.Context, q *query) (answer, error) { return search(ctx, writer, q) }
	svc.addRef = func(ctx context.Context, rec genome.Record) error {
		return roundTrip(ctx, writer, http.MethodPost, base+"/v1/refs", rec.ID, traced,
			server.AddRefRequest{ID: rec.ID, Sequence: rec.Seq.String()}, http.StatusCreated, nil)
	}
	svc.removeRef = func(ctx context.Context, id string) error {
		return roundTrip(ctx, writer, http.MethodDelete, base+"/v1/refs/"+id, id, traced, nil, http.StatusOK, nil)
	}
	return svc, nil
}

// roundTrip sends one JSON request and decodes the JSON answer into
// out (nil: drain it). A status other than want is an error carrying
// the body. traced adds the request-identifier header.
func roundTrip(ctx context.Context, cl *http.Client, method, url, request string, traced bool, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traced {
		req.Header.Set(traceHeader, request)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the error
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return err
		}
	}
	// Read to EOF so the keep-alive connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
