package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/accel"
	"repro/internal/cobs"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/genome"
	"repro/internal/pim"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// cmdServe exposes a library over HTTP (see internal/server for the
// API). The library is built from -ref or loaded from -lib.
//
// Lifecycle: the server runs until SIGINT/SIGTERM, then stops accepting
// connections and drains in-flight requests for up to -drain before
// exiting. A clean drain exits 0; overrunning the drain deadline is an
// error.
func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	lf := addLibFlags(fs)
	refFile := fs.String("ref", "", "reference FASTA")
	libFile := fs.String("lib", "", "saved library file (alternative to -ref)")
	mmapLib := fs.Bool("mmap", false, "map the -lib file instead of loading it to the heap (heap fallback, with the reason printed, on a platform that cannot map)")
	addr := fs.String("addr", "127.0.0.1:8650", "listen address")
	wireAddr := fs.String("wire-addr", "", "binary wire-protocol listen address (empty = HTTP only)")
	wireMaxFrame := fs.Int("wire-max-frame", wire.DefaultMaxFrame, "max wire-protocol frame payload in bytes")
	cfg := server.DefaultConfig()
	fs.DurationVar(&cfg.ReadHeaderTimeout, "header-timeout", cfg.ReadHeaderTimeout, "request header read timeout")
	fs.DurationVar(&cfg.ReadTimeout, "read-timeout", cfg.ReadTimeout, "full request read timeout")
	fs.DurationVar(&cfg.WriteTimeout, "write-timeout", cfg.WriteTimeout, "response write timeout")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", cfg.IdleTimeout, "keep-alive idle connection timeout")
	fs.DurationVar(&cfg.RequestTimeout, "request-timeout", cfg.RequestTimeout, "per-request handler deadline (cancels in-flight batches)")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline after SIGINT/SIGTERM")
	quiet := fs.Bool("quiet", false, "disable per-request logging")
	sealThreshold := fs.Int("seal-threshold", 0, "buckets in the active segment before live ingest seals it (0 = default)")
	compactTrigger := fs.Float64("compact-trigger", 0, "tombstone ratio that auto-compacts a segment after DELETE (0 = manual compaction only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compactTrigger < 0 || *compactTrigger > 1 {
		return fmt.Errorf("-compact-trigger %v must be in [0, 1]", *compactTrigger)
	}
	var lib core.Index
	var err error
	if *mmapLib {
		if *libFile == "" {
			return fmt.Errorf("-mmap requires -lib (a saved library file)")
		}
		lib, err = core.OpenLibraryFile(*libFile, core.MapArena)
	} else {
		lib, err = loadOrBuild(*refFile, *libFile, lf)
	}
	if err != nil {
		return err
	}
	// Close unmaps a mapped library after in-flight probes drain; for a
	// heap library it is a cheap no-op.
	defer lib.Close()
	if *mmapLib {
		mode := "mapped"
		if !lib.Describe().Mapped {
			mode = "heap fallback (this platform or build cannot map files)"
		}
		fmt.Fprintf(out, "library load mode: %s\n", mode)
	}
	lib.SetSealThreshold(*sealThreshold)
	lib.SetAutoCompact(*compactTrigger)
	opts := []server.Option{server.WithConfig(cfg)}
	if !*quiet {
		opts = append(opts, server.WithLogger(log.New(out, "", log.LstdFlags)))
	}
	srv, err := server.New(lib, opts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := srv.HTTPServer(*addr)
	// Optional binary wire-protocol listener beside the HTTP server:
	// same backend, same registry, so answers and metrics are shared.
	var ws *wire.Server
	var wln net.Listener
	if *wireAddr != "" {
		ws = wire.NewServer(srv.WireBackend(), srv.Registry(), wire.ServerConfig{
			MaxFrame:       *wireMaxFrame,
			RequestTimeout: cfg.RequestTimeout,
			IdleTimeout:    cfg.IdleTimeout,
		})
		wln, err = net.Listen("tcp", *wireAddr)
		if err != nil {
			_ = ln.Close()
			return err
		}
	}
	info := lib.Describe()
	fmt.Fprintf(out, "serving %d references (%d buckets) on http://%s (drain %s)\n",
		info.References, info.Buckets, ln.Addr(), *drain)
	if ws != nil {
		fmt.Fprintf(out, "wire protocol on %s\n", wln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	servers := 1
	errc := make(chan error, 2)
	go func() { errc <- hs.Serve(ln) }()
	if ws != nil {
		servers = 2
		go func() { errc <- ws.Serve(wln) }()
	}
	select {
	case err := <-errc:
		// A listener failed before any signal arrived; surface it and
		// tear the sibling down.
		_ = hs.Close()
		if ws != nil {
			_ = ws.Close()
		}
		drainServeErrs(errc, servers-1)
		return filterClosed(err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process immediately
	fmt.Fprintf(out, "signal received; draining for up to %s\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownErr := hs.Shutdown(sctx)
	if ws != nil {
		// The same drain deadline bounds both transports.
		if werr := ws.Shutdown(sctx); shutdownErr == nil {
			shutdownErr = werr
		}
	}
	for i := 0; i < servers; i++ {
		if serveErr := filterClosed(<-errc); serveErr != nil {
			return serveErr
		}
	}
	if shutdownErr != nil {
		return fmt.Errorf("drain deadline exceeded: %w", shutdownErr)
	}
	fmt.Fprintln(out, "shutdown complete")
	return nil
}

// filterClosed drops the sentinel "server closed" errors that mark a
// clean shutdown on either transport.
func filterClosed(err error) error {
	if errors.Is(err, http.ErrServerClosed) || errors.Is(err, wire.ErrServerClosed) {
		return nil
	}
	return err
}

// drainServeErrs discards the remaining serve results after a
// teardown already has its cause.
func drainServeErrs(errc <-chan error, n int) {
	for i := 0; i < n; i++ {
		<-errc
	}
}

// cmdGen generates synthetic datasets as FASTA on stdout or -o.
func cmdGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	kind := fs.String("kind", "covid", "dataset kind: covid | random | reads")
	n := fs.Int("n", 16, "number of sequences (covid: variants, random: sequences, reads: reads)")
	length := fs.Int("len", 29903, "sequence length (random: per sequence, reads: read length, covid: ancestor)")
	gc := fs.Float64("gc", 0.5, "GC content for random sequences")
	errRate := fs.Float64("err", 0.005, "sequencing error rate for reads")
	refFile := fs.String("ref", "", "reference FASTA to sample reads from (required for kind=reads)")
	seed := fs.Uint64("seed", 1, "generator seed")
	output := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var recs []genome.Record
	switch *kind {
	case "covid":
		cfg := genome.DefaultVariantDBConfig()
		cfg.NumVariants, cfg.AncestorLen, cfg.Seed = *n, *length, *seed
		db, err := genome.GenerateVariantDB(cfg)
		if err != nil {
			return err
		}
		for _, v := range db.Variants {
			recs = append(recs, v.Record)
		}
	case "random":
		src := rng.New(*seed)
		for i := 0; i < *n; i++ {
			recs = append(recs, genome.Record{
				ID:  fmt.Sprintf("rand-%04d", i),
				Seq: genome.RandomGC(*length, *gc, src),
			})
		}
	case "reads":
		if *refFile == "" {
			return fmt.Errorf("gen -kind=reads requires -ref")
		}
		refs, err := readFASTAFile(*refFile)
		if err != nil {
			return err
		}
		var seqs []*genome.Sequence
		for _, r := range refs {
			seqs = append(seqs, r.Seq)
		}
		reads, err := genome.SampleReads(seqs, genome.ReadSamplerConfig{
			ReadLen: *length, NumReads: *n, ErrorRate: *errRate, Seed: *seed,
		})
		if err != nil {
			return err
		}
		for i, r := range reads {
			recs = append(recs, genome.Record{
				ID:          fmt.Sprintf("read-%05d", i),
				Description: fmt.Sprintf("source=%s offset=%d errors=%d", refs[r.SourceIdx].ID, r.Offset, r.Errors),
				Seq:         r.Seq,
			})
		}
	default:
		return fmt.Errorf("unknown dataset kind %q", *kind)
	}
	var w io.Writer = out
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return genome.WriteFASTA(w, recs, 70)
}

// libFlags declares the shared library-geometry flags.
type libFlags struct {
	dim, window, stride, capacity, tol int
	approx                             bool
	seed                               uint64
	mask                               string
	backend                            string
}

func addLibFlags(fs *flag.FlagSet) *libFlags {
	var lf libFlags
	fs.IntVar(&lf.dim, "dim", 8192, "hypervector dimension (multiple of 64)")
	fs.IntVar(&lf.window, "window", 32, "window length in bases")
	fs.IntVar(&lf.stride, "stride", 1, "reference window stride")
	fs.IntVar(&lf.capacity, "capacity", 0, "windows per bucket (0 = auto from model)")
	fs.IntVar(&lf.tol, "tol", 0, "substitution tolerance per window (>0 selects approximate mode)")
	fs.BoolVar(&lf.approx, "approx", false, "use the approximate (bundle) encoding")
	fs.Uint64Var(&lf.seed, "seed", 1, "item memory seed")
	fs.StringVar(&lf.mask, "mask", "reject", "ambiguity-code policy for FASTA input: reject | substitute | skip")
	fs.StringVar(&lf.backend, "backend", core.BackendHDC, "index backend built from -ref: hdc (hyperdimensional) | cobs (bit-sliced signatures)")
	return &lf
}

func (lf *libFlags) maskPolicy() (genome.MaskPolicy, error) {
	switch lf.mask {
	case "", "reject":
		return genome.MaskReject, nil
	case "substitute":
		return genome.MaskSubstitute, nil
	case "skip":
		return genome.MaskSkip, nil
	default:
		return 0, fmt.Errorf("unknown mask policy %q (reject | substitute | skip)", lf.mask)
	}
}

func (lf *libFlags) params() core.Params {
	approx := lf.approx || lf.tol > 0
	return core.Params{
		Dim: lf.dim, Window: lf.window, Stride: lf.stride, Capacity: lf.capacity,
		Approx: approx, MutTolerance: lf.tol, Seed: lf.seed,
	}
}

// loadOrBuild returns a frozen index: loaded from libFile when given
// (whatever backend the file is tagged for), else built as an HDC
// library from the FASTA at refFile with the flags' mask policy.
func loadOrBuild(refFile, libFile string, lf *libFlags) (core.Index, error) {
	if libFile != "" {
		return core.OpenLibraryFile(libFile, core.LoadHeap)
	}
	if refFile == "" {
		return nil, fmt.Errorf("either -ref (FASTA) or -lib (saved library) is required")
	}
	return buildIndexFromFASTA(refFile, lf)
}

// buildIndexFromFASTA builds a frozen index of the backend requested by
// -backend from the FASTA at path.
func buildIndexFromFASTA(path string, lf *libFlags) (core.Index, error) {
	policy, err := lf.maskPolicy()
	if err != nil {
		return nil, err
	}
	var idx core.Index
	switch lf.backend {
	case "", core.BackendHDC:
		idx, err = core.NewLibrary(lf.params())
	case cobs.BackendName:
		idx, err = cobs.New(cobs.Params{Window: lf.window})
	default:
		err = fmt.Errorf("unknown backend %q (registered: %s)", lf.backend, strings.Join(core.RegisteredBackends(), ", "))
	}
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	masked, err := genome.ReadFASTAWith(f, policy)
	if err != nil {
		return nil, err
	}
	for _, m := range masked {
		if err := idx.Add(m.Record); err != nil {
			return nil, err
		}
	}
	idx.Freeze()
	if !idx.Describe().Frozen {
		return nil, fmt.Errorf("no references long enough for window %d", lf.window)
	}
	return idx, nil
}

func readFASTAFile(path string) ([]genome.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return genome.ReadFASTA(f)
}

// cmdBuild builds a library, reports its shape and model numbers, and
// optionally saves it for later serving/searching.
func cmdBuild(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	lf := addLibFlags(fs)
	refFile := fs.String("ref", "", "reference FASTA (required)")
	output := fs.String("o", "", "save the built library to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refFile == "" {
		return fmt.Errorf("build requires -ref")
	}
	idx, err := buildIndexFromFASTA(*refFile, lf)
	if err != nil {
		return err
	}
	if *output != "" {
		if err := saveIndex(*output, idx, out); err != nil {
			return err
		}
	}
	info := idx.Describe()
	lib, isHDC := idx.(*core.Library)
	if !isHDC {
		// Other backends report the shared shape numbers.
		fmt.Fprintf(out, "library: %d refs, %d windows, %d columns (%s backend)\n",
			info.References, info.Windows, info.Buckets, info.Backend)
		fmt.Fprintf(out, "geometry: window=%d stride=%d mode=exact\n", info.Window, info.Stride)
		fmt.Fprintf(out, "storage: %.1f KiB of bit-sliced signatures\n", float64(info.MemoryBytes)/1024)
		return nil
	}
	p := lib.Params()
	m := lib.Model()
	fmt.Fprintf(out, "library: %d refs, %d windows, %d buckets (capacity %d)\n",
		info.References, info.Windows, info.Buckets, p.Capacity)
	fmt.Fprintf(out, "geometry: D=%d window=%d stride=%d mode=%s\n",
		p.Dim, p.Window, p.Stride, map[bool]string{true: "approx", false: "exact"}[p.Approx])
	fmt.Fprintf(out, "storage: %.1f KiB of hypervectors\n", float64(info.MemoryBytes)/1024)
	fmt.Fprintf(out, "model: threshold=%.1f noise-sigma=%.1f signal(tol)=%.1f\n",
		info.Threshold, m.NoiseSigma(), m.SignalMean(p.MutTolerance))
	if cal, ok := lib.Calibration(); ok {
		fmt.Fprintf(out, "calibration: noise %.1f±%.1f signal %.1f±%.1f tau %.1f\n",
			cal.NoiseMean, cal.NoiseStd, cal.SignalMean, cal.SignalStd, cal.Tau)
	}
	return nil
}

// cmdSearch searches one pattern against references.
func cmdSearch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	lf := addLibFlags(fs)
	refFile := fs.String("ref", "", "reference FASTA")
	libFile := fs.String("lib", "", "saved library file (alternative to -ref)")
	pattern := fs.String("pattern", "", "pattern to search (ACGT letters, required)")
	long := fs.Bool("long", false, "treat the pattern as a long query (windowed voting)")
	minFrac := fs.Float64("minfrac", 0.5, "minimum window-vote fraction for -long")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pattern == "" {
		return fmt.Errorf("search requires -pattern")
	}
	pat, err := genome.FromString(strings.ToUpper(*pattern))
	if err != nil {
		return err
	}
	lib, err := loadOrBuild(*refFile, *libFile, lf)
	if err != nil {
		return err
	}
	var a core.Answer
	if err := lib.Search(context.Background(), core.Query{Patterns: []*genome.Sequence{pat}, Long: *long, MinFrac: *minFrac}, &a); err != nil {
		return err
	}
	if *long {
		fmt.Fprintf(out, "%d candidate references (probes=%d)\n", len(a.Ranked), a.Stats.BucketProbes)
		for _, r := range a.Ranked {
			fmt.Fprintf(out, "  %s offset=%d votes=%d/%d (%.0f%%)\n",
				lib.Ref(r.Ref).ID, r.Offset, r.Votes, r.Windows, 100*r.Fraction)
		}
		return nil
	}
	r := a.Results[0]
	if r.Err != nil {
		return r.Err
	}
	fmt.Fprintf(out, "%d matches (probes=%d candidates=%d verified=%d)\n",
		len(r.Matches), r.Stats.BucketProbes, r.Stats.CandidateBuckets, r.Stats.WindowsVerified)
	for _, m := range r.Matches {
		fmt.Fprintf(out, "  %s:%d distance=%d\n", lib.Ref(m.Ref).ID, m.Off, m.Distance)
	}
	return nil
}

// cmdClassify maps every read in a FASTA against the references.
func cmdClassify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	lf := addLibFlags(fs)
	refFile := fs.String("ref", "", "reference FASTA")
	libFile := fs.String("lib", "", "saved library file (alternative to -ref)")
	readsFile := fs.String("reads", "", "reads FASTA (required)")
	minFrac := fs.Float64("minfrac", 0.5, "minimum window-vote fraction")
	bothStrands := fs.Bool("strands", false, "try both read orientations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *readsFile == "" {
		return fmt.Errorf("classify requires -reads")
	}
	lib, err := loadOrBuild(*refFile, *libFile, lf)
	if err != nil {
		return err
	}
	reads, err := readFASTAFile(*readsFile)
	if err != nil {
		return err
	}
	classified := 0
	q := core.Query{Patterns: make([]*genome.Sequence, 1), Both: *bothStrands, Long: true, MinFrac: *minFrac}
	var a core.Answer
	for _, r := range reads {
		q.Patterns[0] = r.Seq
		err := lib.Search(context.Background(), q, &a)
		best, berr := a.Best()
		if err != nil || berr != nil {
			fmt.Fprintf(out, "%s\tunclassified\n", r.ID)
			continue
		}
		classified++
		fmt.Fprintf(out, "%s\t%s\tstrand=%s\toffset=%d\tsupport=%.0f%%\n",
			r.ID, lib.Ref(best.Ref).ID, a.Strand, best.Offset, 100*best.Fraction)
	}
	fmt.Fprintf(out, "# classified %d/%d reads\n", classified, len(reads))
	return nil
}

// cmdExperiment regenerates paper tables/figures.
func cmdExperiment(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "dataset scale (1.0 = reference scale)")
	seed := fs.Uint64("seed", 42, "experiment seed")
	asCSV := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	// Accept the experiment ID before or after the flags.
	var id string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if id == "" && fs.NArg() == 1 {
		id = fs.Arg(0)
	} else if id == "" || fs.NArg() > 0 {
		return fmt.Errorf("experiment requires exactly one ID (T1..T3, F1..F11, all)")
	}
	cfg := workload.Config{Scale: *scale, Seed: *seed}
	emit := func(res *workload.Result) error {
		if *asCSV {
			return res.WriteCSV(out)
		}
		res.Fprint(out)
		return nil
	}
	if strings.EqualFold(id, "all") {
		for _, e := range workload.All() {
			res, err := e.Run(cfg)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", e.ID, err)
			}
			if err := emit(res); err != nil {
				return err
			}
		}
		return nil
	}
	e, ok := workload.Get(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q", id)
	}
	res, err := e.Run(cfg)
	if err != nil {
		return err
	}
	return emit(res)
}

// cmdPIM simulates a query batch on the crossbar architecture.
func cmdPIM(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pim", flag.ContinueOnError)
	lf := addLibFlags(fs)
	refFile := fs.String("ref", "", "reference FASTA")
	libFile := fs.String("lib", "", "saved library file (alternative to -ref)")
	queries := fs.Int("queries", 64, "number of sampled window queries")
	rows := fs.Int("rows", 1024, "array rows")
	cols := fs.Int("cols", 1024, "array columns")
	arrays := fs.Int("arrays", 4096, "arrays on the chip")
	if err := fs.Parse(args); err != nil {
		return err
	}
	idx, err := loadOrBuild(*refFile, *libFile, lf)
	if err != nil {
		return err
	}
	lib, ok := idx.(*core.Library)
	if !ok {
		return fmt.Errorf("the PIM cost model applies to the hdc backend; this library is %s", idx.Describe().Backend)
	}
	chip := pim.DefaultChipConfig()
	chip.ArrayRows, chip.ArrayCols, chip.NumArrays = *rows, *cols, *arrays
	eng, err := pim.NewEngine(chip, lib)
	if err != nil {
		return err
	}
	src := rng.New(lib.Params().Seed + 1)
	var total pim.Cost
	mode := encoding.ModeExact
	if lib.Params().Approx {
		mode = encoding.ModeApprox
	}
	nRefs := lib.Describe().References
	for i := 0; i < *queries; i++ {
		ri := src.Intn(nRefs)
		ref := lib.Ref(ri).Seq
		off := src.Intn(ref.Len() - lib.Params().Window + 1)
		hv := lib.Encoder().Encode(ref, off, mode)
		total.Add(eng.EncodeCost(lib.Params().Approx, lib.Params().Window))
		_, c, err := eng.Search(hv)
		if err != nil {
			return err
		}
		total.Add(c)
	}
	sys := accel.DefaultBioHDSystem().Wrap(total.LatencyNs, total.EnergyPj, eng.ArraysUsed())
	q := float64(*queries)
	rep := eng.Report()
	fmt.Fprintf(out, "chip: %d arrays of %dx%d (%d used, %d rows/bucket, %d buckets/array)\n",
		chip.NumArrays, chip.ArrayRows, chip.ArrayCols, rep.ArraysUsed, rep.RowsPerBucket, rep.BucketsPerArr)
	fmt.Fprintf(out, "occupancy: %.1f%% of used arrays' rows, %.3f%% of the chip\n",
		100*rep.RowOccupancy, 100*rep.ChipOccupancy)
	fmt.Fprintf(out, "build: %.3f ms once\n", eng.BuildCost().LatencyMs())
	fmt.Fprintf(out, "search: %.3f µs/query, %.0f queries/s, %.3f µJ/query (system)\n",
		sys.LatencyNs/q/1000, sys.ThroughputQPS(*queries), sys.EnergyPj/q*1e-6)
	fmt.Fprintf(out, "ops/query: xnor=%d popcount=%d broadcast=%d compare=%d\n",
		total.Counts[pim.OpXnor]/int64(q), total.Counts[pim.OpPopcount]/int64(q),
		total.Counts[pim.OpBroadcast]/int64(q), total.Counts[pim.OpCompare]/int64(q))
	return nil
}

// cmdCompact maintains a saved library offline: optionally tombstones
// references by ID, rewrites every segment whose tombstone ratio is at
// least -min-ratio, and saves the result. This is the batch form of the
// serve API's DELETE /v1/refs + POST /v1/compact lifecycle.
func cmdCompact(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	libFile := fs.String("lib", "", "saved library file (required)")
	output := fs.String("o", "", "output file (default: rewrite -lib in place)")
	remove := fs.String("remove", "", "comma-separated reference IDs to tombstone before compacting")
	minRatio := fs.Float64("min-ratio", 0, "minimum tombstone ratio for a segment to be rewritten")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *libFile == "" {
		return fmt.Errorf("compact requires -lib")
	}
	if *minRatio < 0 || *minRatio > 1 {
		return fmt.Errorf("-min-ratio %v must be in [0, 1]", *minRatio)
	}
	lib, err := core.OpenLibraryFile(*libFile, core.LoadHeap)
	if err != nil {
		return err
	}
	if *remove != "" {
		for _, id := range strings.Split(*remove, ",") {
			id = strings.TrimSpace(id)
			idx := -1
			for i, n := 0, lib.Describe().References; i < n; i++ {
				if rec := lib.Ref(i); rec.ID == id && rec.Seq != nil {
					idx = i
					break
				}
			}
			if idx < 0 {
				return fmt.Errorf("no live reference %q in %s", id, *libFile)
			}
			if err := lib.Remove(idx); err != nil {
				return err
			}
			fmt.Fprintf(out, "removed %s\n", id)
		}
	}
	before := lib.Describe()
	rewritten, err := lib.Compact(*minRatio)
	if err != nil {
		return err
	}
	after := lib.Describe()
	fmt.Fprintf(out, "compacted: %d of %d segments rewritten (tombstone ratio %.3f -> %.3f), %d segments remain\n",
		rewritten, before.Segments, before.TombstoneRatio, after.TombstoneRatio, after.Segments)
	dst := *output
	if dst == "" {
		dst = *libFile
	}
	return saveIndex(dst, lib, out)
}
