// Command bench is the repository's one benchmark instrument: five
// named workloads, each measured end to end with tracing off and then
// traced layer by layer, every answer checked against an oracle the
// harness computes itself. BENCHMARK.json at the repository root names
// this program, its workloads and its metrics; README.md explains them.
//
//	go run ./bench -workload all -seed 1         every workload, both passes
//	go run ./bench -workload churn_http -aa      same seed twice, compared
//	bash bench/run.sh --workload scan_exact_wire --seed 3 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
)

// setupBudget is how long a run keeps repeating a cheap set-up, in
// seconds.
const setupBudget = 1.5

// commit is stamped by run.sh (-ldflags -X main.commit=...); a bare
// `go run` leaves it unknown.
var commit = "unknown"

// options are the run's knobs. The named workloads pin everything that
// defines them; seconds and trace are the driver's arguments, the rest
// exist for the smoke pass and for exploration and never reach
// BENCHMARK.json.
type options struct {
	seed     uint64
	seconds  float64       // measured time per workload, split into segments
	segments int           // end-to-end values are the median over these
	warm     time.Duration // discarded lead-in
	setups   int           // timed set-ups at least; setup_s is their median
	e2e      bool          // run the untraced segments
	traced   bool          // run the traced pass and the replays
	scale    int           // library divisor
	out      string        // trace files, records, scratch
}

// environment is the block every record carries: numbers from two
// records compare only when these agree.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"bitvec_kernel"`
	Commit     string `json:"commit"`
}

// record is one workload's full result, written to <out>/record-<name>.json.
type record struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Env       environment `json:"environment"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Problems  []string    `json:"problems,omitempty"`
	EndToEnd  values      `json:"end_to_end,omitempty"`
	Segments  *measured   `json:"segments,omitempty"`
	PerLayer  values      `json:"per_layer,omitempty"`
}

func main() {
	var opt options
	name := flag.String("workload", "all", "workload name, or all")
	flag.Uint64Var(&opt.seed, "seed", 1, "input seed: same seed, same references and queries")
	flag.Float64Var(&opt.seconds, "seconds", 12, "measured seconds per workload (tracing off)")
	trace := flag.String("trace", "both", "0: end-to-end metrics only; 1: traced pass and per-layer metrics only; both")
	aa := flag.Bool("aa", false, "self-check: run twice with the same seed and compare against the bounds")
	smoke := flag.Bool("smoke", false, "1/32-scale libraries and 100 ms segments: checks the harness, measures nothing")
	flag.IntVar(&opt.segments, "segments", 12, "exploration: segments the measured time is split into")
	flag.DurationVar(&opt.warm, "warmup", 2*time.Second, "exploration: discarded warm-up")
	flag.IntVar(&opt.setups, "setups", 3, "exploration: timed set-ups per run")
	flag.IntVar(&opt.scale, "scale", 1, "exploration: divide library sizes by this")
	flag.StringVar(&opt.out, "out", filepath.Join("bench", "out"), "directory for trace files, records and scratch")
	flag.Parse()

	switch *trace {
	case "0":
		opt.e2e = true
	case "1":
		opt.traced = true
	case "both":
		opt.e2e, opt.traced = true, true
	default:
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}
	if *smoke {
		opt.scale, opt.seconds, opt.segments = 32, 0.5, 5
		opt.warm, opt.setups = 50*time.Millisecond, 1
	}
	if opt.seconds <= 0 || opt.segments < 1 || opt.setups < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		selected = []workload{w}
	}

	ok := true
	for _, w := range selected {
		var err error
		if *aa {
			ok, err = selfCheck(w, opt, os.Stdout)
		} else {
			var rec *record
			if rec, err = runWorkload(w, opt); err == nil {
				err = report(rec, opt, os.Stdout)
				ok = ok && rec.Correct
			}
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// instance is one set-up's product: the inputs' references, the index
// built from them, and the untraced service over it.
type instance struct {
	in  *inputs
	b   *built
	svc *service
}

// setUp is the timed set-up: generate the references, build, freeze,
// (save and map,) start the server and dial.
func setUp(w workload, seed uint64, work string) (*instance, error) {
	x := &instance{in: generateRefs(w, seed)}
	var err error
	if x.b, err = buildIndex(w, x.in.Refs, work); err != nil {
		return nil, err
	}
	if x.svc, err = startService(w, x.b.idx, nil); err != nil {
		return nil, errors.Join(err, x.b.idx.Close())
	}
	return x, nil
}

func (x *instance) tearDown() error {
	return errors.Join(x.svc.stop(), x.b.idx.Close())
}

// runWorkload runs one workload's passes and judges the outcome.
func runWorkload(w workload, opt options) (rec *record, err error) {
	w = w.scaled(opt.scale)
	rec = &record{
		Workload: w.Name, Seed: opt.seed, Seconds: opt.seconds,
		Env: environment{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU: runtime.NumCPU(), Kernel: bitvec.Kernel(), Commit: commit,
		},
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(opt.out, "work-")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(work)) }()

	// Set up at least opt.setups times and keep the last. A cheap
	// set-up is repeated until setupBudget is spent (at most five times
	// as often): the median of fifteen 70 ms set-ups holds still where
	// the median of three does not. A trace-only run reports no
	// setup_s and sets up once.
	setups := opt.setups
	if !opt.e2e {
		setups = 1
	}
	var x *instance
	var setupS []float64
	for spent := 0.0; len(setupS) < setups || opt.e2e && spent < setupBudget && len(setupS) < 5*setups; {
		if x != nil {
			if err := x.tearDown(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if x, err = setUp(w, opt.seed, work); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		spent += setupS[len(setupS)-1]
	}
	defer func() { err = errors.Join(err, x.tearDown()) }()
	in, b := x.in, x.b

	dyn := 0
	if w.Churn {
		dyn = churnHz * (int(opt.seconds) + 60)
	}
	generateQueries(w, in, opt.seed, dyn)
	oracleStart := time.Now()
	if !w.Classify {
		fillOracle(in.Refs, in.Pool, in.Trace)
	}
	oracleS := time.Since(oracleStart).Seconds()
	var churn *churnState
	if w.Churn {
		churn = &churnState{dyn: in.Dyn}
	}

	// Untraced load: the end-to-end metrics, or in a trace-only run a
	// short baseline the traced pass is compared with.
	seconds, segments := opt.seconds, opt.segments
	if !opt.e2e {
		seconds, segments = min(opt.seconds, 3), 3
	}
	runtime.GC()
	goBefore := readMemStats()
	m := runLoad(x.svc, in.Pool, churn, opt.warm, seconds, segments)
	goAfter := readMemStats()
	total := m.tally
	if opt.e2e {
		size := b.v3Bytes
		if !w.Mmap {
			if size, err = b.idx.WriteToV3(io.Discard); err != nil {
				return nil, err
			}
		}
		rec.Segments = &m
		rec.EndToEnd = values{
			"setup_s":              median(setupS),
			"qps":                  median(m.SegQPS),
			"p50_us":               median(m.SegP50),
			"p95_us":               median(m.SegP95),
			"recall":               ratio(float64(total.Correct), float64(total.Expected)),
			"precision":            ratio(float64(total.Correct), float64(total.Returned)),
			"index_bytes_per_base": float64(size) / float64(in.Bases),
		}
	}

	if opt.traced {
		v := values{
			"client.p99_us":   percentile(m.lat, 0.99),
			"client.p999_us":  percentile(m.lat, 0.999),
			"client.samples":  float64(len(m.lat)),
			"client.oracle_s": oracleS,
		}
		goMetrics(goBefore, goAfter, m.tally.Attempted, v)
		rec.PerLayer = v
		pass, problem, err := tracePhase(w, opt, x, churn, median(m.SegQPS), work, v)
		if err != nil {
			return nil, err
		}
		if problem != "" {
			rec.Problems = append(rec.Problems, problem)
		}
		total.merge(pass.tally)
		v["client.error_ratio"] = ratio(float64(total.Failed), float64(total.Attempted))
	}

	// The verdict.
	rec.Attempted, rec.Failed = total.Attempted, total.Failed
	recall := ratio(float64(total.Correct), float64(total.Expected))
	precision := ratio(float64(total.Correct), float64(total.Returned))
	if total.Failed > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d of %d requests failed; first: %s", total.Failed, total.Attempted, total.FirstFailure))
	}
	if w.Approx && recall < 0.98 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("recall %.4f below 0.98", recall))
	}
	if !w.Approx && (recall < 1 || precision < 1) {
		rec.Problems = append(rec.Problems, fmt.Sprintf("recall %.4f, precision %.4f on an exact workload", recall, precision))
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, nil
}

// tracePhase puts the instance's index behind a second, decorated copy
// of the service, runs the traced pass over it, replays what no seam
// separates, and fills the per-layer metrics into v. problem is set
// when a served answer was not the in-process answer.
func tracePhase(w workload, opt options, x *instance, churn *churnState, baselineQPS float64, work string, v values) (pass tracedPass, problem string, err error) {
	b, trace := x.b, x.in.Trace
	if err := x.svc.stop(); err != nil { // the untraced service has done its part
		return pass, "", err
	}
	tsvc, err := startService(w, b.idx, newRecorder())
	if err != nil {
		return pass, "", err
	}
	pass = runTraced(tsvc, trace, churn)
	if err := tsvc.stop(); err != nil {
		return pass, "", err
	}
	v["trace.overhead_ratio"] = ratio(baselineQPS, pass.qps) - 1
	if n, first := servedDiffers(b.idx, w, trace, pass.answers); n > 0 {
		problem = fmt.Sprintf("%d served answers differ from the in-process answer; first: %s", n, first)
	}

	sample := trace[:min(max(replaySample/opt.scale, core.BlockWidth), len(trace))]
	if b.lib != nil {
		if err := replayCore(b.lib, w, sample, min(w.clients(), runtime.GOMAXPROCS(0)), v); err != nil {
			return pass, "", err
		}
	}
	if w.Via != viaInproc {
		if err := replayEdges(w, sample, pass.answers, v); err != nil {
			return pass, "", err
		}
	}
	ceilings(b.idx.MemoryFootprint(), v)
	v["core.probe_bw_fraction"] = ratio(v["core.probe_gbps"], v["mem.read_gbps"])
	if err := storage(b, work, v); err != nil {
		return pass, "", err
	}
	attribute(tsvc, b, pass, v)
	return pass, problem, writeTrace(opt.out, w.Name, tsvc.rec.spans)
}

// report prints every metric as "name value unit", stores the full
// record, and ends with the one-line JSON object the driver reads.
func report(rec *record, opt options, out io.Writer) error {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{rec.Correct, max(rec.Attempted, 1), rec.Failed, map[string]reading{}}

	fmt.Fprintf(out, "# %s seed %d\n", rec.Workload, rec.Seed)
	for _, p := range rec.Problems {
		fmt.Fprintf(out, "# PROBLEM: %s\n", p)
	}
	emit := func(defs []metricDef, vals values) {
		for _, d := range defs {
			fmt.Fprintf(out, "%s %.6g %s\n", d.Name, vals[d.Name], d.Unit)
			line.Metrics[d.Name] = reading{vals[d.Name], d.Unit}
		}
	}
	if opt.e2e {
		emit(endToEnd, rec.EndToEnd)
	}
	if opt.traced {
		emit(perLayer, rec.PerLayer)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opt.out, "record-"+rec.Workload+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", last)
	return err
}

// selfCheck is the A/A run: the same workload twice with the same seed,
// end-to-end metrics only, each compared against its bound.
func selfCheck(w workload, opt options, out io.Writer) (bool, error) {
	opt.e2e, opt.traced = true, false
	var runs [2]*record
	for i := range runs {
		rec, err := runWorkload(w, opt)
		if err != nil {
			return false, err
		}
		runs[i] = rec
	}
	ok := runs[0].Correct && runs[1].Correct
	fmt.Fprintf(out, "# A/A %s seed %d\n", w.Name, opt.seed)
	for _, d := range endToEnd {
		a, b := runs[0].EndToEnd[d.Name], runs[1].EndToEnd[d.Name]
		diff := ratio(b-a, a)
		verdict := "PASS"
		if math.Abs(diff) > d.Bound {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(out, "%-22s %12.6g %12.6g %-7s diff %+.2f%% bound %.1f%% %s\n",
			d.Name, a, b, d.Unit, 100*diff, 100*d.Bound, verdict)
	}
	return ok, nil
}
