package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cobs"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// The engine conformance suite: every backend is a kernel under one
// segment engine, so one seeded schedule of mutations, run concurrently
// with every Search shape, must produce — on every backend — exactly the
// answers a naive scan gives over the references live in the view each
// probe observed. It runs under -race in CI, where it also holds the
// engine to its publishing discipline (a view never shares its segment
// slice with the master list).
//
// The backends are HDC exact and approximate (one substitution), cobs,
// and HDC and cobs opened from mapped files; the references are random
// and 120 to 319 bases long. "Byte-identical to a naive scan" holds for
// that shape of library: on a large one exact HDC misses an occurrence
// with probability β (README, accuracy notes), and cobs misses none.

const confWindow = 24

// confBackend opens a frozen index over the initial references.
type confBackend struct {
	name string
	tol  int // substitutions per window the backend tolerates
	open func(t *testing.T, initial []genome.Record) core.Index
}

func openHDC(p core.Params) func(*testing.T, []genome.Record) core.Index {
	return func(t *testing.T, initial []genome.Record) core.Index {
		t.Helper()
		lib, err := core.NewLibrary(p)
		if err != nil {
			t.Fatal(err)
		}
		freezeWith(t, lib, initial)
		return lib
	}
}

func freezeWith(t *testing.T, idx core.Index, initial []genome.Record) {
	t.Helper()
	for _, rec := range initial {
		if err := idx.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	idx.Freeze()
	if !idx.Describe().Frozen {
		t.Fatal("Freeze left a non-empty index unfrozen")
	}
}

func openCOBS(t *testing.T, initial []genome.Record) core.Index {
	t.Helper()
	x, err := cobs.New(cobs.Params{Window: confWindow, RowBits: 4096, Hashes: 4})
	if err != nil {
		t.Fatal(err)
	}
	freezeWith(t, x, initial)
	return x
}

// mapped wraps a backend's opener: the index it builds is saved and
// reopened with its sealed segments aliasing a file mapping, so live
// ingest builds heap segments beside the mapped ones, compaction
// retires mapped segments (the DONTNEED hint, through MapRange), and
// Close drains the readers and unmaps.
func mapped(open func(*testing.T, []genome.Record) core.Index) func(*testing.T, []genome.Record) core.Index {
	return func(t *testing.T, initial []genome.Record) core.Index {
		t.Helper()
		path := filepath.Join(t.TempDir(), "index.v3")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := open(t, initial).WriteToV3(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		idx, err := core.OpenLibraryFile(path, core.MapArena)
		if err != nil {
			t.Fatal(err)
		}
		if !idx.Mapped() {
			_ = idx.Close()
			t.Skip("this platform or build cannot map library files")
		}
		return idx
	}
}

var confBackends = []confBackend{
	{name: "hdc-exact", open: openHDC(core.Params{Dim: 2048, Window: confWindow, Seed: 11})},
	{name: "hdc-approx", tol: 1, open: openHDC(core.Params{
		Dim: 2048, Window: confWindow, Approx: true, MutTolerance: 1, Seed: 12})},
	{name: "cobs", open: openCOBS},
	{name: "hdc-mapped", open: mapped(openHDC(core.Params{Dim: 2048, Window: confWindow, Seed: 13}))},
	{name: "cobs-mapped", open: mapped(openCOBS)},
}

// confOp is one step of a mutation schedule.
type confOp struct {
	kind  byte    // 'a' Add the next reference, 'r' Remove ref, 'c' Compact(ratio)
	ref   int     // 'r': the reference index
	ratio float64 // 'c': the minimum tombstone ratio
}

// confModel is the oracle: every reference the schedule ever adds, and
// which of them are live at each version (version 0 is the state
// Freeze published; version i the state after op i).
type confModel struct {
	tol  int
	seqs []*genome.Sequence
	live [][]bool
}

func (m *confModel) records(from, to int) []genome.Record {
	var out []genome.Record
	for i := from; i < to; i++ {
		out = append(out, genome.Record{ID: fmt.Sprintf("ref%d", i), Seq: m.seqs[i]})
	}
	return out
}

// modelOf replays ops over seqs, the first initial of which are live at
// version 0, recording the live set after every op.
func modelOf(tol int, seqs []*genome.Sequence, initial int, ops []confOp) *confModel {
	m := &confModel{tol: tol, seqs: seqs}
	live := make([]bool, len(seqs))
	for i := 0; i < initial; i++ {
		live[i] = true
	}
	m.live = append(m.live, append([]bool(nil), live...))
	next := initial
	for _, op := range ops {
		switch op.kind {
		case 'a':
			live[next] = true
			next++
		case 'r':
			live[op.ref] = false
		}
		m.live = append(m.live, append([]bool(nil), live...))
	}
	return m
}

func randomRefs(src *rng.Source, n, minLen, spread int) []*genome.Sequence {
	seqs := make([]*genome.Sequence, n)
	for i := range seqs {
		seqs[i] = genome.Random(minLen+src.Intn(spread), src)
	}
	return seqs
}

// newSchedule draws nRefs references and a seeded schedule that adds
// all but the first initial of them, interleaved with removals and
// compactions.
func newSchedule(seed uint64, tol, initial, nRefs int) (*confModel, []confOp) {
	src := rng.New(seed)
	seqs := randomRefs(src, nRefs, 120, 200)
	live := make([]bool, nRefs)
	for i := 0; i < initial; i++ {
		live[i] = true
	}
	nLive := initial
	var ops []confOp
	for next := initial; next < nRefs; {
		switch r := src.Intn(10); {
		case r < 5:
			ops = append(ops, confOp{kind: 'a'})
			live[next] = true
			next++
			nLive++
		case r < 8 && nLive > 1:
			victim := src.Intn(next)
			for !live[victim] {
				victim = (victim + 1) % next
			}
			ops = append(ops, confOp{kind: 'r', ref: victim})
			live[victim] = false
			nLive--
		default:
			ops = append(ops, confOp{kind: 'c', ratio: float64(src.Intn(2)) * 0.4})
		}
	}
	return modelOf(tol, seqs, initial, ops), ops
}

// lookup is the naive scan: every occurrence, within tol substitutions,
// of p's leading window in the references live at version k, in
// (Ref, Off) order.
func (m *confModel) lookup(k int, p *genome.Sequence) []core.Match {
	var out []core.Match
	for r, seq := range m.seqs {
		if !m.live[k][r] {
			continue
		}
		for off := 0; off+confWindow <= seq.Len(); off++ {
			d := 0
			for i := 0; i < confWindow && d <= m.tol; i++ {
				if seq.At(off+i) != p.At(i) {
					d++
				}
			}
			if d <= m.tol {
				out = append(out, core.Match{Ref: r, Off: off, Distance: d})
			}
		}
	}
	return out
}

// lookupLong is the naive long-read mapping at version k.
func (m *confModel) lookupLong(k int, q *genome.Sequence, minFrac float64) []core.RefMatch {
	var wins [][]core.Match
	var offs []int
	for base := 0; base+confWindow <= q.Len(); base += confWindow {
		wins = append(wins, m.lookup(k, q.Slice(base, base+confWindow)))
		offs = append(offs, base)
	}
	return core.RankWindows(wins, offs, minFrac)
}

// observed reports whether check holds at some version in [lo, hi] —
// the versions a probe that started after lo ops had completed and
// returned before op hi+1 started can have pinned.
func observed(lo, hi int, check func(k int) bool) bool {
	for k := lo; k <= hi; k++ {
		if check(k) {
			return true
		}
	}
	return false
}

func sameMatches(got, want []core.Match) bool {
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}

// confQueries draws window patterns from every reference (present at
// some versions, absent at others) plus a few that never occur, and
// multi-window reads.
func confQueries(m *confModel, seed uint64) (patterns, reads []*genome.Sequence) {
	src := rng.New(seed)
	for _, seq := range m.seqs {
		off := src.Intn(seq.Len() - confWindow + 1)
		patterns = append(patterns, seq.Slice(off, off+confWindow))
		n := (2 + src.Intn(3)) * confWindow
		off = src.Intn(seq.Len() - n + 1)
		reads = append(reads, seq.Slice(off, off+n))
	}
	for i := 0; i < 4; i++ {
		patterns = append(patterns, genome.Random(confWindow, src))
	}
	reads = append(reads, genome.Random(4*confWindow, src))
	return patterns, reads
}

// runSchedule applies ops[from:] to idx while one reader per probe kind,
// and one of the segment stats, check every answer against the model, then verifies the
// final state sequentially. Ops before from are applied first, without
// readers. The writer also checks Lookup after each op, when the
// version is known exactly.
func runSchedule(t *testing.T, idx core.Index, m *confModel, ops []confOp, from int, seed uint64) {
	t.Helper()
	patterns, reads := confQueries(m, seed)
	var started, done, probes atomic.Int64
	nextRef := 0
	for _, l := range m.live[0] {
		if l {
			nextRef++
		}
	}
	apply := func(i int) {
		op := ops[i]
		started.Add(1)
		var err error
		switch op.kind {
		case 'a':
			err = idx.Add(m.records(nextRef, nextRef+1)[0])
			nextRef++
		case 'r':
			err = idx.Remove(op.ref)
		case 'c':
			_, err = idx.Compact(op.ratio)
		}
		done.Add(1)
		if err != nil {
			t.Errorf("op %d (%c): %v", i, op.kind, err)
			return
		}
		p := patterns[i%len(patterns)]
		got, _, err := idx.Lookup(p)
		if err != nil || !sameMatches(got, m.lookup(i+1, p)) {
			t.Errorf("after op %d (%c): Lookup = %v, %v; naive scan says %v", i, op.kind, got, err, m.lookup(i+1, p))
		}
	}
	for i := 0; i < from; i++ {
		apply(i)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(probe func(i, lo int) (hi int, ok bool, desc string)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := int(done.Load())
				_, ok, desc := probe(i, lo)
				probes.Add(1)
				if !ok {
					t.Errorf("%s: no version in the observed window gives this answer", desc)
					return
				}
			}
		}()
	}
	reader(func(i, lo int) (int, bool, string) {
		p := patterns[i%len(patterns)]
		got, _, err := idx.Lookup(p)
		hi := int(started.Load())
		ok := err == nil && observed(lo, hi, func(k int) bool { return sameMatches(got, m.lookup(k, p)) })
		return hi, ok, fmt.Sprintf("Lookup %d [%d,%d] = %v, %v", i, lo, hi, got, err)
	})
	reader(func(i, lo int) (int, bool, string) {
		q := reads[i%len(reads)]
		got, _, err := core.SearchLong(idx, q, 0.5)
		hi := int(started.Load())
		ok := err == nil && observed(lo, hi, func(k int) bool {
			want := m.lookupLong(k, q, 0.5)
			return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
		})
		return hi, ok, fmt.Sprintf("Long Search %d [%d,%d] = %v, %v", i, lo, hi, got, err)
	})
	// Batch and block answer every pattern from one view: a single
	// version must explain all of them.
	sameAll := func(res []core.BatchResult, ps []*genome.Sequence, k int) bool {
		for j, p := range ps {
			if res[j].Err != nil || !sameMatches(res[j].Matches, m.lookup(k, p)) {
				return false
			}
		}
		return true
	}
	reader(func(i, lo int) (int, bool, string) {
		ps := []*genome.Sequence{patterns[i%len(patterns)], nil}
		ps[1] = ps[0].ReverseComplement()
		var a core.Answer
		err := idx.Search(context.Background(), core.Query{Patterns: ps[:1], Both: true}, &a)
		hi := int(started.Load())
		ok := err == nil && observed(lo, hi, func(k int) bool { return sameAll(a.Results, ps, k) })
		return hi, ok, fmt.Sprintf("both-strand Search %d [%d,%d], err %v", i, lo, hi, err)
	})
	reader(func(i, lo int) (int, bool, string) {
		res, _, err := core.SearchBatch(context.Background(), idx, patterns)
		hi := int(started.Load())
		ok := err == nil && observed(lo, hi, func(k int) bool { return sameAll(res, patterns, k) })
		return hi, ok, fmt.Sprintf("batch Search %d [%d,%d], err %v", i, lo, hi, err)
	})
	reader(func(i, lo int) (int, bool, string) {
		at := i % (len(patterns) - core.BlockWidth + 1)
		ps := patterns[at : at+core.BlockWidth]
		res := make([]core.BatchResult, core.BlockWidth+1) // longer than the block is allowed
		err := idx.LookupBlock(ps, res)
		hi := int(started.Load())
		ok := err == nil && observed(lo, hi, func(k int) bool { return sameAll(res, ps, k) })
		return hi, ok, fmt.Sprintf("LookupBlock %d [%d,%d], err %v", i, lo, hi, err)
	})
	// The stats surface reads the view's segment list itself: the live
	// windows its segments report must be those of one observed version.
	if st, ok := idx.(interface{ Segments() []core.SegmentInfo }); ok {
		liveWindows := func(k int) int {
			n := 0
			for r, seq := range m.seqs {
				if m.live[k][r] {
					n += seq.Len() - confWindow + 1
				}
			}
			return n
		}
		reader(func(i, lo int) (int, bool, string) {
			got := 0
			for _, seg := range st.Segments() {
				got += seg.Windows - seg.Tombstones
			}
			hi := int(started.Load())
			ok := observed(lo, hi, func(k int) bool { return got == liveWindows(k) })
			return hi, ok, fmt.Sprintf("Segments %d [%d,%d]: %d live windows", i, lo, hi, got)
		})
	}
	for i := from; i < len(ops); i++ {
		// Every version gets observed: the next op waits for the readers
		// to have probed a few more times.
		for target := probes.Load() + 5; probes.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
		apply(i)
	}
	close(stop)
	wg.Wait()

	last := len(ops)
	for _, p := range patterns {
		got, _, err := idx.Lookup(p)
		if err != nil || !sameMatches(got, m.lookup(last, p)) {
			t.Errorf("final Lookup = %v, %v; naive scan says %v", got, err, m.lookup(last, p))
		}
	}
	for _, q := range reads {
		got, _, err := core.SearchLong(idx, q, 0.5)
		if want := m.lookupLong(last, q, 0.5); err != nil || len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("final Long Search = %v, %v; naive scan says %v", got, err, want)
		}
	}
	wantRefs, wantWins := 0, 0
	for r, seq := range m.seqs {
		if r < nextRef {
			wantRefs++
		}
		if m.live[last][r] {
			wantWins += seq.Len() - confWindow + 1
		}
	}
	if idx.NumRefs() != wantRefs || idx.NumWindows() != wantWins {
		t.Errorf("bookkeeping: %d refs, %d live windows; want %d, %d", idx.NumRefs(), idx.NumWindows(), wantRefs, wantWins)
	}
}

func TestEngineConformance(t *testing.T) {
	for bi, be := range confBackends {
		be, seed := be, uint64(1000*(bi+1))
		t.Run(be.name, func(t *testing.T) {
			// churn: Add, Remove and Compact in seeded order under every
			// Search shape, with the seal threshold and the auto-compact
			// trigger low enough that both policies fire on their own.
			t.Run("churn", func(t *testing.T) {
				m, ops := newSchedule(seed+1, be.tol, 4, 22)
				idx := be.open(t, m.records(0, 4))
				defer idx.Close()
				idx.SetSealThreshold(2)
				idx.SetAutoCompact(0.3)
				runSchedule(t, idx, m, ops, 0, seed+2)
				c := idx.Counters()
				if c.SegmentSeals == 0 || c.Compactions == 0 {
					t.Errorf("policies idle: %d auto-seals, %d compactions", c.SegmentSeals, c.Compactions)
				}
				// Ingest and compaction build heap segments beside (and in
				// place of) the mapped ones a mapped index opened with.
				if idx.Mapped() && c.HeapScans == 0 {
					t.Errorf("mapped index scanned %d mapped, %d heap ranges", c.MappedScans, c.HeapScans)
				}
				// Whatever the schedule left — buckets closed by ingest,
				// open ones isolated by a publish, segments rebuilt by
				// compaction, rows read from a file — is the counter bundle
				// of its members.
				if lib, ok := idx.(*core.Library); ok {
					core.CheckRowsAreBundles(t, lib, m.seqs, "after churn")
				}
			})
			// auto-seal: live ingest seals the builder at the threshold,
			// every reference is searchable as soon as its Add returns
			// (checked after each op), and the books balance.
			t.Run("auto-seal", func(t *testing.T) {
				ops := make([]confOp, 5)
				for i := range ops {
					ops[i] = confOp{kind: 'a'}
				}
				m := modelOf(be.tol, randomRefs(rng.New(seed+3), len(ops)+1, 150, 1), 1, ops)
				idx := be.open(t, m.records(0, 1))
				defer idx.Close()
				idx.SetSealThreshold(1)
				runSchedule(t, idx, m, ops, len(ops), seed+4)
				if c := idx.Counters(); c.SegmentSeals != int64(len(ops)) {
					t.Errorf("threshold 1 sealed %d of %d live adds", c.SegmentSeals, len(ops))
				}
				if idx.NumSegments() != len(ops)+1 {
					t.Errorf("NumSegments = %d, want %d", idx.NumSegments(), len(ops)+1)
				}
			})
			// remove-sealed: every reference sits in a sealed segment of its
			// own and the builder is empty, so each publish covers sealed
			// segments only while Remove replaces their headers in the
			// master list in place. A view that shared that slice would be
			// a data race the detector catches here.
			t.Run("remove-sealed", func(t *testing.T) {
				const churn = 24
				var ops []confOp
				for i := 1; i <= churn; i++ {
					ops = append(ops, confOp{kind: 'a'})
				}
				for i := churn; i >= 1; i-- {
					ops = append(ops, confOp{kind: 'r', ref: i})
				}
				m := modelOf(be.tol, randomRefs(rng.New(seed+5), churn+1, 140, 1), 1, ops)
				idx := be.open(t, m.records(0, 1))
				defer idx.Close()
				idx.SetSealThreshold(1)
				runSchedule(t, idx, m, ops, churn, seed+6)
				if idx.TombstoneRatio() <= 0 {
					t.Error("TombstoneRatio stayed zero after removals from sealed segments")
				}
			})
			// close: Close racing in-flight reads. Every read either answers
			// from the view it pinned or — on a mapped index, whose storage
			// Close releases once the readers have drained — fails with
			// ErrClosed; afterwards every mutation is refused.
			t.Run("close", func(t *testing.T) {
				m, _ := newSchedule(seed+7, be.tol, 4, 4)
				idx := be.open(t, m.records(0, 4))
				patterns, _ := confQueries(m, seed+8)
				var wg sync.WaitGroup
				stop := make(chan struct{})
				for g := 0; g < 3; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := g; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							p := patterns[i%len(patterns)]
							got, _, err := idx.Lookup(p)
							if errors.Is(err, core.ErrClosed) && idx.Mapped() {
								continue
							}
							if err != nil || !sameMatches(got, m.lookup(0, p)) {
								t.Errorf("Lookup racing Close = %v, %v", got, err)
								return
							}
						}
					}(g)
				}
				if err := idx.Close(); err != nil {
					t.Error(err)
				}
				close(stop)
				wg.Wait()
				if err := idx.Close(); err != nil {
					t.Errorf("second Close: %v", err)
				}
				if err := idx.Add(m.records(0, 1)[0]); !errors.Is(err, core.ErrClosed) {
					t.Errorf("Add after Close: %v", err)
				}
				if err := idx.Remove(0); !errors.Is(err, core.ErrClosed) {
					t.Errorf("Remove after Close: %v", err)
				}
				if _, err := idx.Compact(0); !errors.Is(err, core.ErrClosed) {
					t.Errorf("Compact after Close: %v", err)
				}
				if lib, ok := idx.(*core.Library); ok {
					refs := lib.NumRefs()
					if err := lib.AddConcurrent(m.records(0, 1), 2); !errors.Is(err, core.ErrClosed) || lib.NumRefs() != refs {
						t.Errorf("AddConcurrent after Close: %v, NumRefs %d -> %d", err, refs, lib.NumRefs())
					}
				}
				got, _, err := idx.Lookup(patterns[0])
				if idx.Mapped() {
					if !errors.Is(err, core.ErrClosed) {
						t.Errorf("mapped Lookup after Close: %v", err)
					}
				} else if err != nil || !sameMatches(got, m.lookup(0, patterns[0])) {
					t.Errorf("heap Lookup after Close = %v, %v", got, err)
				}
			})
			// contract: the edges cobs used to answer its own way.
			t.Run("contract", func(t *testing.T) {
				m, _ := newSchedule(seed+9, be.tol, 2, 2)
				idx := be.open(t, m.records(0, 2))
				defer idx.Close()
				short := genome.Random(confWindow-1, rng.New(seed+10))
				if err := idx.Add(genome.Record{ID: "short", Seq: short}); err == nil {
					t.Error("reference shorter than a window accepted")
				}
				if err := idx.LookupBlock(nil, nil); err != nil {
					t.Errorf("empty LookupBlock: %v", err)
				}
				patterns, _ := confQueries(m, seed+11)
				// Both strands: the forward Lookup's entry, then the reverse
				// complement's, with the stats of the two; a pattern Lookup
				// refuses is refused in both entries with its error. A
				// canceled context does not stop a both-strand or a Long
				// Search: only a lookup of patterns observes it.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				for _, p := range append(patterns, short, nil) {
					var a core.Answer
					err := idx.Search(ctx, core.Query{Patterns: []*genome.Sequence{p}, Both: true}, &a)
					fwd, wantStats, ferr := idx.Lookup(p)
					if err != nil || len(a.Results) != 2 {
						t.Errorf("both-strand Search = %v with %d entries", err, len(a.Results))
						continue
					}
					if ferr != nil {
						for _, r := range a.Results {
							if r.Err == nil || r.Err.Error() != ferr.Error() || r.Matches != nil || a.Stats != wantStats {
								t.Errorf("both-strand Search of a refused pattern = %+v, %+v; Lookup says %v", r, a.Stats, ferr)
							}
						}
						continue
					}
					rev, revStats, _ := idx.Lookup(p.ReverseComplement())
					fwdStats := wantStats
					wantStats.Add(revStats)
					if a.Results[0].Err != nil || a.Results[1].Err != nil || a.Stats != wantStats ||
						a.Results[0].Stats != fwdStats || a.Results[1].Stats != revStats ||
						!sameMatches(a.Results[0].Matches, fwd) || !sameMatches(a.Results[1].Matches, rev) {
						t.Errorf("both-strand Search = %+v, %+v; two Lookups say %v, %v, %+v", a.Results, a.Stats, fwd, rev, wantStats)
					}
				}
				_, reads := confQueries(m, seed+11)
				for _, q := range reads {
					want, wantStats, _ := core.SearchLong(idx, q, 0.5)
					var a core.Answer
					err := idx.Search(ctx, core.Query{Patterns: []*genome.Sequence{q}, Long: true, MinFrac: 0.5}, &a)
					if err != nil || a.Stats != wantStats || len(a.Ranked) != len(want) || (len(want) > 0 && !reflect.DeepEqual(a.Ranked, want)) {
						t.Errorf("canceled Long Search = %v, %+v, %v; uncanceled %v, %+v", a.Ranked, a.Stats, err, want, wantStats)
					}
				}
				for _, n := range []int{core.BlockWidth, core.BlockWidth + 1} {
					before := idx.Counters().BatchCancellations
					var ps []*genome.Sequence
					for len(ps) < n {
						ps = append(ps, patterns[len(ps)%len(patterns)])
					}
					res, _, err := core.SearchBatch(ctx, idx, ps)
					if !errors.Is(err, context.Canceled) {
						t.Errorf("canceled batch of %d returned %v", n, err)
					}
					for j, r := range res {
						if !errors.Is(r.Err, context.Canceled) {
							t.Errorf("canceled batch of %d: slot %d = %v", n, j, r.Err)
						}
					}
					if got := idx.Counters().BatchCancellations - before; got != 1 {
						t.Errorf("canceled batch of %d counted %d cancellations", n, got)
					}
				}
			})
		})
	}
}

// TestForgedDirectoryRejected pins the allocation-follows-input rule on
// every backend and every open path: a self-consistent directory whose
// first entry claims 2^32-1 rows over the few KiB present is refused by
// the stream, heap and mmap tiers alike. Before the one walk, the
// stream reader sized make([]uint64, words) from such a directory — 4
// TiB at D=8192 — and the process died with "fatal error: runtime: out
// of memory" where the mapped opener returned an error.
func TestForgedDirectoryRejected(t *testing.T) {
	rec := genome.Record{ID: "r", Seq: genome.Random(600, rng.New(172))}
	for _, b := range []confBackend{
		{name: "hdc", open: openHDC(core.Params{Dim: 8192, Window: 32, Seed: 171})},
		{name: "cobs", open: openCOBS},
	} {
		t.Run(b.name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := b.open(t, []genome.Record{rec}).WriteToV3(&buf); err != nil {
				t.Fatal(err)
			}
			forged := core.ForgeHugeDirectory(buf.Bytes())
			if _, err := core.ReadIndex(bytes.NewReader(forged)); err == nil {
				t.Fatal("ReadIndex accepted the forged directory")
			}
			path := filepath.Join(t.TempDir(), "forged.v3")
			if err := os.WriteFile(path, forged, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, mode := range []core.LoadMode{core.LoadHeap, core.MapArena} {
				if idx, err := core.OpenLibraryFile(path, mode); err == nil {
					_ = idx.Close()
					t.Fatalf("OpenLibraryFile(mode %d) accepted the forged directory", mode)
				}
			}
		})
	}
}

// TestFreezeEmptyIsNoOp: an index with nothing in it does not freeze,
// on any backend.
func TestFreezeEmptyIsNoOp(t *testing.T) {
	lib, err := core.NewLibrary(core.Params{Dim: 1024, Window: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x, err := cobs.New(cobs.Params{Window: 16, RowBits: 256, Hashes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []core.Index{lib, x} {
		idx.Freeze()
		if idx.Describe().Frozen {
			t.Errorf("%s: an empty index froze", idx.Describe().Backend)
		}
		if _, _, err := idx.Lookup(genome.Random(16, rng.New(2))); err == nil {
			t.Errorf("%s: Lookup on an unfrozen index succeeded", idx.Describe().Backend)
		}
	}
}
