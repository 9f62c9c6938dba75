package coalesce

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// buildLib builds a small frozen sealed library.
func buildLib(tb testing.TB, seed uint64) (*core.Library, []*genome.Sequence) {
	tb.Helper()
	lib, err := core.NewLibrary(core.Params{Dim: 2048, Window: 24, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	src := rng.New(seed ^ 0xbeef)
	var refs []*genome.Sequence
	for i := 0; i < 4; i++ {
		ref := genome.Random(600, src)
		refs = append(refs, ref)
		if err := lib.Add(genome.Record{ID: fmt.Sprintf("ref%d", i), Seq: ref}); err != nil {
			tb.Fatal(err)
		}
	}
	lib.Freeze()
	return lib, refs
}

// queries builds a hit/miss pattern mix.
func queries(refs []*genome.Sequence, n int, seed uint64) []*genome.Sequence {
	src := rng.New(seed)
	w := 24
	out := make([]*genome.Sequence, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			ref := refs[i%len(refs)]
			off := src.Intn(ref.Len() - w)
			out = append(out, ref.Slice(off, off+w))
		} else {
			out = append(out, genome.Random(w, src))
		}
	}
	return out
}

func newCoalescer(tb testing.TB, lib *core.Library) *Coalescer {
	tb.Helper()
	c, err := New(lib, metrics.NewRegistry())
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// setProcs runs the rest of the test at GOMAXPROCS n.
func setProcs(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// gate holds a substituted block executor: each block announces itself
// on entered and waits, parked, for one release. A held block counts as
// executing, which is what the split rule reads.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

// gatedExec wires a gate in front of the real block executor. Set
// before the first submission.
func gatedExec(c *Coalescer, lib *core.Library, g *gate) {
	c.exec = func(pats []*genome.Sequence, results []core.BatchResult) error {
		g.entered <- struct{}{}
		<-g.release
		return lib.LookupBlock(pats, results)
	}
}

// pendingLen reads the FIFO length under the coalescer's lock.
func pendingLen(c *Coalescer) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending
}

// pendingCaller submits pattern as a caller that is then preempted
// before it reaches combine: its job sits in the FIFO for a taker, and
// finish runs the rest of its Lookup.
func pendingCaller(tb testing.TB, c *Coalescer, ctx context.Context, pattern *genome.Sequence, procs int) (finish func() core.BatchResult) {
	tb.Helper()
	cl := new(call)
	saturated := c.submit(cl, ctx, pattern, procs)
	return func() core.BatchResult {
		c.combine(cl, procs, saturated)
		return cl.job.res
	}
}

// checkAccounting asserts that every lookup is in exactly one place:
// a slot of an executed block or a vacated slot.
func checkAccounting(tb testing.TB, c *Coalescer, lookups int64) {
	tb.Helper()
	inBlocks := int64(c.occupancy.Sum())
	if got := inBlocks + c.vacated.Value(); got != c.jobs.Value() {
		tb.Errorf("block slots %d + vacated %d = %d, want jobs admitted %d",
			inBlocks, c.vacated.Value(), got, c.jobs.Value())
	}
	if c.jobs.Value() != lookups {
		tb.Errorf("admitted %d, want %d lookups", c.jobs.Value(), lookups)
	}
	if n := pendingLen(c); n != 0 || c.running != 0 {
		tb.Errorf("at rest: pending = %d, running = %d; want 0, 0", n, c.running)
	}
}

// TestLookupEquivalence: coalesced results are identical — matches,
// stats, and errors — to direct Lookup calls for the same patterns,
// under enough concurrency that blocks actually pack.
func TestLookupEquivalence(t *testing.T) {
	lib, refs := buildLib(t, 41)
	pats := queries(refs, 64, 42)
	pats = append(pats, nil, genome.Random(5, rng.New(1))) // invalid: nil and too-short
	c := newCoalescer(t, lib)

	type want struct {
		matches []core.Match
		stats   core.Stats
		errStr  string
	}
	wants := make([]want, len(pats))
	for i, p := range pats {
		m, st, err := lib.Lookup(p)
		wants[i] = want{matches: m, stats: st}
		if err != nil {
			wants[i].errStr = err.Error()
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(pats))
	got := make([]want, len(pats))
	for i := range pats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, st, err := c.Lookup(context.Background(), pats[i])
			got[i] = want{matches: m, stats: st}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := range pats {
		if errs[i] != nil {
			got[i].errStr = errs[i].Error()
		}
		if got[i].errStr != wants[i].errStr {
			t.Errorf("pattern %d: err %q, want %q", i, got[i].errStr, wants[i].errStr)
		}
		if !reflect.DeepEqual(got[i].matches, wants[i].matches) {
			t.Errorf("pattern %d: matches differ\n got %v\nwant %v", i, got[i].matches, wants[i].matches)
		}
		if got[i].stats != wants[i].stats {
			t.Errorf("pattern %d: stats %+v, want %+v", i, got[i].stats, wants[i].stats)
		}
	}
	checkAccounting(t, c, int64(len(pats)))
}

// TestBurstEquivalence: eleven callers all pending before any of them
// takes a block are served in two blocks — a full one and the three
// left — and each gets the result a direct lookup gives.
func TestBurstEquivalence(t *testing.T) {
	lib, refs := buildLib(t, 43)
	pats := queries(refs, 11, 44)
	c := newCoalescer(t, lib)
	finish := make([]func() core.BatchResult, len(pats))
	for i, p := range pats {
		finish[i] = pendingCaller(t, c, context.Background(), p, 1)
	}
	for i, p := range pats {
		got := finish[i]()
		m, st, err := lib.Lookup(p)
		if !reflect.DeepEqual(got.Matches, m) || got.Stats != st || !errors.Is(got.Err, err) {
			t.Errorf("pattern %d: coalesced result differs from direct lookup", i)
		}
	}
	if n, sum := c.occupancy.Count(), c.occupancy.Sum(); n != 2 || sum != 11 {
		t.Errorf("blocks = %d holding %v lookups, want 2 holding 11", n, sum)
	}
	checkAccounting(t, c, int64(len(pats)))
}

// TestPreCanceledVacatesAtPack: a job whose context is already dead
// when its block is taken is vacated without any block executing.
func TestPreCanceledVacatesAtPack(t *testing.T) {
	lib, refs := buildLib(t, 45)
	c := newCoalescer(t, lib)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Lookup(ctx, queries(refs, 1, 46)[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.vacated.Value() != 1 {
		t.Errorf("vacated = %d, want 1", c.vacated.Value())
	}
	if n := c.occupancy.Count(); n != 0 {
		t.Errorf("occupancy observations = %d, want 0 (no block should execute)", n)
	}
	checkAccounting(t, c, 1)
}

// TestCancelWhileQueuedVacatesAtDispatch: a pending job whose context
// dies before anyone takes it is vacated by the taker — here another
// caller — without stalling the taker's own lookup.
func TestCancelWhileQueuedVacatesAtDispatch(t *testing.T) {
	setProcs(t, 1)
	lib, refs := buildLib(t, 47)
	g := newGate()
	c := newCoalescer(t, lib)
	gatedExec(c, lib, g)
	pats := queries(refs, 2, 48)

	// The first caller is preempted between submit and combine, and its
	// context dies while its job is pending.
	ctx, cancel := context.WithCancel(context.Background())
	first := pendingCaller(t, c, ctx, pats[0], 1)
	cancel()

	// A second caller arrives, takes the FIFO head — the dead job and
	// its own — vacates the one and runs the other.
	var err2 error
	done := make(chan struct{})
	go func() { defer close(done); _, _, err2 = c.Lookup(context.Background(), pats[1]) }()
	<-g.entered
	if v := c.vacated.Value(); v != 1 {
		t.Errorf("vacated = %d, want 1", v)
	}
	if n := c.occupancy.Count(); n != 1 || c.occupancy.Sum() != 1 {
		t.Errorf("%d blocks holding %v lookups, want one block of 1", n, c.occupancy.Sum())
	}
	close(g.release)
	<-done
	if err2 != nil {
		t.Errorf("live lookup sharing the dead job's block: %v", err2)
	}
	// The first caller resumes to find its job taken and answered.
	if res := first(); !errors.Is(res.Err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", res.Err)
	}
	checkAccounting(t, c, 2)
}

// TestBlocksFormUnderSaturation: eight closed-loop submitters against
// an executor that burns a block's worth of CPU, on one and on two
// processors. The backlog
// is then eight goroutines in the Go run queue, and the coalescer must
// see it: a submitter that finds the other CPU mid-block yields, and
// the one that resumes first finds the others pending.
// (The design this replaced measured a mean of 1.00 here — its drain
// goroutine could only run when a worker was idle, and flushed thin.)
// The submitters share one budget of lookups so that they stop
// together: a straggler finishing its rounds alone would be measuring
// an idle machine.
func TestBlocksFormUnderSaturation(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			lib, refs := buildLib(t, 49)
			c := newCoalescer(t, lib)
			c.exec = func(pats []*genome.Sequence, results []core.BatchResult) error {
				for t0 := time.Now(); time.Since(t0) < 250*time.Microsecond; {
				}
				return lib.LookupBlock(pats, results)
			}
			const submitters, budget = 8, 480
			pats := queries(refs, submitters, 50)
			var done atomic.Int64
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(p *genome.Sequence) {
					defer wg.Done()
					for done.Add(1) <= budget {
						if _, _, err := c.Lookup(context.Background(), p); err != nil {
							t.Errorf("lookup: %v", err)
							return
						}
					}
				}(pats[s])
			}
			wg.Wait()
			mean := c.occupancy.Sum() / float64(c.occupancy.Count())
			t.Logf("GOMAXPROCS %d: %d blocks, mean occupancy %.2f", procs, c.occupancy.Count(), mean)
			if mean < 2 {
				t.Errorf("mean block occupancy %.2f under saturation, want ≥ 2", mean)
			}
			checkAccounting(t, c, budget)
		})
	}
}

// TestIdleLookupRunsOnCaller: New starts no goroutine, and a lone
// lookup is a block of one executed by its caller — there is no other
// goroutine it could run on.
func TestIdleLookupRunsOnCaller(t *testing.T) {
	lib, refs := buildLib(t, 59)
	before := runtime.NumGoroutine()
	c := newCoalescer(t, lib)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after New, %d before: it must start none", n, before)
	}
	during := -1
	c.exec = func(pats []*genome.Sequence, results []core.BatchResult) error {
		during = runtime.NumGoroutine() // unsynchronized on purpose: -race flags any hand-off
		return lib.LookupBlock(pats, results)
	}
	p := queries(refs, 1, 60)[0]
	m, st, err := c.Lookup(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	dm, dst, _ := lib.Lookup(p)
	if !reflect.DeepEqual(m, dm) || st != dst {
		t.Error("idle lookup differs from direct path")
	}
	if during > before {
		t.Errorf("%d goroutines while the block ran, %d before New", during, before)
	}
	if c.occupancy.Count() != 1 || c.occupancy.Sum() != 1 {
		t.Errorf("idle lookup: %d blocks holding %v; want one block of 1",
			c.occupancy.Count(), c.occupancy.Sum())
	}
	checkAccounting(t, c, 1)
}

// TestSplitLeavesWorkForIdleCPUs pins the share rule, then watches it
// applied to a FIFO: on four processors the first taker of eight
// callers claims two, the next — one block now executing — a third of
// the rest, and a taker that finds every other processor busy all that
// is left.
func TestSplitLeavesWorkForIdleCPUs(t *testing.T) {
	for _, tc := range []struct{ pending, idle, want int }{
		{8, 4, 2},  // even split
		{8, 3, 3},  // rounded up: the backlog is always covered
		{1, 4, 1},  // never zero
		{8, 1, 8},  // only this CPU is free: a full block
		{8, 0, 8},  // more blocks executing than CPUs: the same
		{30, 2, 8}, // capped by the block width
	} {
		if got := share(tc.pending, tc.idle); got != tc.want {
			t.Errorf("share(pending %d, idle %d) = %d, want %d",
				tc.pending, tc.idle, got, tc.want)
		}
	}

	lib, refs := buildLib(t, 51)
	c := newCoalescer(t, lib)
	pats := queries(refs, 8, 52)
	const procs = 4
	for _, p := range pats {
		pendingCaller(t, c, context.Background(), p, procs)
	}
	var blk [core.BlockWidth]*job
	c.mu.Lock()
	first := c.takeLocked(&blk, procs)  // 8 pending over 4 idle CPUs
	second := c.takeLocked(&blk, procs) // 6 pending over 3
	c.running = procs                   // every other CPU mid-block
	third := c.takeLocked(&blk, procs)
	c.mu.Unlock()
	if first != 2 || second != 2 || third != 4 {
		t.Errorf("takes of %d, %d, %d lookups; want 2, 2, 4", first, second, third)
	}

	// The same eight callers, alone on the four processors, with the
	// last in the FIFO the first to resume: it runs block after block
	// from the head, whoever's the jobs are, until its own is taken, and
	// nobody else being there to take what it leaves, it takes it all —
	// 2, 2, then single jobs as the backlog falls under the CPU count.
	c = newCoalescer(t, lib)
	finish := make([]func() core.BatchResult, len(pats))
	for i, p := range pats {
		finish[i] = pendingCaller(t, c, context.Background(), p, procs)
	}
	for i := len(pats) - 1; i >= 0; i-- {
		got := finish[i]()
		if m, _, _ := lib.Lookup(pats[i]); !reflect.DeepEqual(got.Matches, m) || got.Err != nil {
			t.Errorf("caller %d: result differs from direct lookup", i)
		}
	}
	if n, sum := c.occupancy.Count(), c.occupancy.Sum(); n != 6 || sum != 8 {
		t.Errorf("%d blocks holding %v lookups, want 6 holding 8", n, sum)
	}
	checkAccounting(t, c, int64(len(pats)))
}

// TestYieldOnlyWhenLookupsSaturate pins when a submitter gives way to
// the run queue: only once half the other CPUs are executing blocks. On
// one CPU there are no others, so always.
func TestYieldOnlyWhenLookupsSaturate(t *testing.T) {
	lib, refs := buildLib(t, 65)
	pat := queries(refs, 1, 66)[0]
	for _, tc := range []struct {
		procs, running int
		want           bool
	}{
		{1, 0, true},
		{2, 0, false}, {2, 1, true},
		{4, 1, false}, {4, 2, true},
		{32, 15, false}, {32, 16, true},
	} {
		c := newCoalescer(t, lib)
		c.running = tc.running
		if got := c.submit(new(call), context.Background(), pat, tc.procs); got != tc.want {
			t.Errorf("GOMAXPROCS %d, %d blocks executing: saturated = %v, want %v", tc.procs, tc.running, got, tc.want)
		}
	}
}

// TestAccountingAfterMixedRun: live, pre-canceled and bursty lookups
// from many goroutines at once — afterwards every lookup is in exactly
// one block or vacated, and the FIFO is empty.
func TestAccountingAfterMixedRun(t *testing.T) {
	lib, refs := buildLib(t, 61)
	c := newCoalescer(t, lib)
	pats := queries(refs, 12, 62)
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	var lookups atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := pats[(i+w)%len(pats)]
				switch (i + w) % 3 {
				case 0:
					if _, _, err := c.Lookup(context.Background(), p); err != nil {
						t.Errorf("live lookup: %v", err)
					}
					lookups.Add(1)
				case 1:
					if _, _, err := c.Lookup(dead, p); !errors.Is(err, context.Canceled) {
						t.Errorf("dead-context lookup: err = %v, want context.Canceled", err)
					}
					lookups.Add(1)
				case 2:
					// A burst: three callers at once, each with one job.
					var burst sync.WaitGroup
					for _, p := range pats[:3] {
						burst.Add(1)
						go func() {
							defer burst.Done()
							if _, _, err := c.Lookup(context.Background(), p); err != nil {
								t.Errorf("burst lookup: %v", err)
							}
						}()
					}
					burst.Wait()
					lookups.Add(3)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.vacated.Value() == 0 || c.occupancy.Count() == 0 {
		t.Errorf("run was not mixed: vacated %d, blocks %d",
			c.vacated.Value(), c.occupancy.Count())
	}
	checkAccounting(t, c, lookups.Load())
}

// TestCoalescedLookupAllocs: the coalescer itself allocates nothing per
// lookup — jobs, the wait handle and the block scratch are pooled — so
// a coalesced Lookup costs what the block lookup under it costs.
func TestCoalescedLookupAllocs(t *testing.T) {
	lib, refs := buildLib(t, 63)
	c := newCoalescer(t, lib)
	c.exec = func(pats []*genome.Sequence, results []core.BatchResult) error {
		clear(results[:len(pats)])
		return nil
	}
	p := queries(refs, 1, 64)[0]
	ctx := context.Background()
	if a := testing.AllocsPerRun(200, func() { c.Lookup(ctx, p) }); a != 0 {
		t.Errorf("coalesced Lookup allocates %v times around its block, want 0", a)
	}
}

// TestChurnUnderCoalescedTraffic exercises the coalescer against live
// snapshot churn — concurrent ingest, removal, and compaction — and is
// most valuable under -race.
func TestChurnUnderCoalescedTraffic(t *testing.T) {
	lib, refs := buildLib(t, 55)
	lib.SetSealThreshold(1)
	c := newCoalescer(t, lib)
	pats := queries(refs, 16, 56)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := pats[(i+w)%len(pats)]
				if _, _, err := c.Lookup(context.Background(), p); err != nil {
					t.Errorf("lookup under churn: %v", err)
					return
				}
			}
		}(w)
	}
	src := rng.New(57)
	for i := 0; i < 30; i++ {
		ref := genome.Random(300, src)
		if err := lib.Add(genome.Record{ID: fmt.Sprintf("churn%d", i), Seq: ref}); err != nil {
			t.Error(err)
			break
		}
		if i%3 == 2 {
			if err := lib.Remove(lib.NumRefs() - 1); err != nil {
				t.Error(err)
				break
			}
		}
		if i%10 == 9 {
			if _, err := lib.Compact(0); err != nil {
				t.Error(err)
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}
