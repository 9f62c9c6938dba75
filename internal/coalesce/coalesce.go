// Package coalesce is the admission layer between the request handlers
// and the core.Index backend: it packs pending single-query probes from
// concurrent requests into query blocks of up to core.BlockWidth, so
// independent clients share the streaming passes over the library that
// LookupBlock amortizes.
//
// It is a combining design and starts no goroutines (DESIGN §12). A
// caller appends its jobs to a mutex-guarded FIFO; if half the other CPUs
// are executing blocks it yields the processor once, so that every
// submitter already runnable enqueues first; then — unless someone took
// its jobs meanwhile — it takes the head of the FIFO, runs that block
// through Index.LookupBlock on its own goroutine, hands the other
// callers their results, and repeats until its own jobs have been
// taken. Blocks form where the backlog is: with the CPUs saturated by
// lookups the submitters queue in the Go run queue and the first to
// resume finds them all pending; otherwise a lookup is a block of one.
//
// A job whose context has died by the time it is taken is vacated: its
// caller gets the context error and the query never reaches the
// library. Every pending job belongs to a caller blocked in LookupEach,
// at most a block width each — that bounds the FIFO, and nothing needs
// flushing, because a caller never leaves its own jobs behind.
package coalesce

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/metrics"
)

// Config holds the one coalescing knob.
type Config struct {
	// BatchSize is the maximum queries packed into one block. 0 (or
	// anything above it) selects core.BlockWidth; 1 or a negative selects
	// the direct path instead — callers check Enabled before New.
	BatchSize int
}

// Enabled reports whether the configuration asks for coalescing at all.
func (c Config) Enabled() bool { return c.BatchSize == 0 || c.BatchSize > 1 }

// job is one pending lookup, living inside its caller's call. next and
// taken belong to the FIFO and are guarded by Coalescer.mu. Whoever
// takes the job writes res and then releases owner.wg — its last touch.
type job struct {
	pat   *genome.Sequence
	ctx   context.Context
	enq   time.Time
	res   core.BatchResult
	owner *call
	next  *job
	taken bool
}

// call is one caller's pooled state: its jobs, the WaitGroup their
// deliveries release, and scratch for the blocks it executes.
type call struct {
	jobs    [core.BlockWidth]job
	wg      sync.WaitGroup
	blk     [core.BlockWidth]*job
	pats    [core.BlockWidth]*genome.Sequence
	results [core.BlockWidth]core.BatchResult
}

// Coalescer packs concurrent single-query lookups into probe blocks.
type Coalescer struct {
	lib   core.Index
	width int
	calls sync.Pool
	// exec runs one block; tests substitute one that holds or burns the CPU.
	exec func(patterns []*genome.Sequence, results []core.BatchResult) error

	mu         sync.Mutex
	head, tail *job // FIFO of pending jobs
	pending    int  // its length
	running    int  // blocks executing right now
	closed     bool

	jobs      *metrics.Counter
	direct    *metrics.Counter
	vacated   *metrics.Counter
	occupancy *metrics.Histogram
	depth     *metrics.Gauge
	wait      *metrics.Histogram
}

// New returns a coalescer over a frozen index (any backend); it starts
// nothing. reg receives the coalescing series: pass one per server.
func New(lib core.Index, cfg Config, reg *metrics.Registry) (*Coalescer, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("coalesce: config disables coalescing; use the direct path")
	}
	if lib == nil || !lib.Describe().Frozen {
		return nil, fmt.Errorf("coalesce: library must be frozen")
	}
	c := &Coalescer{
		lib:   lib,
		width: cfg.BatchSize,
		exec:  lib.LookupBlock,
		calls: sync.Pool{New: func() any { return new(call) }},
		jobs: reg.Counter("biohd_coalesce_jobs_total",
			"Lookups admitted to the coalescer's pending list."),
		direct: reg.Counter("biohd_coalesce_direct_total",
			"Lookups served on the direct path because the coalescer was closed."),
		vacated: reg.Counter("biohd_coalesce_vacated_total",
			"Pending lookups whose context died before their block ran; their slots were vacated."),
		occupancy: reg.Histogram("biohd_coalesce_block_occupancy",
			"Realized queries per executed probe block.",
			metrics.LinearBuckets(1, 1, core.BlockWidth)),
		depth: reg.Gauge("biohd_coalesce_queue_depth",
			"Lookups still pending, sampled after each block is taken."),
		wait: reg.Histogram("biohd_coalesce_wait_seconds",
			"Time from submission to the start of the lookup's block.",
			[]float64{
				25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
				1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
			}),
	}
	if c.width == 0 || c.width > core.BlockWidth {
		c.width = core.BlockWidth
	}
	return c, nil
}

// Close stops admission: later lookups run on the direct path; pending
// ones complete, their callers being the ones running them. Idempotent.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Lookup runs one pattern through the coalescer and returns its result
// — or its context's error, if that died before the pattern's block ran.
func (c *Coalescer) Lookup(ctx context.Context, pattern *genome.Sequence) ([]core.Match, core.Stats, error) {
	var res [1]core.BatchResult
	c.LookupEach(ctx, []*genome.Sequence{pattern}, res[:])
	return res[0].Matches, res[0].Stats, res[0].Err
}

// LookupEach runs every pattern through the coalescer, a block width at
// a time, and fills results[i] with pattern i's outcome. len(results)
// must be at least len(patterns).
//
//biohd:hotpath
func (c *Coalescer) LookupEach(ctx context.Context, patterns []*genome.Sequence, results []core.BatchResult) {
	cl := c.calls.Get().(*call)
	for len(patterns) > 0 {
		n := min(len(patterns), core.BlockWidth)
		procs := runtime.GOMAXPROCS(0)
		if ok, saturated := c.submit(cl, ctx, patterns[:n], procs); ok {
			c.combine(cl, n, procs, saturated)
			for i := range cl.jobs[:n] {
				results[i] = cl.jobs[i].res
				cl.jobs[i] = job{} // the call is pooled: drop what it would pin
			}
		} else {
			for i, p := range patterns[:n] {
				m, st, err := c.lib.Lookup(p)
				results[i] = core.BatchResult{Matches: m, Stats: st, Err: err}
			}
		}
		patterns, results = patterns[n:], results[n:]
	}
	c.calls.Put(cl)
}

// submit appends the caller's patterns (at most a block width) to the
// FIFO as cl.jobs[:len(patterns)]; !ok means the coalescer is closed and
// the caller must run them itself. saturated: half the other CPUs are
// executing blocks, so lookups are what the machine is short of.
func (c *Coalescer) submit(cl *call, ctx context.Context, patterns []*genome.Sequence, procs int) (ok, saturated bool) {
	n := len(patterns)
	now := time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.direct.Add(int64(n))
		return false, false
	}
	saturated = 2*c.running >= procs-1
	cl.wg.Add(n) // before any job is visible to a taker
	for i, p := range patterns {
		j := &cl.jobs[i]
		j.pat, j.ctx, j.enq, j.owner, j.taken = p, ctx, now, cl, false
		if c.tail == nil {
			c.head = j
		} else {
			c.tail.next = j
		}
		c.tail = j
	}
	c.pending += n
	c.mu.Unlock()
	c.jobs.Add(int64(n))
	return true, saturated
}

// combine is the caller's side of the protocol, entered with
// cl.jobs[:n] pending: yield once if lookups saturate the machine (else
// a trip round the run queue buys nothing a block would repay), execute
// blocks from the head of the FIFO — whoever's they are — until the
// caller's own jobs are taken, and wait for those to be delivered. The
// FIFO is taken in order, so a caller's last job is taken last.
func (c *Coalescer) combine(cl *call, n, procs int, saturated bool) {
	if saturated {
		runtime.Gosched()
	}
	last := &cl.jobs[n-1]
	for ran := false; ; ran = true {
		c.mu.Lock()
		if ran {
			c.running--
		}
		if last.taken {
			c.mu.Unlock()
			break
		}
		k := c.takeLocked(&cl.blk, procs)
		c.mu.Unlock()
		c.runBlock(cl, k)
	}
	cl.wg.Wait()
}

// share is the split rule: the jobs a taker claims when idle CPUs (its
// own included) are executing no block — an even split, so that a burst
// spreads over the CPUs about to look for work, not convoys onto one.
func share(pending, idle, width int) int {
	idle = max(idle, 1)
	return min(width, (pending+idle-1)/idle)
}

// takeLocked moves the taker's share of the non-empty FIFO's head into
// blk and counts the block as executing. A share that ends inside one
// caller's run of jobs extends to the run's end: that caller needs them
// all to answer, and if it is the taker nobody else may come for the rest.
func (c *Coalescer) takeLocked(blk *[core.BlockWidth]*job, procs int) int {
	k := share(c.pending, procs-c.running, c.width)
	n := 0
	for c.head != nil && (n < k || n < c.width && c.head.owner == blk[n-1].owner) {
		j := c.head
		c.head, j.next, j.taken = j.next, nil, true
		blk[n] = j
		n++
	}
	if c.head == nil {
		c.tail = nil
	}
	c.pending -= n
	c.running++
	c.depth.Set(int64(c.pending))
	return n
}

// runBlock executes the k jobs in cl.blk: dead-context jobs are vacated
// without stalling the rest, the live ones run as one query block, and
// every job's caller is released.
func (c *Coalescer) runBlock(cl *call, k int) {
	now := time.Now()
	n := 0
	for _, j := range cl.blk[:k] {
		c.wait.Observe(now.Sub(j.enq).Seconds())
		if err := j.ctx.Err(); err != nil {
			j.res = core.BatchResult{Err: err}
			c.vacated.Inc()
			j.owner.wg.Done()
			continue
		}
		cl.blk[n], cl.pats[n] = j, j.pat
		n++
	}
	if n > 0 {
		c.occupancy.Observe(float64(n))
		if err := c.exec(cl.pats[:n], cl.results[:n]); err != nil {
			for i := range cl.results[:n] {
				cl.results[i] = core.BatchResult{Err: err}
			}
		}
		for i, j := range cl.blk[:n] {
			j.res = cl.results[i]
			j.owner.wg.Done()
		}
	}
	// The scratch must not pin delivered matches, patterns or jobs.
	clear(cl.blk[:k])
	clear(cl.pats[:n])
	clear(cl.results[:n])
}
