// Package coalesce is the admission layer between the request handlers
// and the core.Index backend: it packs pending single-query probes from
// concurrent requests into query blocks of up to core.BlockWidth, so
// independent clients share the streaming passes over the library that
// LookupBlock amortizes.
//
// It is a combining design and starts no goroutines (DESIGN §7.3). A
// caller appends its one job to a mutex-guarded FIFO; if half the other
// CPUs are executing blocks it yields the processor once, so that every
// submitter already runnable enqueues first; then — unless someone took
// its job meanwhile — it takes the head of the FIFO, runs that block
// through Index.LookupBlock on its own goroutine, hands the other
// callers their results, and repeats until its own job has been taken.
// Blocks form where the backlog is: with the CPUs saturated by lookups
// the submitters queue in the Go run queue and the first to resume finds
// them all pending; otherwise a lookup is a block of one.
//
// A job whose context has died by the time it is taken is vacated: its
// caller gets the context error and the query never reaches the
// library. Every pending job belongs to a caller blocked in Lookup —
// that bounds the FIFO, and nothing needs flushing, because a caller
// never leaves its own job behind.
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

// call is one caller's pooled state: its job, the WaitGroup its
// delivery releases, and scratch for the blocks it executes.
type call struct {
	job     job
	wg      sync.WaitGroup
	blk     [core.BlockWidth]*job
	pats    [core.BlockWidth]*genome.Sequence
	results [core.BlockWidth]core.BatchResult
}

// Coalescer packs concurrent single-query lookups into probe blocks.
type Coalescer struct {
	calls sync.Pool
	// exec runs one block; tests substitute one that holds or burns the CPU.
	exec func(patterns []*genome.Sequence, results []core.BatchResult) error

	mu         sync.Mutex
	head, tail *job // FIFO of pending jobs
	pending    int  // its length
	running    int  // blocks executing right now

	jobs      *metrics.Counter
	vacated   *metrics.Counter
	occupancy *metrics.Histogram
	depth     *metrics.Gauge
	wait      *metrics.Histogram
}

// New returns a coalescer over a frozen index (any backend); it starts
// nothing. reg receives the coalescing series: pass one per server.
func New(lib core.Index, reg *metrics.Registry) (*Coalescer, error) {
	if lib == nil || !lib.Describe().Frozen {
		return nil, fmt.Errorf("coalesce: library must be frozen")
	}
	c := &Coalescer{
		exec:  lib.LookupBlock,
		calls: sync.Pool{New: func() any { return new(call) }},
		jobs: reg.Counter("biohd_coalesce_jobs_total",
			"Lookups admitted to the coalescer's pending list."),
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
	return c, nil
}

// Lookup runs one pattern through the coalescer and returns its result
// — or its context's error, if that died before the pattern's block ran.
//
//biohd:hotpath
func (c *Coalescer) Lookup(ctx context.Context, pattern *genome.Sequence) ([]core.Match, core.Stats, error) {
	procs := runtime.GOMAXPROCS(0)
	cl := c.calls.Get().(*call)
	defer c.calls.Put(cl)
	c.combine(cl, procs, c.submit(cl, ctx, pattern, procs))
	res := cl.job.res
	cl.job = job{} // the call is pooled: drop what it would pin
	return res.Matches, res.Stats, res.Err
}

// submit appends the caller's pattern to the FIFO as cl.job and reports
// whether half the other CPUs are executing blocks, so that lookups are
// what the machine is short of.
func (c *Coalescer) submit(cl *call, ctx context.Context, pattern *genome.Sequence, procs int) (saturated bool) {
	now := time.Now()
	c.mu.Lock()
	saturated = 2*c.running >= procs-1
	cl.wg.Add(1) // before the job is visible to a taker
	j := &cl.job
	j.pat, j.ctx, j.enq, j.owner, j.taken = pattern, ctx, now, cl, false
	if c.tail == nil {
		c.head = j
	} else {
		c.tail.next = j
	}
	c.tail = j
	c.pending++
	c.mu.Unlock()
	c.jobs.Inc()
	return saturated
}

// combine is the caller's side of the protocol, entered with cl.job
// pending: yield once if lookups saturate the machine (else a trip round
// the run queue buys nothing a block would repay), execute blocks from
// the head of the FIFO — whoever's they are — until the caller's own job
// is taken, and wait for it to be delivered.
func (c *Coalescer) combine(cl *call, procs int, saturated bool) {
	if saturated {
		runtime.Gosched()
	}
	for ran := false; ; ran = true {
		c.mu.Lock()
		if ran {
			c.running--
		}
		if cl.job.taken {
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
func share(pending, idle int) int {
	idle = max(idle, 1)
	return min(core.BlockWidth, (pending+idle-1)/idle)
}

// takeLocked moves the taker's share of the non-empty FIFO's head into
// blk and counts the block as executing.
func (c *Coalescer) takeLocked(blk *[core.BlockWidth]*job, procs int) int {
	k := share(c.pending, procs-c.running)
	n := 0
	for c.head != nil && n < k {
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
