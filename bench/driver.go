package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/genome"
)

// requestDeadline is the latency past which a request is a failure
// even when its answer is right.
const requestDeadline = time.Second

// tally counts what the oracle saw. Failed requests contribute no
// latency sample.
type tally struct {
	Attempted int
	Failed    int
	// Hit counts for recall (Correct/Expected) and precision
	// (Correct/Returned).
	Expected, Returned, Correct int
	FirstFailure                string
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Expected += o.Expected
	t.Returned += o.Returned
	t.Correct += o.Correct
	if t.FirstFailure == "" {
		t.FirstFailure = o.FirstFailure
	}
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if t.FirstFailure == "" {
		t.FirstFailure = fmt.Sprintf(format, args...)
	}
}

// judge scores one finished request against the oracle and reports
// whether it succeeded. On the exact workloads any difference from the
// oracle is a failure. Approximate classification is allowed to miss —
// that is what recall measures — so only an error or a blown deadline
// fails there.
func (t *tally) judge(w workload, q *query, a answer, err error, lat time.Duration) bool {
	t.Attempted++
	if err != nil {
		t.fail("%s: %v", q.Text, err)
		return false
	}
	if w.Classify {
		if q.Origin != "" {
			t.Expected++
		}
		if a.Ref != "" {
			t.Returned++
			if a.Ref == q.Origin {
				t.Correct++
			}
		}
		if !w.Approx && a.Ref != q.Origin {
			t.fail("%s: classified %q, oracle %q", q.Text, a.Ref, q.Origin)
			return false
		}
	} else {
		t.Expected += len(q.Want)
		t.Returned += len(a.Hits)
		t.Correct += commonHits(a.Hits, q.Want)
		if !sameHits(a.Hits, q.Want) {
			t.fail("%s: answered %v, oracle %v", q.Text, a.Hits, q.Want)
			return false
		}
	}
	if lat > requestDeadline {
		t.fail("%s: took %v, deadline %v", q.Text, lat, requestDeadline)
		return false
	}
	return true
}

// measureWindow is one measured stretch: segments of equal length
// after a discarded warm-up.
type measureWindow struct {
	start    time.Time // first measured instant (after warm-up)
	segment  time.Duration
	segments int
}

func (m measureWindow) end() time.Time {
	return m.start.Add(time.Duration(m.segments) * m.segment)
}

// segmentOf places an instant: -1 during warm-up, clipped to the last
// segment at the far edge.
func (m measureWindow) segmentOf(t time.Time) int {
	d := t.Sub(m.start)
	if d < 0 {
		return -1
	}
	return min(int(d/m.segment), m.segments-1)
}

// measured is what one untraced stretch of load produced.
type measured struct {
	SegQPS   []float64 `json:"segment_qps"`
	SegP50   []float64 `json:"segment_p50_us"`
	SegP95   []float64 `json:"segment_p95_us"`
	SegWrite []float64 `json:"segment_write_p50_us,omitempty"`

	lat   []float64 // every read latency sample, µs, ascending
	late  []float64 // writer lateness samples, µs, ascending
	tally tally
}

// clientRun is one closed-loop client's private record.
type clientRun struct {
	lat   [][]float64 // per segment, µs
	tally tally
}

// runLoad drives the workload's closed-loop clients (and, for churn,
// the open-loop writer) from warm-up start to the end of the measured
// window.
func runLoad(svc *service, pool []query, churn *churnState, warm time.Duration, seconds float64, segments int) measured {
	w := svc.w
	win := measureWindow{
		start:    time.Now().Add(warm),
		segment:  time.Duration(seconds * float64(time.Second) / float64(segments)),
		segments: segments,
	}
	// The phase's context outlives the window by more than a request may
	// take: requests are failed for lateness by judge, not cut short.
	ctx, cancel := context.WithDeadline(context.Background(), win.end().Add(5*requestDeadline))
	defer cancel()
	clients := w.clients()
	runs := make([]clientRun, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		runs[c].lat = make([][]float64, segments)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			run := &runs[c]
			// Clients start at evenly spaced pool positions, so no two
			// ask for the same query at the same moment.
			for i := c * len(pool) / clients; ; i++ {
				q := &pool[i%len(pool)]
				start := time.Now()
				if !start.Before(win.end()) {
					return
				}
				a, err := svc.call(ctx, c, q)
				lat := time.Since(start)
				seg := win.segmentOf(start)
				if seg < 0 {
					continue
				}
				if run.tally.judge(w, q, a, err, lat) {
					run.lat[seg] = append(run.lat[seg], float64(lat)/float64(time.Microsecond))
				}
			}
		}(c)
	}
	var writer writerRun
	if churn != nil {
		stop, cancel := context.WithDeadline(ctx, win.end())
		writer = churn.run(ctx, stop, svc, win)
		cancel()
	}
	wg.Wait()

	var m measured
	for seg := 0; seg < segments; seg++ {
		var lat []float64
		for c := range runs {
			lat = append(lat, runs[c].lat[seg]...)
		}
		sort.Float64s(lat)
		m.SegQPS = append(m.SegQPS, float64(len(lat))/win.segment.Seconds())
		m.SegP50 = append(m.SegP50, percentile(lat, 0.50))
		m.SegP95 = append(m.SegP95, percentile(lat, 0.95))
		m.lat = append(m.lat, lat...)
		if churn != nil {
			ws := writer.write[seg]
			sort.Float64s(ws)
			m.SegWrite = append(m.SegWrite, percentile(ws, 0.50))
		}
	}
	sort.Float64s(m.lat)
	for c := range runs {
		m.tally.merge(runs[c].tally)
	}
	m.tally.merge(writer.tally)
	m.late = writer.late
	sort.Float64s(m.late)
	return m
}

// churnState is the writer's view of the library across a workload's
// phases: which prepared references are still to ingest and which
// dynamic ones are live, oldest first.
type churnState struct {
	dyn  []genome.Record
	next int
	live []genome.Record
}

// writerRun is what the open-loop writer recorded.
type writerRun struct {
	write [][]float64 // per segment: Add latency from its due instant, µs
	late  []float64   // how late each tick started, µs
	tally tally
}

// run is the open-loop writer: every 1/churnHz seconds, whether or not
// the previous tick has finished, one Add of a fresh reference is due;
// once more than churnLiveRefs dynamic references are live the oldest
// is deleted. Each Add is followed by a read-your-write search that
// must hit and each Delete by one that must miss. Latency runs from
// the instant the tick was due, so a stall shows as the wait it imposes
// on the ticks queued behind it. ctx bounds its requests; it returns
// between ticks once stop is done, never abandoning a request.
func (cs *churnState) run(ctx, stop context.Context, svc *service, win measureWindow) writerRun {
	out := writerRun{write: make([][]float64, win.segments)}
	period := time.Second / churnHz
	first := time.Now()
	for k := 0; ; k++ {
		due := first.Add(time.Duration(k) * period)
		select {
		case <-stop.Done():
			return out
		case <-time.After(time.Until(due)):
		}
		if cs.next >= len(cs.dyn) {
			out.tally.Attempted++
			out.tally.fail("writer ran out of prepared references after %d", cs.next)
			return out
		}
		seg := win.segmentOf(due)
		lateness := max(time.Since(due), 0)

		rec := cs.dyn[cs.next]
		cs.next++
		err := svc.addRef(ctx, rec)
		wrote := time.Since(due)
		if seg >= 0 {
			out.late = append(out.late, float64(lateness)/float64(time.Microsecond))
			out.tally.Attempted++
			switch {
			case err != nil:
				out.tally.fail("add %s: %v", rec.ID, err)
			default:
				out.write[seg] = append(out.write[seg], float64(wrote)/float64(time.Microsecond))
			}
		}
		if err != nil {
			continue
		}
		cs.live = append(cs.live, rec)
		cs.readBack(ctx, svc, rec, k, true, seg >= 0, &out.tally)

		if len(cs.live) > churnLiveRefs {
			old := cs.live[0]
			cs.live = cs.live[1:]
			err := svc.removeRef(ctx, old.ID)
			if seg >= 0 {
				out.tally.Attempted++
				if err != nil {
					out.tally.fail("delete %s: %v", old.ID, err)
				}
			}
			if err == nil {
				cs.readBack(ctx, svc, old, k, false, seg >= 0, &out.tally)
			}
		}
	}
}

// readBack searches one window of rec on the writer's connection: it
// must be found at exactly its offset while the reference is live and
// not at all once it is deleted.
func (cs *churnState) readBack(ctx context.Context, svc *service, rec genome.Record, k int, live, count bool, t *tally) {
	off := (k * 37) % (rec.Seq.Len() - window + 1)
	q := patternQuery(rec.Seq.Slice(off, off+window))
	if live {
		q.Want = []hit{{Ref: rec.ID, Off: off}}
	}
	start := time.Now()
	a, err := svc.probe(ctx, &q)
	if count {
		t.judge(svc.w, &q, a, err, time.Since(start))
	}
}
