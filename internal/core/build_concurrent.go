package core

import (
	"fmt"
	"sync"

	"repro/internal/genome"
	"repro/internal/hdc"
)

// encodedRef is one reference's window encodings in offset order.
type encodedRef struct {
	rec     genome.Record
	offsets []int32
	hvs     []*hdc.HV
	err     error
	done    chan struct{}
}

// AddConcurrent encodes the given references in parallel (the window
// encoding dominates build time) and memorizes them in input order, so
// the resulting library is bit-identical to one built with sequential
// Add calls over the same records. At most workers references are
// encoded at once (workers ≤ 0 selects 1), bounding the in-flight
// encoding memory to roughly workers × (reference windows × D/8) bytes.
//
// On a frozen library, AddConcurrent is a bulk ingest: the references
// land in the active segment (auto-sealing as usual) and one snapshot
// covering the whole batch is published at the end — cheaper than
// len(recs) individual publishes.
func (l *Library) AddConcurrent(recs []genome.Record, workers int) error {
	if workers <= 0 {
		workers = 1
	}
	// Encoding reads only the immutable encoder and parameters, so it
	// runs outside the mutation lock.
	sem := make(chan struct{}, workers)
	jobs := make([]*encodedRef, len(recs))
	var wg sync.WaitGroup
	for i, rec := range recs {
		jobs[i] = &encodedRef{rec: rec, done: make(chan struct{})}
		wg.Add(1)
		sem <- struct{}{}
		go func(job *encodedRef) {
			defer wg.Done()
			defer func() { <-sem }()
			defer close(job.done)
			job.err = l.encodeRef(job)
		}(jobs[i])
	}
	// Insert in input order as each reference completes.
	l.mu.Lock()
	defer l.mu.Unlock()
	frozen := l.snap.Load() != nil
	inserted := 0
	var firstErr error
	for _, job := range jobs {
		<-job.done
		if job.err != nil {
			if firstErr == nil {
				firstErr = job.err
			}
			continue
		}
		if firstErr != nil {
			continue // keep draining, but do not insert after a failure
		}
		refIdx := int32(len(l.refs))
		l.refs = append(l.refs, job.rec)
		for k := range job.hvs {
			l.active.insert(WindowRef{Ref: refIdx, Off: job.offsets[k]}, job.hvs[k], &l.params)
		}
		l.noteAppendLocked(refIdx, job.rec, l.active.numBuckets())
		inserted++
		if frozen {
			l.maybeSealLocked()
		}
	}
	wg.Wait()
	if frozen && inserted > 0 {
		l.publishLocked()
	}
	return firstErr
}

// encodeRef encodes every stride-aligned window of the job's record.
func (l *Library) encodeRef(job *encodedRef) error {
	rec := job.rec
	if rec.Seq == nil || rec.Seq.Len() < l.params.Window {
		return fmt.Errorf("core: reference %q shorter than window %d", rec.ID, l.params.Window)
	}
	n := l.enc.NumWindows(rec.Seq.Len(), l.params.Stride)
	job.offsets = make([]int32, 0, n)
	job.hvs = make([]*hdc.HV, 0, n)
	if l.params.Approx {
		sc := l.getBlockScratch()
		defer l.putBlockScratch(sc)
		for start := 0; start+l.params.Window <= rec.Seq.Len(); start += l.params.Stride {
			hv := hdc.NewHV(l.params.Dim)
			l.enc.EncodeWindowApproxInto(hv, sc.acc, rec.Seq, start)
			job.offsets = append(job.offsets, int32(start))
			job.hvs = append(job.hvs, hv)
		}
	} else {
		l.enc.SlideExact(rec.Seq, l.params.Stride, func(start int, hv *hdc.HV) bool {
			job.offsets = append(job.offsets, int32(start))
			job.hvs = append(job.hvs, hv.Clone())
			return true
		})
	}
	return nil
}
