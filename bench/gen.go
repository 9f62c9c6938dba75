package main

import (
	"fmt"

	"repro/internal/genome"
	"repro/internal/rng"
)

// hit is one expected or returned occurrence: reference ID and offset.
type hit struct {
	Ref string
	Off int
}

// query is one request of a pool with its ground truth.
type query struct {
	Text string           // what a served transport sends
	Seq  *genome.Sequence // what an in-process call takes
	// Want is the oracle's answer for a pattern, ordered by reference
	// index then offset (the order Lookup documents).
	Want []hit
	// Origin is the reference a read was sampled from, "" for a random
	// read no reference should claim. Patterns leave it empty.
	Origin string
}

// inputs is everything a workload's run is fed, derived from the seed
// alone: the program under test only ever sees these values.
type inputs struct {
	Refs  []genome.Record
	Bases int
	Pool  []query // the measured segments cycle through these
	Trace []query // one distinct query per traced request
	// Dyn is the reference stream the churn writer ingests, in order.
	Dyn []genome.Record
}

// Fork labels: each input family has its own stream, so changing how
// many queries one pool draws never shifts another family's bytes.
const (
	forkRefs = iota + 1
	forkPool
	forkTrace
	forkDyn
)

// generateRefs derives the workload's references from seed: the part
// of the inputs that set-up consumes (and times).
func generateRefs(w workload, seed uint64) *inputs {
	src := rng.New(seed).Fork(forkRefs)
	in := &inputs{}
	for i := 0; i < w.Refs; i++ {
		in.Refs = append(in.Refs, genome.Record{
			ID:  fmt.Sprintf("ref%04d", i),
			Seq: genome.Random(w.RefLen, src),
		})
		in.Bases += w.RefLen
	}
	return in
}

// generateQueries adds the query pools and the dynRefs references the
// churn writer will ingest.
func generateQueries(w workload, in *inputs, seed uint64, dynRefs int) {
	in.Pool = makePool(w, in.Refs, poolSize, rng.New(seed).Fork(forkPool), false)
	in.Trace = makePool(w, in.Refs, w.TraceRequests, rng.New(seed).Fork(forkTrace), true)
	src := rng.New(seed).Fork(forkDyn)
	for i := 0; i < dynRefs; i++ {
		in.Dyn = append(in.Dyn, genome.Record{
			ID:  fmt.Sprintf("dyn%05d", i),
			Seq: genome.Random(churnRefLen, src),
		})
	}
}

// makePool draws n queries. Query i is drawn from a reference (a
// window of it, or a mutated read) when the running share
// ⌊(i+1)·Present⌋ steps up, and is random otherwise, so the mix is exact
// for any n and present and absent queries interleave. distinct redraws
// a text already in the pool: a traced request's text is its identifier
// across the socket. (A workload's TraceRequests·Present stays well
// under its window count, so the redraws end.)
func makePool(w workload, refs []genome.Record, n int, src *rng.Source, distinct bool) []query {
	pool := make([]query, 0, n)
	seen := map[string]bool{}
	for i := 0; i < n; {
		var q query
		fromRef := int(float64(i+1)*w.Present) > int(float64(i)*w.Present)
		switch {
		case fromRef && w.Classify:
			q = drawRead(refs, src)
		case fromRef:
			r := refs[src.Intn(len(refs))]
			off := src.Intn(r.Seq.Len() - window + 1)
			q = patternQuery(r.Seq.Slice(off, off+window))
		case w.Classify:
			q = patternQuery(genome.Random(readLen, src))
		default:
			q = patternQuery(genome.Random(window, src))
		}
		if distinct && seen[q.Text] {
			continue
		}
		seen[q.Text] = true
		pool = append(pool, q)
		i++
	}
	return pool
}

func patternQuery(seq *genome.Sequence) query {
	return query{Text: seq.String(), Seq: seq}
}

// drawRead samples a read out of a random reference and substitutes
// each base with probability readSubRate; Origin is its ground truth.
func drawRead(refs []genome.Record, src *rng.Source) query {
	r := refs[src.Intn(len(refs))]
	off := src.Intn(r.Seq.Len() - readLen + 1)
	read := r.Seq.Slice(off, off+readLen)
	for i := 0; i < read.Len(); i++ {
		if src.Float64() < readSubRate {
			read.Set(i, genome.Base((int(read.At(i))+1+src.Intn(genome.AlphabetSize-1))%genome.AlphabetSize))
		}
	}
	q := patternQuery(read)
	q.Origin = r.ID
	return q
}
