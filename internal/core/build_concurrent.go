package core

import "repro/internal/genome"

// AddConcurrent memorizes recs in input order through Add and stops at
// the first error, leaving the records before it memorized. workers is
// unused: a build memorizes one window at a time under the mutation
// lock, and the parallel-encode build this replaced measured no faster
// (EXPERIMENTS.md, "Retired A/B write-ups": 264097d). The name and the
// parameter stay because bench/ calls them.
func (l *Library) AddConcurrent(recs []genome.Record, workers int) error {
	for _, rec := range recs {
		if err := l.Add(rec); err != nil {
			return err
		}
	}
	return nil
}
