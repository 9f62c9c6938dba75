package core

import "repro/internal/genome"

// AddConcurrent memorizes recs in input order through Add and stops at
// the first error, leaving the records before it memorized. workers is
// unused: encoding is 3 % of a build and the rest runs under the
// mutation lock, so there is nothing to run in parallel (EXPERIMENTS.md
// "One ingest path"). The name and the parameter stay because bench/
// calls them.
func (l *Library) AddConcurrent(recs []genome.Record, workers int) error {
	for _, rec := range recs {
		if err := l.Add(rec); err != nil {
			return err
		}
	}
	return nil
}
