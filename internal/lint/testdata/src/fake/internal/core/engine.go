package core

// Engine mimics the real segment engine: the master segment list is
// replaced under the lock and the per-segment reference lists are
// rewritten under it, so only this file may touch them.
type Engine struct {
	sealedSegs []*segment
	active     ledger
}

// ledger mimics the engine's account of one segment's references.
type ledger struct {
	members []int32
}

// tombstoned reads a reference list — the owner file is exempt.
func (e *Engine) tombstoned(ref int32) bool {
	for _, m := range e.active.members {
		if m == ref {
			return true
		}
	}
	return false
}

// publish copies the master list — the owner file is exempt.
func (e *Engine) publish() []*segment {
	return append([]*segment(nil), e.sealedSegs...)
}
