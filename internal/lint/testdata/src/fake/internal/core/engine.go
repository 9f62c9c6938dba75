package core

// Engine mimics the real segment engine: the master segment list is
// replaced in place under the lock, so only this file may touch it.
type Engine struct {
	sealedSegs []*segment
}

// publish copies the master list — the owner file is exempt.
func (e *Engine) publish() []*segment {
	return append([]*segment(nil), e.sealedSegs...)
}
