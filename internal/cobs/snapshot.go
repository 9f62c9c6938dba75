package cobs

import "repro/internal/core"

// snapshot is the kernel's annotation of a published core.View: the
// view's segments under their concrete type, and the widest one's row
// length, which sizes probe scratch.
type snapshot struct {
	segs     []*segment
	maxWords int
}

// annotate is Kernel.Annotate.
func annotate(v *core.View) any {
	sn := &snapshot{segs: make([]*segment, len(v.Segs))}
	for k, s := range v.Segs {
		seg := s.(*segment)
		sn.segs[k] = seg
		if seg.colWords > sn.maxWords {
			sn.maxWords = seg.colWords
		}
	}
	return sn
}

// viewOf returns the kernel's annotation of a view this index
// published.
func viewOf(v *core.View) *snapshot { return v.Aux.(*snapshot) }
