package server

// The wire.Backend adapter: binds the binary wire protocol to the
// same exec layer the HTTP handlers use. The exec layer returns the
// wire package's result types, so each method hands its answer through
// unchanged; the golden-equivalence tests pin the two transports to
// identical bytes.

import (
	"context"

	"repro/internal/wire"
)

// WireBackend adapts the server for the binary wire protocol. Pass
// the result to wire.NewServer alongside Registry() so the wire
// metrics render on the same /metrics endpoint.
func (s *Server) WireBackend() wire.Backend { return wireBackend{s} }

type wireBackend struct {
	s *Server
}

// wireErr returns an exec failure as a wire.Backend error. A nil
// *StatusError must become a nil error, not a non-nil error holding a
// nil pointer.
func wireErr(serr *wire.StatusError) error {
	if serr == nil {
		return nil
	}
	return serr
}

// The pattern and read are copied into strings: the exec layer must
// not retain the frame buffer the slices alias.

func (b wireBackend) Search(ctx context.Context, pattern []byte, both bool) (wire.SearchResult, error) {
	res, serr := b.s.execSearch(ctx, string(pattern), both)
	return res, wireErr(serr)
}

func (b wireBackend) Classify(_ context.Context, read []byte, minFraction float64) (wire.ClassifyResult, error) {
	res, serr := b.s.execClassify(string(read), minFraction)
	return res, wireErr(serr)
}

func (b wireBackend) Stats() wire.StatsResult { return b.s.execStats() }
