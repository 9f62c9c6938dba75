package server

// The wire.Backend adapter: binds the binary wire protocol to the
// same exec layer the HTTP handlers use. Every conversion below is a
// straight struct copy between twin types with identical field sets,
// so the two transports cannot drift apart — byte-identical JSON
// marshals of both sides are pinned by the golden-equivalence tests.

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

// statusErr converts the transport-neutral apiError into the wire's
// application-error form.
func statusErr(aerr *apiError) error {
	return &wire.StatusError{Code: aerr.status, Msg: aerr.msg}
}

func toWireMatches(in []MatchJSON) []wire.Match {
	out := make([]wire.Match, 0, len(in))
	for _, m := range in {
		out = append(out, wire.Match(m))
	}
	return out
}

func (b wireBackend) Search(ctx context.Context, pattern []byte, both bool) (wire.SearchResult, error) {
	strands := "forward"
	if both {
		strands = "both"
	}
	// string(pattern) copies: the exec layer must not retain the frame
	// buffer the slice aliases.
	resp, aerr := b.s.execSearch(ctx, string(pattern), strands)
	if aerr != nil {
		return wire.SearchResult{}, statusErr(aerr)
	}
	return wire.SearchResult{Matches: toWireMatches(resp.Matches), Probes: resp.Probes}, nil
}

func (b wireBackend) Classify(_ context.Context, read []byte, minFraction float64) (wire.ClassifyResult, error) {
	resp, aerr := b.s.execClassify(string(read), minFraction)
	if aerr != nil {
		return wire.ClassifyResult{}, statusErr(aerr)
	}
	return wire.ClassifyResult(resp), nil
}

func (b wireBackend) Batch(ctx context.Context, patterns [][]byte, workers int) (wire.BatchResult, error) {
	texts := make([]string, len(patterns))
	for i, p := range patterns {
		texts[i] = string(p)
	}
	resp, aerr := b.s.execBatch(ctx, texts, workers)
	if aerr != nil {
		return wire.BatchResult{}, statusErr(aerr)
	}
	out := wire.BatchResult{
		Results:  make([]wire.BatchItem, len(resp.Results)),
		Probes:   resp.Probes,
		Canceled: resp.Canceled,
	}
	for i, item := range resp.Results {
		out.Results[i] = wire.BatchItem{Matches: toWireMatches(item.Matches), Error: item.Error}
	}
	return out, nil
}

func (b wireBackend) Stats() wire.StatsResult {
	return wire.StatsResult(b.s.execStats())
}
