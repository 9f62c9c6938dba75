package server

import (
	"io"
	"net/http"
	"strings"

	"repro/internal/genome"
)

// The mutation endpoints expose the library's segmented-snapshot
// lifecycle over HTTP: references can be ingested into the live (active)
// segment, tombstoned out of sealed segments, and compacted away — all
// while search traffic keeps flowing, because every mutation lands as
// one atomic snapshot swap inside the core.

// AddRefRequest is the POST /v1/refs payload.
type AddRefRequest struct {
	ID          string `json:"id"`
	Description string `json:"description,omitempty"`
	Sequence    string `json:"sequence"`
}

// AddRefResponse confirms an ingest.
type AddRefResponse struct {
	ID         string `json:"id"`
	References int    `json:"references"`
	Segments   int    `json:"segments"`
}

// resolveLiveRef finds the index of the live (non-removed) reference
// with the given ID, or -1. Callers hold refMu, so no Add or Remove by
// ID runs between the answer and its use.
func (s *Server) resolveLiveRef(id string) int {
	n := s.lib.NumRefs()
	for i := 0; i < n; i++ {
		rec := s.lib.Ref(i)
		if rec.ID == id && rec.Seq != nil {
			return i
		}
	}
	return -1
}

func (s *Server) handleAddRef(w http.ResponseWriter, r *http.Request) {
	var req AddRefRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ID == "" {
		writeError(w, http.StatusBadRequest, "id is required")
		return
	}
	if req.Sequence == "" {
		writeError(w, http.StatusBadRequest, "sequence is required")
		return
	}
	seq, err := genome.FromString(strings.ToUpper(req.Sequence))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.refMu.Lock()
	if s.resolveLiveRef(req.ID) >= 0 {
		s.refMu.Unlock()
		writeError(w, http.StatusConflict, "reference %q already exists", req.ID)
		return
	}
	err = s.lib.Add(genome.Record{ID: req.ID, Description: req.Description, Seq: seq})
	s.refMu.Unlock()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	info := s.lib.Describe()
	writeJSON(w, http.StatusCreated, AddRefResponse{
		ID:         req.ID,
		References: info.References,
		Segments:   info.Segments,
	})
}

// RemoveRefResponse confirms a tombstoning removal.
type RemoveRefResponse struct {
	ID             string  `json:"id"`
	TombstoneRatio float64 `json:"tombstoneRatio"`
}

func (s *Server) handleRemoveRef(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.refMu.Lock()
	idx := s.resolveLiveRef(id)
	if idx < 0 {
		s.refMu.Unlock()
		writeError(w, http.StatusNotFound, "no live reference %q", id)
		return
	}
	err := s.lib.Remove(idx)
	s.refMu.Unlock()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, RemoveRefResponse{
		ID:             id,
		TombstoneRatio: s.lib.Describe().TombstoneRatio,
	})
}

// CompactRequest is the POST /v1/compact payload. MinRatio ≤ 0 compacts
// every segment holding any tombstones.
type CompactRequest struct {
	MinRatio float64 `json:"minRatio,omitempty"`
}

// CompactResponse reports a compaction pass.
type CompactResponse struct {
	Rewritten      int     `json:"rewritten"`
	Segments       int     `json:"segments"`
	TombstoneRatio float64 `json:"tombstoneRatio"`
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	req := CompactRequest{}
	// An empty body means "compact anything with tombstones".
	if err := readBody(w, r, &req); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if req.MinRatio < 0 || req.MinRatio > 1 {
		writeError(w, http.StatusBadRequest, "minRatio %v must be in [0, 1]", req.MinRatio)
		return
	}
	n, err := s.lib.Compact(req.MinRatio)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	info := s.lib.Describe()
	writeJSON(w, http.StatusOK, CompactResponse{
		Rewritten:      n,
		Segments:       info.Segments,
		TombstoneRatio: info.TombstoneRatio,
	})
}
