package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cobs"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TestCanceledBatchCarriesMarker pins the cancellation contract of
// /v1/batch on every backend: a batch whose context is already dead
// comes back as a partial response marked canceled — whether it is a
// whole number of query blocks (8) or not (9). The bit-sliced backend
// used to return nil from a canceled LookupBatchContext, so its
// block-multiple batches lost the marker.
func TestCanceledBatchCarriesMarker(t *testing.T) {
	ref := genome.Random(3000, rng.New(91))
	rec := genome.Record{ID: "chr1", Seq: ref}
	backends := map[string]func() (core.Index, error){
		"hdc": func() (core.Index, error) {
			return core.NewLibrary(core.Params{Dim: 4096, Window: 32, Seed: 92})
		},
		"cobs": func() (core.Index, error) { return cobs.New(cobs.Params{Window: 32, RowBits: 4096}) },
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			idx, err := open()
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Add(rec); err != nil {
				t.Fatal(err)
			}
			idx.Freeze()
			s, err := New(idx)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)

			for _, n := range []int{core.BlockWidth, core.BlockWidth + 1} {
				body := batchBody(t, ref, n)
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)).WithContext(ctx))
				var br wire.BatchResult
				if w.Code != http.StatusOK {
					t.Fatalf("http/%d: status %d, want 200 with partial results", n, w.Code)
				}
				if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil {
					t.Fatal(err)
				}
				if done, failed := countBatchErrors(&br); !br.Canceled || done != 0 || failed != n {
					t.Errorf("http/%d: canceled=%v done=%d failed=%d, want every item canceled and the marker set",
						n, br.Canceled, done, failed)
				}
			}
		})
	}
}
