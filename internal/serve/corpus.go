package serve

// The corpus front door: POST /corpus/query serves the phase database's
// online similarity/uniqueness queries, and (opt-in) every completed
// job's result is ingested, so tenants' submitted workloads accumulate
// into the corpus their later queries run against. The response body is
// byte-identical to `phasechar query` for the same question — both ends
// marshal the same corpus.QueryResponse with the same encoder.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/corpus"
)

// maxQueryBytes bounds POST /corpus/query bodies: an op, a few scalar
// knobs and at most one inline query vector.
const maxQueryBytes = 64 << 10

// corpusError is the JSON error body for corpus endpoints.
type corpusError struct {
	Error string `json:"error"`
}

// handleCorpusQuery answers one corpus query. A service started without
// a corpus directory has no corpus resource at all — 404 with a clear
// body, not a 500 — and a malformed or unanswerable request is the
// client's error: 400 with the reason. A corpus that cannot answer (a
// segment it cannot read or decode, say) is the service's fault: 500,
// with the same JSON error body.
func (s *Server) handleCorpusQuery(w http.ResponseWriter, r *http.Request) {
	if s.corpus == nil {
		writeJSON(w, http.StatusNotFound, corpusError{
			Error: "no corpus on this service (start it with -corpus <dir>)",
		})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, corpusError{Error: "read: " + err.Error()})
		return
	}
	if len(body) > maxQueryBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, corpusError{Error: "corpus query too large"})
		return
	}
	var req corpus.QueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, corpusError{Error: "corpus query: " + err.Error()})
		return
	}
	resp, err := s.corpus.Query(req)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, corpus.ErrBadQuery) {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, corpusError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
