package shardnet

// Worker side of the shard service. A Server wraps a benchmark registry
// and exposes two endpoints: GET /healthz (liveness) and POST /shard,
// which decodes a ShardRequest frame, refuses it unless wire version,
// artifact schema version and dataset fingerprint all match the worker's
// own (409), computes the shard through core.EncodeShard, and streams the
// ShardResponse frame back. Workers are stateless by default; CacheDir
// opts into persisting computed shards locally across requests.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// maxRequestBytes bounds /shard request bodies; frames are fixed-size,
// so anything larger is garbage.
const maxRequestBytes = 4096

// Server serves shard computations for one benchmark registry.
type Server struct {
	// Reg is the worker's benchmark registry. Its dataset fingerprint
	// must match the coordinator's or requests are refused.
	Reg *bench.Registry
	// Workers is the per-request compute parallelism (0 = GOMAXPROCS).
	// It never influences shard bytes.
	Workers int
	// CacheDir, when set, persists computed shards across requests.
	CacheDir string
	// Metrics receives rpc.served / rpc.refused counters and per-request
	// spans. Nil disables instrumentation.
	Metrics *obs.Metrics
	// Logf receives request-level logging. Nil disables it.
	Logf func(string, ...any)
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Handler returns the HTTP handler serving /healthz and /shard.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/shard", s.handleShard)
	return mux
}

// handleShard serves one shard computation.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	s.Metrics.Counter("rpc.inflight").Add(1)
	defer s.Metrics.Counter("rpc.inflight").Add(-1)
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req ShardRequest
	if err := req.UnmarshalBinary(body); err != nil {
		s.refuse(w, http.StatusBadRequest, err)
		return
	}
	if req.ArtifactVersion != core.ShardArtifactVersion() {
		s.refuse(w, http.StatusConflict, fmt.Errorf(
			"shardnet: artifact version %#x, worker has %#x", req.ArtifactVersion, core.ShardArtifactVersion()))
		return
	}
	cfg := req.Config(s.Workers, s.CacheDir)
	localHash, err := core.DatasetHash(s.Reg, cfg)
	if err != nil {
		s.refuse(w, http.StatusBadRequest, err)
		return
	}
	if req.DatasetHash != localHash {
		s.refuse(w, http.StatusConflict, fmt.Errorf(
			"shardnet: dataset hash %#x, worker has %#x (registry or parameters diverge)", req.DatasetHash, localHash))
		return
	}
	span := s.Metrics.StartSpan("rpc.serve_shard").SetRows(req.Count).SetWorkers(s.Workers)
	payload, info, err := core.EncodeShard(s.Reg, cfg, req.Index, req.Count, s.Logf)
	if err != nil {
		span.End()
		s.refuse(w, http.StatusInternalServerError, err)
		return
	}
	resp := ShardResponse{
		ArtifactVersion: core.ShardArtifactVersion(),
		Index:           req.Index,
		Count:           req.Count,
		DatasetHash:     localHash,
		Payload:         payload,
	}
	frame, err := resp.MarshalBinary()
	if err != nil {
		span.End()
		s.refuse(w, http.StatusInternalServerError, err)
		return
	}
	span.SetBytes(int64(len(frame))).End()
	s.Metrics.Counter("rpc.served").Add(1)
	s.logf("shardnet: served shard %d/%d (%d unique intervals, %d bytes)",
		req.Index, req.Count, info.UniqueIntervals, len(frame))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(frame)))
	w.Write(frame)
}

// refuse reports an error response and counts it.
func (s *Server) refuse(w http.ResponseWriter, code int, err error) {
	s.Metrics.Counter("rpc.refused").Add(1)
	s.logf("shardnet: refused request (%d): %v", code, err)
	http.Error(w, err.Error(), code)
}

// Serve binds addr (host:port, port 0 for ephemeral), reports the bound
// address through ready (which may be nil), and serves until ctx is
// cancelled or the listener fails (obs.ListenAndDrain). On cancellation
// the listener closes immediately, but requests already being served — a
// shard computation mid-stream — drain to completion before Serve
// returns: a worker asked to stop finishes the frame it is streaming
// rather than abandon a coordinator mid-response. A clean context-driven
// shutdown returns nil; a listener failure returns its error.
func (s *Server) Serve(ctx context.Context, addr string, ready func(net.Addr)) error {
	err := obs.ListenAndDrain(ctx, addr, s.Handler(), ready)
	if ctx.Err() != nil {
		s.logf("shardnet: shut down after draining in-flight requests")
	}
	return err
}
