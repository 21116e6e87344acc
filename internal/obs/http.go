package obs

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// MetricsHandler returns an http.Handler that serves the collector's
// live Snapshot as indented JSON — the /metrics endpoint of both the
// standalone obs.Serve listener and the characterization service's
// front-door mux. Nil receiver serves 503 (observability disabled).
func (m *Metrics) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if m == nil {
			http.Error(w, "observability disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.Snapshot())
	})
}

// Serve exposes the collector on an HTTP endpoint for long runs:
//
//	/metrics      the live run report (Snapshot) as JSON
//	/debug/vars   the process's expvar variables
//	/debug/pprof  the standard pprof index (profile, heap, trace, ...)
//
// It listens on addr (e.g. "localhost:6060"; ":0" picks a free port),
// serves in a background goroutine, and returns the bound address plus a
// shutdown func that drains in-flight requests (bounded by the passed
// context) instead of killing them mid-response; calling it more than
// once is safe. Nil receiver is an error — the caller asked for an
// endpoint.
func (m *Metrics) Serve(addr string) (string, func(context.Context) error, error) {
	if m == nil {
		return "", nil, fmt.Errorf("obs: no metrics collector to serve (observability disabled)")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: metrics endpoint: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", m.MetricsHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once sync.Once
	var shutErr error
	shutdown := func(ctx context.Context) error {
		once.Do(func() {
			shutErr = srv.Shutdown(ctx)
			if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) && shutErr == nil {
				shutErr = err
			}
		})
		return shutErr
	}
	return ln.Addr().String(), shutdown, nil
}

// drainTimeout bounds how long ListenAndDrain waits for in-flight
// requests once its context is cancelled: long enough for a response
// mid-stream (a shard frame, a result download) to finish.
const drainTimeout = 30 * time.Second

// ListenAndDrain binds addr (host:port, port 0 for ephemeral), reports
// the bound address through ready (which may be nil), and serves h until
// ctx is cancelled or the listener fails — the listen-and-drain loop of
// the shard server and the characterization service. On cancellation
// the listener closes at once, requests already being served drain to
// completion (bounded by drainTimeout), and a clean drain returns nil; a
// listener failure returns its error.
func ListenAndDrain(ctx context.Context, addr string, h http.Handler, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := srv.Shutdown(dctx)
		if serr := <-done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
