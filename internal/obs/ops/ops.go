// Package ops is ConvMeter's live operational HTTP surface: one
// listener serving the *running* telemetry — not the export-at-exit
// files — so an operator (or CI smoke test) can watch a workload while
// it executes:
//
//	GET /metrics       live Prometheus text from the running registry
//	GET /healthz       liveness (200 once the listener is up)
//	GET /trace         Chrome trace-event JSON of the spans finished so far
//	GET /drift         the driftwatch monitor's prediction-quality state
//	GET /critpath      the critical-path tracker's per-step attributions
//	GET /dag           the experiment DAG's audit trail: per-node state,
//	                   manifest hash, attempt count, blame
//	GET /debug/pprof/  the standard profiling endpoints (obs.PprofHandler)
//
// The server instruments itself through the same registry it serves:
// convmeter_ops_requests_total{path}, convmeter_ops_request_seconds{path}
// and convmeter_ops_inflight_requests appear in /metrics alongside the
// workload's own series. Start listens before returning and reports the
// actual bound address, so ":0" is race-free in tests; Close drains
// in-flight requests (graceful shutdown with a hard-close fallback).
// All of Config's handles may be nil — a nil Obs serves empty-but-valid
// payloads and a nil Drift serves an empty stream list.
package ops

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"convmeter/internal/dagrun"
	"convmeter/internal/driftwatch"
	"convmeter/internal/obs"
	"convmeter/internal/obs/critpath"
)

// contentTypePrometheus is the Prometheus text exposition content type
// matching the 0.0.4 format obs.WritePrometheus emits.
const contentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// Config parameterises an ops server.
type Config struct {
	// Addr is the listen address, e.g. "localhost:9090" or ":0".
	Addr string
	// Obs supplies the live registry (/metrics) and tracer (/trace), and
	// receives the server's own request instrumentation. May be nil.
	Obs *obs.Obs
	// Drift supplies /drift. May be nil.
	Drift *driftwatch.Monitor
	// Crit supplies /critpath. May be nil (empty, schema-stamped report).
	Crit *critpath.Tracker
	// Dag supplies /dag — the experiment executor's live audit trail.
	// May be nil (empty, schema-stamped report).
	Dag *dagrun.Runner
}

// Server is a running ops server.
type Server struct {
	srv   *http.Server
	bound string
}

// Start binds cfg.Addr and serves the ops endpoints in the background.
// It listens before returning, so an address conflict fails here, not
// in a goroutine.
func Start(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		return nil, errors.New("ops: empty listen address")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen %s: %w", cfg.Addr, err)
	}
	srv := &http.Server{Handler: Handler(cfg), ReadHeaderTimeout: 5 * time.Second}
	go serve(srv, ln)
	return &Server{srv: srv, bound: ln.Addr().String()}, nil
}

// serve runs until Close; Serve always returns a non-nil error
// (http.ErrServerClosed after a clean stop) and there is no one to
// report an unclean one to — the workload must not die with its
// diagnostics.
func serve(srv *http.Server, ln net.Listener) {
	_ = srv.Serve(ln)
}

// Addr returns the actual bound address ("" on nil) — the port the
// kernel chose when Config.Addr was ":0".
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.bound
}

// Close shuts the server down gracefully, draining in-flight scrapes
// for up to five seconds before hard-closing. Safe on nil.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		// Drain deadline exceeded — usually a client-held keep-alive
		// connection (Shutdown won't reap a conn that never sent a request
		// until it is ~5s old), not a stuck handler. Scrapers and pollers
		// are entitled to keep-alives, and the caller asked for the server
		// to be down: hard-close the stragglers and report an error only
		// if that fails.
		return s.srv.Close()
	}
	return nil
}

// Handler builds the ops mux with per-path instrumentation. Exposed so
// tests (and embedders with their own listener) can serve it directly.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	inflight := cfg.Obs.Gauge("convmeter_ops_inflight_requests", "ops requests currently being served")
	handle := func(path string, h http.HandlerFunc) {
		// Handles are created here, once per route — never per request.
		reqs := cfg.Obs.Counter(obs.Label("convmeter_ops_requests_total", "path", path), "ops requests served")
		durH := cfg.Obs.Histogram(obs.Label("convmeter_ops_request_seconds", "path", path), "ops request latency", obs.DefaultDurationBuckets())
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			inflight.Add(1)
			t0 := time.Now()
			// Deferred, not sequential: a panicking handler (including
			// http.ErrAbortHandler, which net/http re-raises per request)
			// must still decrement the gauge and record the request, or
			// inflight drifts upward until the server looks saturated.
			defer func() {
				durH.Observe(time.Since(t0).Seconds())
				inflight.Add(-1)
				reqs.Inc()
			}()
			h(w, r)
		})
	}

	handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentTypePrometheus)
		if cfg.Obs == nil {
			return // empty exposition is valid
		}
		// Write errors here mean the client hung up mid-scrape; the
		// truncated body is the only signal HTTP still allows.
		_ = cfg.Obs.Reg.WritePrometheus(w)
	})
	handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	handle("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		if cfg.Obs == nil {
			_, _ = io.WriteString(w, "{\"traceEvents\":[]}\n")
			return
		}
		_ = cfg.Obs.Trc.WriteChromeTrace(w)
	})
	handle("/drift", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = cfg.Drift.WriteJSON(w)
	})
	handle("/critpath", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = cfg.Crit.WriteJSON(w)
	})
	handle("/dag", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = cfg.Dag.WriteJSON(w)
	})
	// The pprof mux carries its own sub-routing; instrument it as one
	// logical path.
	pprofReqs := cfg.Obs.Counter(obs.Label("convmeter_ops_requests_total", "path", "/debug/pprof/"), "ops requests served")
	pprofH := obs.PprofHandler()
	mux.Handle("/debug/pprof/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		defer func() {
			inflight.Add(-1)
			pprofReqs.Inc()
		}()
		pprofH.ServeHTTP(w, r)
	}))
	handle("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "convmeter ops server\n\n"+
			"GET /metrics       live Prometheus text\n"+
			"GET /healthz       liveness\n"+
			"GET /trace         Chrome trace-event JSON\n"+
			"GET /drift         prediction-drift monitor state\n"+
			"GET /critpath      per-step critical-path attribution\n"+
			"GET /dag           experiment DAG audit trail\n"+
			"GET /debug/pprof/  profiling\n")
	})
	return mux
}
