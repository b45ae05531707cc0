// Package server exposes the RT-MDM engine as a long-running HTTP/JSON
// service: offline schedulability analysis (/v1/analyze), bounded
// deterministic simulation (/v1/simulate), and stateful incremental
// admission control (/v1/admit), plus /healthz and /v1/metrics.
//
// The service is stdlib-only and built for sustained load: a bounded
// worker pool sheds excess compute requests with 429 instead of queueing
// unboundedly, per-request deadlines abort runaway analyses through
// context cancellation, identical requests coalesce onto one computation
// (singleflight) whose marshaled result is LRU-cached — sound because
// the engine is deterministic — and shutdown drains in-flight work
// before the process exits.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"rtmdm/internal/cluster"
	"rtmdm/internal/exec"
	"rtmdm/internal/metrics"
	"rtmdm/internal/scenario"
)

// Config sizes the service. The zero value is usable: every field has a
// production default applied by New.
type Config struct {
	// Workers caps concurrent heavy computations (default GOMAXPROCS).
	Workers int
	// QueueDepth caps requests waiting for a worker beyond the running
	// ones; past it the server answers 429 (default 64; negative
	// disables queueing so load sheds as soon as all workers are busy).
	QueueDepth int
	// RequestTimeout bounds each compute request, enforced through
	// context cancellation in the analysis and simulation loops
	// (default 15s).
	RequestTimeout time.Duration
	// CacheEntries caps the result LRU (default 256; 0 uses the
	// default, negative disables caching).
	CacheEntries int
	// CacheMaxEntryBytes skips caching oversized responses, e.g.
	// simulations with embedded traces (default 4 MiB).
	CacheMaxEntryBytes int
	// AdmitWindow is the admission batching window: concurrent admit
	// requests arriving within it are decided as one batch in
	// request_id order (default 2ms; negative disables batching).
	AdmitWindow time.Duration
	// MaxHorizonMs rejects simulation/admission scenarios whose horizon
	// exceeds the bound, keeping requests bounded (default 60000).
	MaxHorizonMs float64
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Registry receives the server.* metric family; nil disables
	// instrumentation.
	Registry *metrics.Registry
	// ShardLabel names this instance in exported admission snapshots
	// (GET /v1/snapshot and shutdown dumps); empty is fine for a
	// single-process deployment.
	ShardLabel string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheMaxEntryBytes <= 0 {
		c.CacheMaxEntryBytes = 4 << 20
	}
	if c.AdmitWindow == 0 {
		c.AdmitWindow = 2 * time.Millisecond
	}
	if c.MaxHorizonMs <= 0 {
		c.MaxHorizonMs = 60000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Server is the HTTP service. Create with New, mount as an http.Handler,
// and call Shutdown before exit to drain in-flight work.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	met    *Metrics
	cache  *resultCache
	pool   *workPool
	adm    *admitter
	base   context.Context
	cancel context.CancelFunc
	// ready gates GET /readyz: orchestrators route traffic only while it
	// is true. Liveness (/healthz) stays 200 through the not-ready phases.
	ready atomic.Bool
}

// Routes is the server's route table, shared by New and the
// docs/SERVER.md doc-sync test so the documented endpoint list cannot
// drift from the mounted one.
func Routes() []string {
	return []string{
		"GET /healthz",
		"GET /readyz",
		"GET /v1/export",
		"GET /v1/metrics",
		"GET /v1/snapshot",
		"POST /v1/admit",
		"POST /v1/analyze",
		"POST /v1/import",
		"POST /v1/simulate",
	}
}

// New builds a ready-to-serve Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// Audited lifecycle root: the server's base context outlives any one
	// request; Shutdown cancels it to release in-flight waiters.
	base, cancel := context.WithCancel(context.Background()) //lint:allow ctxflow -- server-lifetime root; cancelled by Shutdown, not tied to any request
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		met:    RegisterMetrics(cfg.Registry),
		pool:   newWorkPool(cfg.Workers, cfg.QueueDepth),
		base:   base,
		cancel: cancel,
	}
	s.cache = newResultCache(cfg.CacheEntries, cfg.CacheMaxEntryBytes, s.met)
	// nil evalFunc: each node judges candidates through its own
	// incremental analyzer (warm fixpoint starts + term caches), falling
	// back to the cold path whenever warm state cannot apply.
	s.adm = newAdmitter(base, cfg.AdmitWindow, nil, s.met)

	handlers := map[string]http.HandlerFunc{
		"GET /healthz":      s.handleHealthz,
		"GET /readyz":       s.handleReadyz,
		"GET /v1/export":    s.handleExport,
		"GET /v1/metrics":   s.handleMetrics,
		"GET /v1/snapshot":  s.handleSnapshotHTTP,
		"POST /v1/admit":    s.handleAdmit,
		"POST /v1/analyze":  s.handleAnalyze,
		"POST /v1/import":   s.handleImport,
		"POST /v1/simulate": s.handleSimulate,
	}
	for _, pattern := range Routes() {
		s.handle(pattern, handlers[pattern])
	}
	s.ready.Store(true)
	return s
}

// SetReady flips the /readyz gate. cmd/rtmdm-serve clears it at the
// start of graceful shutdown — before the listener closes — so
// orchestrators and gateways stop sending new work while in-flight
// requests finish; boot-time restore happens before the listener opens,
// so a reachable server has always restored its snapshot.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains detached work (admission batches) and then cancels
// the server's base context, aborting anything still computing. Call it
// after http.Server.Shutdown has stopped new requests. Returns ctx.Err()
// if the drain outlived ctx (work is still aborted via cancellation).
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	done := make(chan struct{})
	go func() { s.adm.waitIdle(); close(done) }()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// handle mounts h under the shared middleware: request accounting,
// latency observation, and panic-to-500 recovery. A recovered panic is
// wrapped in exec.InternalError so the response carries the same
// structured shape the executor's own boundary produces.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.requests.Inc()
		s.met.inflight.Add(1)
		defer func() {
			s.met.inflight.Add(-1)
			s.met.latency.Observe(time.Since(start).Nanoseconds())
			if v := recover(); v != nil {
				s.met.panics.Inc()
				ie := &exec.InternalError{Panic: v, Stack: string(debug.Stack())}
				cluster.WriteError(w, http.StatusInternalServerError, ie.Error())
			}
		}()
		h(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	cluster.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe, distinct from liveness: 200 only
// while the server should receive new traffic. A draining server is
// alive (healthz 200) but not ready (readyz 503).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		cluster.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	cluster.WriteJSON(w, http.StatusOK, map[string]any{"ready": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Registry == nil {
		cluster.WriteError(w, http.StatusNotFound, "metrics registry not enabled")
		return
	}
	s.met.queueDepth.Set(int64(s.pool.depth()))
	w.Header().Set("Content-Type", "application/json")
	if err := s.cfg.Registry.Snapshot().WriteJSON(w); err != nil {
		// Headers are gone; nothing recoverable remains.
		return
	}
}

// handleSnapshotHTTP serves the sealed admission snapshot — the state a
// replacement shard restores from (docs/CLUSTER.md). Exported from a
// live server it reflects the decisions committed so far; a quiescent
// export happens on shutdown via the -snapshot flag.
func (s *Server) handleSnapshotHTTP(w http.ResponseWriter, _ *http.Request) {
	snap, err := s.ExportState(s.cfg.ShardLabel)
	if err != nil {
		cluster.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	snap.Encode(w)
}

// compute runs the cached/coalesced/pooled computation pipeline shared
// by /v1/analyze and /v1/simulate: cache lookup by key, singleflight on
// miss, worker-pool admission for the leader, and a detached deadline so
// one client's disconnect cannot poison a result other requests wait on.
func (s *Server) compute(w http.ResponseWriter, r *http.Request, key string, fn func(ctx context.Context) ([]byte, error)) {
	data, source, err := s.cache.do(r.Context(), key, func() ([]byte, error) {
		release, err := s.pool.acquire(r.Context())
		if err != nil {
			return nil, err
		}
		defer release()
		// The leader computes under the server's lifetime, not the
		// client's: coalesced followers depend on this result.
		ctx, cancel := context.WithTimeout(s.base, s.cfg.RequestTimeout)
		defer cancel()
		return fn(ctx)
	})
	w.Header().Set("X-Rtmdm-Cache", source)
	switch {
	case err == errBusy:
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		cluster.WriteError(w, http.StatusTooManyRequests, "worker pool saturated; retry shortly")
	case err == context.DeadlineExceeded:
		s.met.timeouts.Inc()
		cluster.WriteError(w, http.StatusGatewayTimeout, "request deadline exceeded")
	case err == context.Canceled:
		// The client went away (or the server is shutting down); a
		// status for the log is all that is left to send.
		cluster.WriteError(w, http.StatusServiceUnavailable, "request canceled")
	case err != nil:
		cluster.WriteError(w, http.StatusUnprocessableEntity, err.Error())
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	}
}

// parseScenario decodes, validates, canonicalizes, and hashes a raw
// scenario payload, enforcing the horizon bound.
func (s *Server) parseScenario(raw json.RawMessage) (*scenario.Scenario, string, error) {
	if len(raw) == 0 {
		return nil, "", fmt.Errorf("missing scenario")
	}
	sc, err := scenario.Parse(raw)
	if err != nil {
		return nil, "", err
	}
	canon := sc.Canonicalize()
	if canon.HorizonMs > s.cfg.MaxHorizonMs {
		return nil, "", fmt.Errorf("horizon %v ms exceeds the server bound %v ms",
			canon.HorizonMs, s.cfg.MaxHorizonMs)
	}
	hash, err := scenario.CanonicalHash(canon)
	if err != nil {
		return nil, "", err
	}
	return canon, hash, nil
}

// decodeBody decodes a JSON request body strictly (unknown fields are
// errors) with the configured size cap.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// retryAfterSeconds is exported-for-tests glue ensuring the header stays
// a parseable integer.
func retryAfterSeconds(h http.Header) (int, error) {
	return strconv.Atoi(h.Get("Retry-After"))
}
