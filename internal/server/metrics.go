package server

import "rtmdm/internal/metrics"

// Metrics holds the server's instrument handles. All fields are nil-safe
// (a nil registry yields nil instruments whose methods no-op), so a
// server built without a registry pays only a nil check per event.
type Metrics struct {
	requests   *metrics.Counter
	inflight   *metrics.Gauge
	queueDepth *metrics.Gauge
	rejected   *metrics.Counter
	timeouts   *metrics.Counter
	panics     *metrics.Counter
	latency    *metrics.Histogram

	cacheHits      *metrics.Counter
	cacheMisses    *metrics.Counter
	cacheCoalesced *metrics.Counter
	cacheEvictions *metrics.Counter

	admitCommitted *metrics.Counter
	admitRejected  *metrics.Counter
	admitBatches   *metrics.Counter
	admitWarm      *metrics.Counter
	admitReused    *metrics.Counter
}

// latencyBounds buckets request latency from 100µs to 10s (values in
// wall nanoseconds, exported under the _ns suffix convention).
var latencyBounds = []int64{
	100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000,
}

// RegisterMetrics registers the server metric family on r and returns
// the handles. A nil registry yields all-nil handles, whose update
// methods no-op. Every name below must appear in the
// docs/OBSERVABILITY.md catalogue (enforced by the metricname analyzer
// and docsync_test.go).
func RegisterMetrics(r *metrics.Registry) *Metrics {
	if r == nil {
		return &Metrics{}
	}
	return &Metrics{
		requests:   r.Counter("server.requests_total", "requests", "HTTP requests received across all routes"),
		inflight:   r.Gauge("server.requests_inflight", "requests", "HTTP requests currently being served"),
		queueDepth: r.Gauge("server.queue_depth", "requests", "compute requests admitted to the worker pool (running + queued)"),
		rejected:   r.Counter("server.rejected_busy", "requests", "compute requests refused with 429 because the pool queue was full"),
		timeouts:   r.Counter("server.request_timeouts", "requests", "compute requests aborted by the per-request deadline"),
		panics:     r.Counter("server.panics_recovered", "panics", "handler panics converted to 500 responses"),
		latency:    r.Histogram("server.request_latency_ns", "ns", "wall latency per HTTP request", latencyBounds),

		cacheHits:      r.Counter("server.cache_hits", "requests", "compute requests served from the result cache"),
		cacheMisses:    r.Counter("server.cache_misses", "requests", "compute requests that ran as singleflight leaders"),
		cacheCoalesced: r.Counter("server.cache_coalesced", "requests", "compute requests coalesced onto an in-flight leader"),
		cacheEvictions: r.Counter("server.cache_evictions", "entries", "result-cache entries evicted by LRU pressure"),

		admitCommitted: r.Counter("server.admit_committed", "tasks", "admission requests that committed a task to a node"),
		admitRejected:  r.Counter("server.admit_rejected", "tasks", "admission requests rejected by the schedulability test"),
		admitBatches:   r.Counter("server.admit_batches", "batches", "admission batches drained (each processes its requests in request_id order)"),
		admitWarm:      r.Counter("server.admit_warm", "requests", "admission evaluations that warm-started at least one RTA fixpoint from the node's committed bounds"),
		admitReused:    r.Counter("server.admit_tasks_reused", "tasks", "candidate tasks an admission evaluation served from its node's term cache instead of building"),
	}
}
