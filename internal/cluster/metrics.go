package cluster

import (
	"sync/atomic"

	"rtmdm/internal/metrics"
)

// cInstruments holds the cluster.* package-level counters (snapshot
// lifecycle); the zero struct means disabled — metric methods are
// nil-safe.
type cInstruments struct {
	snapshotSaves    *metrics.Counter
	snapshotRestores *metrics.Counter
	snapshotRejected *metrics.Counter
	snapshotNodes    *metrics.Counter
	handoffExports   *metrics.Counter
	handoffImports   *metrics.Counter
	handoffReleases  *metrics.Counter
	handoffConflicts *metrics.Counter
}

// cinstr is swapped atomically so Instrument may race with snapshot
// encodes/decodes on live shards without a lock on the path.
var cinstr atomic.Pointer[cInstruments]

func init() { cinstr.Store(&cInstruments{}) }

// Instrument wires the cluster.* snapshot counters to the registry;
// Instrument(nil) disables them again. See docs/OBSERVABILITY.md.
func Instrument(r *metrics.Registry) {
	if r == nil {
		cinstr.Store(&cInstruments{})
		return
	}
	cinstr.Store(&cInstruments{
		snapshotSaves:    r.Counter("cluster.snapshot_saves", "snapshots", "admission snapshots encoded (shard drain or /v1/snapshot export)"),
		snapshotRestores: r.Counter("cluster.snapshot_restores", "snapshots", "admission snapshots decoded and fully verified"),
		snapshotRejected: r.Counter("cluster.snapshot_rejected", "snapshots", "snapshot decodes rejected (corrupt, truncated, version or hash mismatch)"),
		snapshotNodes:    r.Counter("cluster.snapshot_nodes", "nodes", "node records written across encoded snapshots"),
		handoffExports:   r.Counter("cluster.handoff_exports", "nodes", "single-node state exports served for live resharding (GET /v1/export)"),
		handoffImports:   r.Counter("cluster.handoff_imports", "nodes", "single-node state imports accepted during live resharding (POST /v1/import)"),
		handoffReleases:  r.Counter("cluster.handoff_releases", "nodes", "hash-guarded state releases processed after a verified handoff"),
		handoffConflicts: r.Counter("cluster.handoff_conflicts", "requests", "handoff imports or releases refused with 409 (hash mismatch or busy decision lane)"),
	})
}

// RecordHandoffExport counts one served state export. The Record*
// helpers let internal/server bump the cluster.* handoff counters
// without reaching into this package's instrument plumbing; all are
// nil-safe no-ops when Instrument has not been wired.
func RecordHandoffExport() { cinstr.Load().handoffExports.Inc() }

// RecordHandoffImport counts one accepted state import.
func RecordHandoffImport() { cinstr.Load().handoffImports.Inc() }

// RecordHandoffRelease counts one processed state release.
func RecordHandoffRelease() { cinstr.Load().handoffReleases.Inc() }

// RecordHandoffConflict counts one refused import/release (409).
func RecordHandoffConflict() { cinstr.Load().handoffConflicts.Inc() }

// GatewayMetrics holds the gateway.* instrument handles. All fields are
// nil-safe, so a gateway built without a registry pays only nil checks.
type GatewayMetrics struct {
	requests     *metrics.Counter
	inflight     *metrics.Gauge
	latency      *metrics.Histogram
	retries      *metrics.Counter
	shardErrs    *metrics.Counter
	degraded     *metrics.Gauge
	trips        *metrics.Counter
	quotaRej     *metrics.Counter
	forwarded    *metrics.Counter
	shardCount   *metrics.Gauge
	epoch        *metrics.Gauge
	reshards     *metrics.Counter
	reshardFails *metrics.Counter
	reshardMoved *metrics.Counter
}

// gatewayLatencyBounds buckets proxied request latency from 100µs to 10s.
var gatewayLatencyBounds = []int64{
	100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000,
}

// RegisterMetrics registers the gateway metric family on r and returns
// the handles; a nil registry yields all-nil (no-op) handles. Every name
// must appear in the docs/OBSERVABILITY.md catalogue (enforced by the
// metricname analyzer and docsync_test.go).
func RegisterMetrics(r *metrics.Registry) *GatewayMetrics {
	if r == nil {
		return &GatewayMetrics{}
	}
	return &GatewayMetrics{
		requests:   r.Counter("gateway.requests_total", "requests", "HTTP requests received by the gateway across all routes"),
		inflight:   r.Gauge("gateway.requests_inflight", "requests", "gateway requests currently being served"),
		latency:    r.Histogram("gateway.request_latency_ns", "ns", "wall latency per gateway request, shard round trips included", gatewayLatencyBounds),
		retries:    r.Counter("gateway.proxy_retries", "attempts", "shard request attempts retried after a transport error or 5xx"),
		shardErrs:  r.Counter("gateway.shard_errors", "requests", "proxied requests that exhausted their retry budget against a shard"),
		degraded:   r.Gauge("gateway.shards_degraded", "shards", "shards currently marked degraded by the failure breaker"),
		trips:      r.Counter("gateway.breaker_trips", "trips", "times a shard crossed the consecutive-failure threshold into degraded"),
		quotaRej:   r.Counter("gateway.quota_rejected", "requests", "requests refused with 429 because the tenant was at its weighted in-flight cap"),
		forwarded:  r.Counter("gateway.admit_forwarded", "requests", "admission requests forwarded to their node's owning shard"),
		shardCount: r.Gauge("gateway.shards", "shards", "shards in the routing ring"),
		epoch:      r.Gauge("gateway.reshard_epoch", "epoch", "current ring epoch (bumps once per completed or aborted reshard)"),
		reshards:   r.Counter("gateway.reshard_total", "migrations", "live reshard migrations started via POST /v1/reshard"),
		reshardFails: r.Counter("gateway.reshard_failed", "migrations",
			"reshard migrations aborted after exhausting handoff retries (routing stays on the old ring plus per-node overrides)"),
		reshardMoved: r.Counter("gateway.reshard_moved_nodes", "nodes", "nodes whose state was exported, imported, verified, and released across shards"),
	}
}
