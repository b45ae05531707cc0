// Command rtmdm-gateway fronts a sharded rtmdm-serve cluster: it routes
// /v1/admit by consistent hash of the node name and /v1/analyze and
// /v1/simulate by consistent hash of the canonical scenario, with
// bounded fan-out, retry/backoff against degraded shards, and
// per-tenant quotas with weighted fairness. Admissions are batched and
// ordered by the shards' own admitters, not here.
//
// Usage:
//
//	rtmdm-gateway -shards http://127.0.0.1:18201,http://127.0.0.1:18202 \
//	    [-addr :8090] [-replicas 64] [-shard-timeout 15s] [-retries 2]
//	    [-retry-backoff 50ms] [-fail-threshold 3] [-probe-interval 1s]
//	    [-max-inflight 16]
//	    [-tenants gold=3,free=1] [-tenant-budget 64]
//	    [-request-budget 45s]
//
// Endpoints:
//
//	GET  /healthz      gateway + per-shard health (liveness)
//	GET  /readyz       readiness: 503 while a reshard migration is in flight
//	GET  /v1/metrics   gateway.* / cluster.* metrics snapshot
//	POST /v1/admit     routed by node to its owning shard
//	POST /v1/analyze   routed by canonical scenario hash (cache affinity)
//	POST /v1/reshard   live migration to a new shard list (epoch bump + state handoff)
//	POST /v1/simulate  routed by canonical scenario hash (cache affinity)
//
// See docs/CLUSTER.md for ring semantics, the per-shard determinism
// contract, and the failure-mode table.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rtmdm/internal/cluster"
	"rtmdm/internal/metrics"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		shards        = flag.String("shards", "", "comma-separated rtmdm-serve base URLs (required)")
		replicas      = flag.Int("replicas", 64, "virtual ring points per shard")
		shardTimeout  = flag.Duration("shard-timeout", 15*time.Second, "per-attempt shard deadline")
		retries       = flag.Int("retries", 2, "extra attempts after a failed shard round trip")
		retryBackoff  = flag.Duration("retry-backoff", 50*time.Millisecond, "first retry backoff (doubles per attempt)")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive failures before a shard is degraded")
		probeInterval = flag.Duration("probe-interval", time.Second, "rest before a degraded shard is probed")
		maxInflight   = flag.Int("max-inflight", 16, "concurrent forwards per shard")
		tenants       = flag.String("tenants", "", "tenant weights name=w,... (empty disables quotas)")
		tenantBudget  = flag.Int("tenant-budget", 64, "global in-flight budget split by tenant weights")
		requestBudget = flag.Duration("request-budget", 45*time.Second, "end-to-end deadline per proxied request (negative disables)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "shutdown drain deadline")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "rtmdm-gateway:", err)
		os.Exit(1)
	}
	if strings.TrimSpace(*shards) == "" {
		fail(fmt.Errorf("-shards is required (comma-separated rtmdm-serve URLs)"))
	}
	weights, err := cluster.ParseTenantWeights(*tenants)
	if err != nil {
		fail(err)
	}

	reg := metrics.NewRegistry()
	cluster.Instrument(reg)
	gw, err := cluster.NewGateway(cluster.Config{
		Shards:        strings.Split(*shards, ","),
		Replicas:      *replicas,
		ShardTimeout:  *shardTimeout,
		Retries:       *retries,
		RetryBackoff:  *retryBackoff,
		FailThreshold: *failThreshold,
		ProbeInterval: *probeInterval,
		MaxInflight:   *maxInflight,
		TenantWeights: weights,
		TenantBudget:  *tenantBudget,
		RequestBudget: *requestBudget,
		Registry:      reg,
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: gw, ReadHeaderTimeout: 10 * time.Second}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Printf("rtmdm-gateway: listening on %s, %d shards\n", ln.Addr(), len(strings.Split(*shards, ",")))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("rtmdm-gateway: %s, draining\n", sig)
	case err := <-errCh:
		fail(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "rtmdm-gateway: http shutdown:", err)
	}
	if err := gw.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "rtmdm-gateway: drain:", err)
		os.Exit(1)
	}
	fmt.Println("rtmdm-gateway: drained")
}
