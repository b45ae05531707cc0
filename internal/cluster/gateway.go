package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"rtmdm/internal/metrics"
	"rtmdm/internal/scenario"
)

// TenantHeader carries the tenant identity on every gateway request;
// absent means the anonymous default tenant (weight 1 share).
const TenantHeader = "X-Rtmdm-Tenant"

// ShardHeader reports, on every proxied response, which shard served the
// request — the observable half of the routing contract. The value is
// the shard's index in the serving layout, or -1 when the request rode a
// post-abort per-node override outside the active ring.
const ShardHeader = "X-Rtmdm-Shard"

// EpochHeader reports the ring epoch the request was routed under, so
// clients and smoke scripts can observe migrations without scraping
// metrics.
const EpochHeader = "X-Rtmdm-Epoch"

// Config sizes the gateway. The zero value plus a shard list is usable:
// every other field has a production default applied by NewGateway.
type Config struct {
	// Shards lists the rtmdm-serve base URLs (required, order defines
	// shard indices 0..N-1 on the ring).
	Shards []string
	// Replicas is the virtual-point count per shard on the ring
	// (default 64).
	Replicas int
	// ShardTimeout bounds each proxied attempt (default 15s).
	ShardTimeout time.Duration
	// Retries is the extra attempts after a failed shard round trip
	// (transport error, 429, 502, 503, 504); default 2.
	Retries int
	// RetryBackoff is the first retry's backoff, doubling per attempt
	// (default 50ms).
	RetryBackoff time.Duration
	// FailThreshold is the consecutive-failure count that marks a shard
	// degraded (default 3); degraded shards fail fast until a probe
	// succeeds.
	FailThreshold int
	// ProbeInterval is how long a degraded shard rests before one
	// half-open probe request is let through (default 1s).
	ProbeInterval time.Duration
	// MaxInflight bounds concurrent forwards per shard (default 16).
	MaxInflight int
	// TenantWeights enables per-tenant quotas with weighted fairness;
	// nil disables quota enforcement.
	TenantWeights map[string]int
	// TenantBudget is the global in-flight budget the weights divide
	// (default 64).
	TenantBudget int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RequestBudget is the end-to-end deadline per proxied request,
	// covering migration waits and every retry attempt
	// (default 45s; negative disables).
	RequestBudget time.Duration
	// Registry receives the gateway.* metric family; nil disables
	// instrumentation.
	Registry *metrics.Registry
	// Transport overrides the shard HTTP transport (tests, chaos
	// injection); nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 15 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 16
	}
	if c.TenantBudget <= 0 {
		c.TenantBudget = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestBudget == 0 {
		c.RequestBudget = 45 * time.Second
	}
	if c.RequestBudget < 0 {
		c.RequestBudget = 0
	}
	return c
}

// Routes is the gateway's route table, shared by NewGateway and the
// docs/CLUSTER.md doc-sync test so the documented endpoint list cannot
// drift from the mounted one.
func Routes() []string {
	return []string{
		"GET /healthz",
		"GET /readyz",
		"GET /v1/metrics",
		"POST /v1/admit",
		"POST /v1/analyze",
		"POST /v1/reshard",
		"POST /v1/simulate",
	}
}

// layout is one immutable routing epoch: a ring over an ordered shard
// list, plus per-node overrides for state stranded off-ring by an
// aborted migration. The gateway swaps layouts atomically under routeMu;
// readers never see a half-built one.
type layout struct {
	epoch  uint64
	ring   *Ring
	urls   []string
	shards []*shard
	// overrides pins specific nodes to a shard regardless of the ring —
	// the residue of an aborted migration whose already-moved nodes live
	// on their new owner until the next successful reshard.
	overrides map[string]*shard
}

// owner resolves a node's serving shard under this layout.
func (l *layout) owner(node string) *shard {
	if sh, ok := l.overrides[node]; ok {
		return sh
	}
	return l.shards[l.ring.Shard(node)]
}

func (l *layout) ownerURL(node string) string { return l.owner(node).base }

// indexOf returns the shard's position in the layout's ring, or -1 for
// override-only shards.
func (l *layout) indexOf(sh *shard) int {
	for i, s := range l.shards {
		if s == sh {
			return i
		}
	}
	return -1
}

// allShards lists the layout's ring shards plus any override-only
// shards, deduplicated — every shard that may hold authoritative state.
func (l *layout) allShards() []*shard {
	out := append([]*shard(nil), l.shards...)
	seen := map[*shard]bool{}
	for _, sh := range out {
		seen[sh] = true
	}
	names := make([]string, 0, len(l.overrides))
	for node := range l.overrides {
		names = append(names, node)
	}
	sort.Strings(names)
	for _, node := range names {
		if sh := l.overrides[node]; !seen[sh] {
			seen[sh] = true
			out = append(out, sh)
		}
	}
	return out
}

// withOverrides derives a layout with extra node→shard pins (the abort
// path). Existing overrides are kept unless re-pinned.
func (l *layout) withOverrides(epoch uint64, extra map[string]*shard) *layout {
	nl := &layout{epoch: epoch, ring: l.ring, urls: l.urls, shards: l.shards,
		overrides: make(map[string]*shard, len(l.overrides)+len(extra))}
	for node, sh := range l.overrides {
		nl.overrides[node] = sh
	}
	for node, sh := range extra {
		nl.overrides[node] = sh
	}
	return nl
}

// movingNode tracks one node's handoff; moved closes the instant its
// state is verified on the new owner, releasing parked requests early
// instead of holding them for the whole migration window.
type movingNode struct {
	moved chan struct{}
}

// migration is the window during which two layouts are live. Routing
// keeps serving nodes whose owner is identical under both; nodes whose
// owner differs are frozen until their handoff completes (or the window
// ends). done closes exactly once when the window ends, either by
// committing the to-layout or aborting back to from.
type migration struct {
	from, to *layout
	moving   map[string]*movingNode
	done     chan struct{}
	aborted  bool // written once before done closes; read after
}

// frozen reports whether a node must not be routed during this window:
// its owner changes between the layouts, so serving it on either side
// would race its state transfer. A pure function of ring math — new
// nodes created mid-window are judged correctly without bookkeeping.
func (m *migration) frozen(node string) bool {
	return m.from.ownerURL(node) != m.to.ownerURL(node)
}

// Gateway routes admission-cluster traffic to rtmdm-serve shards: /v1/admit
// by consistent hash of the node name, /v1/analyze and /v1/simulate by
// consistent hash of the canonical scenario (cache affinity). Layouts are
// epoch-versioned and live-reshardable via POST /v1/reshard. Create with
// NewGateway, mount as an http.Handler, call Shutdown before exit.
type Gateway struct {
	cfg    Config
	mux    *http.ServeMux
	met    *GatewayMetrics
	quotas *Quotas
	base   context.Context
	cancel context.CancelFunc

	// routeMu orders routing decisions against layout/migration swaps:
	// requests route (and count themselves in flight) under RLock;
	// Reshard installs and clears the migration under Lock, so after the
	// barrier no admit can be in flight toward a stale owner unseen by
	// the drain step.
	routeMu sync.RWMutex
	cur     *layout
	mig     *migration

	// reshardMu serializes migrations (one at a time; TryLock → 409).
	reshardMu sync.Mutex

	// pool reuses shard objects by base URL across layouts so breaker
	// state, in-flight bounds, and admit counts survive resharding.
	poolMu sync.Mutex
	pool   map[string]*shard

	// drainMu/idle track live admit forwards, using the cond-over-count
	// pattern (a WaitGroup forbids Add racing Wait).
	drainMu sync.Mutex
	idle    *sync.Cond
	active  int
}

// NewGateway builds a ready-to-serve Gateway from cfg.
func NewGateway(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: gateway needs at least one shard URL")
	}
	var quotas *Quotas
	var err error
	if cfg.TenantWeights != nil {
		if quotas, err = NewQuotas(cfg.TenantBudget, cfg.TenantWeights); err != nil {
			return nil, err
		}
	}
	// Audited lifecycle root: the gateway's base context outlives any one
	// request; every request handler derives from it and Shutdown cancels it.
	base, cancel := context.WithCancel(context.Background()) //lint:allow ctxflow -- gateway-lifetime root; cancelled by Shutdown, request ctxs derive from it
	g := &Gateway{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		met:    RegisterMetrics(cfg.Registry),
		quotas: quotas,
		base:   base,
		cancel: cancel,
		pool:   map[string]*shard{},
	}
	g.idle = sync.NewCond(&g.drainMu)
	lay, err := g.newLayout(1, cfg.Shards)
	if err != nil {
		cancel()
		return nil, err
	}
	g.cur = lay
	g.met.shardCount.Set(int64(len(lay.shards)))
	g.met.epoch.Set(int64(lay.epoch))

	handlers := map[string]http.HandlerFunc{
		"GET /healthz":      g.handleHealthz,
		"GET /readyz":       g.handleReadyz,
		"GET /v1/metrics":   g.handleMetrics,
		"POST /v1/admit":    g.handleAdmit,
		"POST /v1/analyze":  g.proxyByScenario("/v1/analyze"),
		"POST /v1/reshard":  g.handleReshard,
		"POST /v1/simulate": g.proxyByScenario("/v1/simulate"),
	}
	for _, pattern := range Routes() {
		g.handle(pattern, handlers[pattern])
	}
	return g, nil
}

// newLayout builds a layout over urls, reusing pooled shard objects.
func (g *Gateway) newLayout(epoch uint64, urls []string) (*layout, error) {
	cleaned := make([]string, 0, len(urls))
	seen := map[string]bool{}
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("cluster: empty shard URL in layout")
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate shard URL %q in layout", u)
		}
		seen[u] = true
		cleaned = append(cleaned, u)
	}
	ring, err := NewRing(len(cleaned), g.cfg.Replicas)
	if err != nil {
		return nil, err
	}
	lay := &layout{epoch: epoch, ring: ring, urls: cleaned}
	for _, u := range cleaned {
		lay.shards = append(lay.shards, g.shardFor(u))
	}
	return lay, nil
}

// shardFor returns the pooled shard for a base URL, creating it on first
// use. Pooling keeps breaker and admit state stable across layouts.
func (g *Gateway) shardFor(url string) *shard {
	g.poolMu.Lock()
	defer g.poolMu.Unlock()
	if sh, ok := g.pool[url]; ok {
		return sh
	}
	transport := g.cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	sh := &shard{
		gw:       g,
		base:     url,
		client:   &http.Client{Transport: transport},
		sem:      make(chan struct{}, g.cfg.MaxInflight),
		inflight: map[string]int{},
	}
	g.pool[url] = sh
	return sh
}

// currentLayout snapshots the serving layout.
func (g *Gateway) currentLayout() *layout {
	g.routeMu.RLock()
	defer g.routeMu.RUnlock()
	return g.cur
}

// Epoch reports the serving layout's epoch.
func (g *Gateway) Epoch() uint64 { return g.currentLayout().epoch }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Shutdown cancels routing and waits for in-flight admit forwards to
// settle.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.cancel()
	done := make(chan struct{})
	go func() {
		g.drainMu.Lock()
		for g.active > 0 {
			g.idle.Wait()
		}
		g.drainMu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *Gateway) addActive() {
	g.drainMu.Lock()
	g.active++
	g.drainMu.Unlock()
}

func (g *Gateway) endActive() {
	g.drainMu.Lock()
	g.active--
	if g.active == 0 {
		g.idle.Broadcast()
	}
	g.drainMu.Unlock()
}

// handle mounts h under the shared middleware: accounting, latency, and
// panic-to-500. Tenant quotas are acquired inside the proxied handlers
// (not here) so a slot's lifetime can be tied to the forward that spends
// shard capacity, not to the client connection — see handleAdmit.
func (g *Gateway) handle(pattern string, h http.HandlerFunc) {
	g.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		g.met.requests.Inc()
		g.met.inflight.Add(1)
		defer func() {
			g.met.inflight.Add(-1)
			g.met.latency.Observe(time.Since(start).Nanoseconds())
			if v := recover(); v != nil {
				writeError(w, http.StatusInternalServerError,
					fmt.Sprintf("gateway panic: %v\n%s", v, debug.Stack()))
			}
		}()
		h(w, r)
	})
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return "default"
}

// acquireQuota claims the tenant's slot or writes the 429. The returned
// release is non-nil iff ok.
func (g *Gateway) acquireQuota(w http.ResponseWriter, r *http.Request) (func(), bool) {
	if g.quotas == nil {
		return func() {}, true
	}
	tenant := tenantOf(r)
	release, ok := g.quotas.Acquire(tenant)
	if !ok {
		g.met.quotaRej.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q at its weighted in-flight cap (%d); retry shortly",
				tenant, g.quotas.Limit(tenant)))
		return nil, false
	}
	return release, true
}

// requestCtx applies the per-request budget on top of the client's own
// context.
func (g *Gateway) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if g.cfg.RequestBudget <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), g.cfg.RequestBudget)
}

// shardHealth is one shard's entry in the /healthz report.
type shardHealth struct {
	Index    int    `json:"index"`
	URL      string `json:"url"`
	Degraded bool   `json:"degraded"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	g.routeMu.RLock()
	lay, mig := g.cur, g.mig
	g.routeMu.RUnlock()
	out := struct {
		Status    string        `json:"status"`
		Epoch     uint64        `json:"epoch"`
		Migrating bool          `json:"migrating"`
		Shards    []shardHealth `json:"shards"`
		Tenants   []string      `json:"tenants,omitempty"`
	}{Status: "ok", Epoch: lay.epoch, Migrating: mig != nil, Tenants: g.quotas.Tenants()}
	degraded := 0
	for i, sh := range lay.shards {
		d := sh.isDegraded()
		if d {
			degraded++
		}
		out.Shards = append(out.Shards, shardHealth{Index: i, URL: sh.base, Degraded: d})
	}
	if degraded == len(lay.shards) {
		out.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, out)
}

// handleReadyz is the readiness gate, distinct from liveness: not ready
// while a reshard migration is in flight, so orchestrators pause new
// topology work (and external balancers drain politely) until routing
// is single-ring again.
func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	g.routeMu.RLock()
	epoch, migrating := g.cur.epoch, g.mig != nil
	g.routeMu.RUnlock()
	if migrating {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "reason": "reshard migration in flight", "epoch": epoch})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "epoch": epoch})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if g.cfg.Registry == nil {
		writeError(w, http.StatusNotFound, "metrics registry not enabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	g.cfg.Registry.Snapshot().WriteJSON(w)
}

// admitCall is one admission forward: the raw body, the routing key,
// the rendezvous the handler waits on, and the tenant quota slot the
// forward spends. The slot is released when the forward completes — not
// when the client hangs up — so a flood of cancelled requests cannot
// outrun the shard capacity the quota models.
type admitCall struct {
	body    []byte
	node    string
	res     *proxyResult
	err     error
	done    chan struct{}
	release func()
}

// errShuttingDown is the routing error placeAdmit returns once the
// gateway's base context is cancelled.
var errShuttingDown = fmt.Errorf("cluster: gateway shutting down")

// placeAdmit routes cl to its node's owning shard and starts its
// forward, honoring an in-flight migration: nodes whose owner is
// unchanged go out immediately (non-moving nodes never stall); nodes
// mid-handoff park until their state lands on the new owner or the
// client's deadline fires, so no admission is ever decided against state
// in transit. The forward is counted in flight under routeMu's read lock
// so the migration barrier can never miss it.
func (g *Gateway) placeAdmit(ctx context.Context, cl *admitCall) (*layout, *shard, error) {
	for {
		g.routeMu.RLock()
		mig := g.mig
		if mig == nil {
			lay := g.cur
			sh := lay.owner(cl.node)
			sh.admit(cl)
			g.routeMu.RUnlock()
			return lay, sh, nil
		}
		var mn *movingNode
		if !mig.frozen(cl.node) {
			lay := mig.from
			sh := lay.owner(cl.node)
			sh.admit(cl)
			g.routeMu.RUnlock()
			return lay, sh, nil
		}
		if mn = mig.moving[cl.node]; mn != nil {
			select {
			case <-mn.moved:
				// Handed off and verified: serve on the new owner without
				// waiting for the rest of the migration.
				lay := mig.to
				sh := lay.owner(cl.node)
				sh.admit(cl)
				g.routeMu.RUnlock()
				return lay, sh, nil
			default:
			}
		}
		g.routeMu.RUnlock()

		var movedCh chan struct{} // nil (blocks forever) when the node has no handoff entry
		if mn != nil {
			movedCh = mn.moved
		}
		select {
		case <-movedCh:
		case <-mig.done:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-g.base.Done():
			return nil, nil, errShuttingDown
		}
		// Re-route under the lock: the migration may have advanced,
		// finished, or aborted.
	}
}

// handleAdmit routes an admission to its node's owning shard. Only the
// node is decoded here — full validation, batching and request_id
// ordering are the shard's job; the gateway needs just the routing key.
func (g *Gateway) handleAdmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var key struct {
		Node string `json:"node"`
	}
	if err := json.Unmarshal(body, &key); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	if key.Node == "" {
		writeError(w, http.StatusBadRequest, "node must be set")
		return
	}
	release, ok := g.acquireQuota(w, r)
	if !ok {
		return
	}
	ctx, cancel := g.requestCtx(r)
	defer cancel()
	cl := &admitCall{body: body, node: key.Node, done: make(chan struct{}), release: release}
	lay, sh, err := g.placeAdmit(ctx, cl)
	if err != nil {
		release()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	select {
	case <-cl.done:
	case <-ctx.Done():
		// The client is gone (or the budget fired) but the forward is
		// already out; the quota slot stays held until the forward
		// settles — released there, not here.
		writeError(w, http.StatusServiceUnavailable, ctx.Err().Error())
		return
	case <-g.base.Done():
		writeError(w, http.StatusServiceUnavailable, "gateway shutting down")
		return
	}
	g.writeProxied(w, lay, sh, cl.res, cl.err)
}

// proxyByScenario returns a handler that forwards path to the shard
// owning the request's canonical scenario hash, giving every spelling of
// one deployment a home shard and therefore one result cache to hit.
// Bodies whose scenario cannot even be parsed still route (by raw-body
// hash) so the owning shard produces the authoritative 400.
func (g *Gateway) proxyByScenario(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		release, ok := g.acquireQuota(w, r)
		if !ok {
			return
		}
		defer release()
		key := "raw:" + string(body)
		var req struct {
			Scenario json.RawMessage `json:"scenario"`
		}
		if err := json.Unmarshal(body, &req); err == nil && len(req.Scenario) > 0 {
			if sc, err := scenario.Parse(req.Scenario); err == nil {
				if h, err := scenario.CanonicalHash(sc); err == nil {
					key = "scenario:" + h
				}
			}
		}
		g.routeMu.RLock()
		lay := g.cur
		if g.mig != nil {
			// Reads are stateless; during a migration they stay on the
			// from-ring, which every shard keeps serving throughout.
			lay = g.mig.from
		}
		g.routeMu.RUnlock()
		ctx, cancel := g.requestCtx(r)
		defer cancel()
		sh := lay.shards[lay.ring.Shard(key)]
		res, err := sh.forward(ctx, path, body)
		g.writeProxied(w, lay, sh, res, err)
	}
}

// writeProxied relays a shard's response (or the routing failure) to the
// client, stamping the serving shard and epoch.
func (g *Gateway) writeProxied(w http.ResponseWriter, lay *layout, sh *shard, res *proxyResult, err error) {
	idx := lay.indexOf(sh)
	w.Header().Set(ShardHeader, fmt.Sprintf("%d", idx))
	w.Header().Set(EpochHeader, fmt.Sprintf("%d", lay.epoch))
	if err != nil {
		g.met.shardErrs.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusBadGateway, fmt.Sprintf("shard %d (%s): %v", idx, sh.base, err))
		return
	}
	if res.cache != "" {
		w.Header().Set("X-Rtmdm-Cache", res.cache)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// proxyResult is a shard's response, buffered so retries can re-issue
// the request and coalesced waiters can share it.
type proxyResult struct {
	status int
	cache  string
	body   []byte
}

// errDegraded fails a request fast against a shard resting in its
// degraded window instead of burning a timeout per request.
var errDegraded = fmt.Errorf("cluster: shard degraded; probe pending")

// shard is one rtmdm-serve instance as seen by the gateway: its base
// URL, the bounded-fan-out semaphore, the failure breaker, and the
// per-node count of admissions in flight. Shards are pooled by URL and
// survive layout swaps.
type shard struct {
	gw     *Gateway
	base   string
	client *http.Client
	sem    chan struct{}

	// breaker state.
	bmu         sync.Mutex
	consecFails int
	degraded    bool
	lastFail    time.Time
	probing     bool

	// inflight counts each node's admissions between routing and
	// settlement — what the migration barrier waits on.
	amu      sync.Mutex
	inflight map[string]int
}

func (sh *shard) isDegraded() bool {
	sh.bmu.Lock()
	defer sh.bmu.Unlock()
	return sh.degraded
}

// allowAttempt gates one forward attempt through the breaker: healthy
// shards always pass; a degraded shard passes exactly one half-open
// probe per ProbeInterval and fails everything else fast.
func (sh *shard) allowAttempt() (probe bool, ok bool) {
	sh.bmu.Lock()
	defer sh.bmu.Unlock()
	if !sh.degraded {
		return false, true
	}
	if sh.probing || time.Since(sh.lastFail) < sh.gw.cfg.ProbeInterval {
		return false, false
	}
	sh.probing = true
	return true, true
}

// recordAttempt feeds the breaker: a success closes it; a failure counts
// toward the threshold and, once crossed, opens it.
func (sh *shard) recordAttempt(probe, ok bool) {
	sh.bmu.Lock()
	defer sh.bmu.Unlock()
	if probe {
		sh.probing = false
	}
	if ok {
		if sh.degraded {
			sh.gw.met.degraded.Add(-1)
		}
		sh.consecFails, sh.degraded = 0, false
		return
	}
	sh.consecFails++
	sh.lastFail = time.Now()
	if !sh.degraded && sh.consecFails >= sh.gw.cfg.FailThreshold {
		sh.degraded = true
		sh.gw.met.trips.Inc()
		sh.gw.met.degraded.Add(1)
	}
}

// retryableStatus marks shard responses worth another attempt: load
// shedding (429), gateway-class failures, and 503 (a shard draining or a
// handoff target momentarily busy). 4xx validation errors and 200s pass
// through; 500 passes through too — it is a shard bug, and retrying a
// panic is how panics multiply.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// forward proxies one request to the shard with bounded fan-out, a
// per-attempt timeout, retry with doubling backoff, and breaker
// accounting. It returns the first conclusive shard response, or the
// last error once the attempt budget is spent.
func (sh *shard) forward(ctx context.Context, path string, body []byte) (*proxyResult, error) {
	backoff := sh.gw.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= sh.gw.cfg.Retries; attempt++ {
		if attempt > 0 {
			sh.gw.met.retries.Inc()
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-sh.gw.base.Done():
				t.Stop()
				return nil, fmt.Errorf("gateway shutting down")
			}
			backoff *= 2
		}
		probe, ok := sh.allowAttempt()
		if !ok {
			lastErr = errDegraded
			continue
		}
		res, err := sh.attempt(ctx, path, body)
		if err != nil {
			sh.recordAttempt(probe, false)
			lastErr = err
			continue
		}
		if retryableStatus(res.status) {
			// 429 is the shard shedding load, not failing: back off and
			// retry without charging the breaker. The other retryable
			// statuses are failures and count toward degradation.
			sh.recordAttempt(probe, res.status == http.StatusTooManyRequests)
			lastErr = fmt.Errorf("shard status %d", res.status)
			if attempt == sh.gw.cfg.Retries {
				// Out of budget: relay the shard's own response rather
				// than masking it with a gateway error.
				return res, nil
			}
			continue
		}
		sh.recordAttempt(probe, true)
		return res, nil
	}
	return nil, lastErr
}

// attempt is one bounded round trip to the shard.
func (sh *shard) attempt(ctx context.Context, path string, body []byte) (*proxyResult, error) {
	select {
	case sh.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-sh.sem }()
	actx, cancel := context.WithTimeout(ctx, sh.gw.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, sh.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := sh.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &proxyResult{status: resp.StatusCode, cache: resp.Header.Get("X-Rtmdm-Cache"), body: data}, nil
}

// admit counts cl in flight for its node and starts its forward.
// placeAdmit calls it under routeMu's read lock.
func (sh *shard) admit(cl *admitCall) {
	sh.amu.Lock()
	sh.inflight[cl.node]++
	sh.amu.Unlock()
	sh.gw.addActive()
	go sh.forwardAdmit(cl)
}

// forwardAdmit forwards one admission under the gateway's base context,
// detached from the client: once routed, an admission runs to a verdict
// (retries included) even if its client hangs up. The quota slot and the
// in-flight count settle here, when the forward that consumed shard
// capacity completes, so both track shard work rather than client
// connections. Batching and request_id ordering happen on the shard, in
// its admitter.
func (sh *shard) forwardAdmit(cl *admitCall) {
	defer sh.gw.endActive()
	sh.gw.met.forwarded.Inc()
	cl.res, cl.err = sh.forward(sh.gw.base, "/v1/admit", cl.body)
	cl.release()
	sh.amu.Lock()
	sh.inflight[cl.node]--
	if sh.inflight[cl.node] == 0 {
		delete(sh.inflight, cl.node)
	}
	sh.amu.Unlock()
	close(cl.done)
}

// busyNodes lists the nodes with admissions in flight for which keep
// returns true.
func (sh *shard) busyNodes(keep func(string) bool) []string {
	sh.amu.Lock()
	defer sh.amu.Unlock()
	var out []string
	for node := range sh.inflight {
		if keep(node) {
			out = append(out, node)
		}
	}
	sort.Strings(out)
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
