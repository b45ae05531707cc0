package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := gw.Shutdown(ctx); err != nil {
			t.Errorf("gateway shutdown: %v", err)
		}
	})
	return gw, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func admitJSON(id uint64, node string) string {
	return fmt.Sprintf(`{"request_id": %d, "node": %q, "task": {"name": "t", "model": "tinymlp", "period_ms": 50}}`, id, node)
}

// okBackend is a fake shard recording the nodes it served.
type okBackend struct {
	mu    sync.Mutex
	nodes []string
}

func (b *okBackend) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Node string `json:"node"`
		}
		body, _ := io.ReadAll(r.Body)
		json.Unmarshal(body, &req)
		b.mu.Lock()
		b.nodes = append(b.nodes, req.Node)
		b.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"admitted": true}`)
	}
}

func (b *okBackend) served() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := map[string]int{}
	for _, n := range b.nodes {
		out[n]++
	}
	return out
}

// TestGatewayRoutesAdmitByNode: every node's admissions land on the ring
// owner, and the response reports that shard.
func TestGatewayRoutesAdmitByNode(t *testing.T) {
	const shards = 3
	backends := make([]*okBackend, shards)
	urls := make([]string, shards)
	for i := range backends {
		backends[i] = &okBackend{}
		ts := httptest.NewServer(backends[i].handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	gw, ts := newTestGateway(t, Config{Shards: urls})

	for i := 0; i < 24; i++ {
		node := fmt.Sprintf("cn-%03d", i)
		want := gw.currentLayout().ring.Shard(node)
		resp, body := postJSON(t, ts.URL+"/v1/admit", admitJSON(uint64(i+1), node))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit %s: status %d: %s", node, resp.StatusCode, body)
		}
		if got := resp.Header.Get(ShardHeader); got != fmt.Sprint(want) {
			t.Fatalf("admit %s: served by shard %s, ring owner is %d", node, got, want)
		}
		if n := backends[want].served()[node]; n != 1 {
			t.Fatalf("admit %s: owner backend saw it %d times", node, n)
		}
	}
}

// TestGatewayRetriesTransientFailures: retryable shard statuses are
// retried with backoff until a conclusive answer.
func TestGatewayRetriesTransientFailures(t *testing.T) {
	var mu sync.Mutex
	hits := 0
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		n := hits
		mu.Unlock()
		if n <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"admitted": true}`)
	}))
	t.Cleanup(backend.Close)

	_, ts := newTestGateway(t, Config{
		Shards:  []string{backend.URL},
		Retries: 2, RetryBackoff: time.Millisecond, FailThreshold: 10,
	})
	resp, body := postJSON(t, ts.URL+"/v1/admit", admitJSON(1, "n"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after retries: %s", resp.StatusCode, body)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 3 {
		t.Fatalf("backend hit %d times, want 3 (2 failures + success)", hits)
	}
}

// TestGatewayBreakerDegradesAndRecovers: consecutive failures trip the
// breaker (fail-fast, no backend traffic), a half-open probe after
// ProbeInterval closes it again.
func TestGatewayBreakerDegradesAndRecovers(t *testing.T) {
	var mu sync.Mutex
	hits, healthy := 0, false
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		ok := healthy
		mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"admitted": true}`)
	}))
	t.Cleanup(backend.Close)

	const probeInterval = 50 * time.Millisecond
	gw, ts := newTestGateway(t, Config{
		Shards:  []string{backend.URL},
		Retries: -1, FailThreshold: 2, ProbeInterval: probeInterval,
	})

	// Two failures relay the shard's 503 and trip the breaker.
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/admit", admitJSON(uint64(i+1), "n"))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("failure %d: status %d, want 503 relayed", i, resp.StatusCode)
		}
	}
	if !gw.currentLayout().shards[0].isDegraded() {
		t.Fatal("shard not degraded after FailThreshold failures")
	}

	// Degraded: fail fast with 502, without touching the backend.
	mu.Lock()
	before := hits
	mu.Unlock()
	resp, body := postJSON(t, ts.URL+"/v1/admit", admitJSON(3, "n"))
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), "degraded") {
		t.Fatalf("degraded shard: status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded response missing Retry-After")
	}
	mu.Lock()
	if hits != before {
		mu.Unlock()
		t.Fatal("degraded shard still received traffic")
	}
	healthy = true
	mu.Unlock()

	// /healthz reports the degradation (sole shard → whole gateway).
	hresp, hbody := getJSON(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hbody), `"status":"degraded"`) {
		t.Fatalf("healthz while degraded: %d %s", hresp.StatusCode, hbody)
	}

	// After the rest interval one probe goes through and closes the
	// breaker.
	time.Sleep(probeInterval + 10*time.Millisecond)
	resp, body = postJSON(t, ts.URL+"/v1/admit", admitJSON(4, "n"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe request: status %d body %s", resp.StatusCode, body)
	}
	if gw.currentLayout().shards[0].isDegraded() {
		t.Fatal("shard still degraded after a successful probe")
	}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestGatewayTenantQuota: a tenant at its weighted in-flight cap is
// refused with 429 while other tenants keep their headroom.
func TestGatewayTenantQuota(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		fmt.Fprint(w, `{"admitted": true}`)
	}))
	t.Cleanup(backend.Close)
	defer close(release)

	// budget 4 over free=1, gold=3 (+default share): free's cap is 1.
	_, ts := newTestGateway(t, Config{
		Shards:        []string{backend.URL},
		TenantWeights: map[string]int{"free": 1, "gold": 3}, TenantBudget: 4,
	})

	sendTo := func(tenant string, id uint64, node string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/admit",
			strings.NewReader(admitJSON(id, node)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}
	send := func(tenant string, id uint64) (*http.Response, []byte) { return sendTo(tenant, id, "n") }

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp, body := send("free", 1)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("first free request: status %d: %s", resp.StatusCode, body)
		}
	}()
	<-entered // the slot is held inside the backend now

	resp, body := send("free", 2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("free over cap: status %d body %s, want 429", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "free") || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 body/headers not diagnostic: %s", body)
	}

	// gold still has headroom while free is saturated.
	goldDone := make(chan struct{})
	go func() {
		defer close(goldDone)
		resp, body := sendTo("gold", 3, "m")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("gold request: status %d: %s", resp.StatusCode, body)
		}
	}()
	<-entered
	release <- struct{}{}
	release <- struct{}{}
	<-firstDone
	<-goldDone
}

// TestGatewayScenarioAffinity: every spelling of one deployment routes
// to the same shard, so one result cache serves them all.
func TestGatewayScenarioAffinity(t *testing.T) {
	const shards = 4
	var mu sync.Mutex
	hits := make([]int, shards)
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
			fmt.Fprint(w, `{}`)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	_, ts := newTestGateway(t, Config{Shards: urls})

	spellings := []string{
		`{"scenario": {"horizon_ms": 200, "tasks": [
			{"name": "kws", "model": "ds-cnn", "period_ms": 50},
			{"name": "ae", "model": "autoencoder", "period_ms": 100}]}}`,
		`{"scenario": {"policy": "rt-mdm", "horizon_ms": 200, "tasks": [
			{"name": "ae", "model": "autoencoder", "period_ms": 100, "deadline_ms": 100},
			{"name": "kws", "model": "ds-cnn", "period_ms": 50}]}}`,
	}
	var owner string
	for i, body := range spellings {
		resp, rbody := postJSON(t, ts.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze spelling %d: status %d: %s", i, resp.StatusCode, rbody)
		}
		sh := resp.Header.Get(ShardHeader)
		if owner == "" {
			owner = sh
		} else if sh != owner {
			t.Fatalf("spelling %d routed to shard %s, first spelling went to %s", i, sh, owner)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, h := range hits {
		total += h
	}
	if total != len(spellings) {
		t.Fatalf("backends saw %d requests, want %d", total, len(spellings))
	}
}

// TestGatewayRelaysShardErrors: non-retryable shard responses (validation
// errors) pass through verbatim — the shard is authoritative.
func TestGatewayRelaysShardErrors(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprint(w, `{"error": "unknown model"}`)
	}))
	t.Cleanup(backend.Close)
	_, ts := newTestGateway(t, Config{Shards: []string{backend.URL}})

	resp, body := postJSON(t, ts.URL+"/v1/admit", admitJSON(1, "n"))
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "unknown model") {
		t.Fatalf("status %d body %s, want the shard's 422 relayed", resp.StatusCode, body)
	}
}

func TestGatewayRejectsBadAdmit(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("backend reached for an unroutable admit")
	}))
	t.Cleanup(backend.Close)
	_, ts := newTestGateway(t, Config{Shards: []string{backend.URL}})

	resp, _ := postJSON(t, ts.URL+"/v1/admit", `{"request_id": 1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("admit without node: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/admit", `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unparseable admit: status %d, want 400", resp.StatusCode)
	}
}

func TestGatewayNeedsShards(t *testing.T) {
	if _, err := NewGateway(Config{}); err == nil {
		t.Fatal("gateway built with no shards")
	}
}
