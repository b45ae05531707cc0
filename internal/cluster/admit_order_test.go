package cluster_test

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

	"rtmdm/internal/cluster"
	"rtmdm/internal/server"
)

// TestGatewayAdmitRequestIDOrder pins the cluster's ordering contract end
// to end: concurrent admissions for one node, sent through a gateway, are
// decided by the owning shard in request_id order. The gateway only
// routes; the shard's admission window gathers the burst and sorts it,
// so each response's committed set holds exactly the tasks ranked at or
// before it. (This lives in an external test package because
// internal/server imports internal/cluster.)
func TestGatewayAdmitRequestIDOrder(t *testing.T) {
	ids := []uint64{7, 3, 11, 1, 9, 5, 12, 2, 10, 4, 8, 6}
	// A long window so every concurrent request lands in one shard batch.
	// An admission holds a shard worker slot while it waits in the
	// window, so the pool must fit the whole burst (as must the
	// gateway's MaxInflight, 16 by default); a larger burst is split
	// across windows — see docs/SERVER.md §Ordering.
	srv := server.New(server.Config{AdmitWindow: 300 * time.Millisecond, Workers: len(ids)})
	shardTS := httptest.NewServer(srv)
	gw, err := cluster.NewGateway(cluster.Config{Shards: []string{shardTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gwTS := httptest.NewServer(gw)
	t.Cleanup(func() {
		gwTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := gw.Shutdown(ctx); err != nil {
			t.Errorf("gateway shutdown: %v", err)
		}
		shardTS.Close()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shard shutdown: %v", err)
		}
	})

	committed := make(map[uint64]int, len(ids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			body := fmt.Sprintf(`{"request_id": %d, "node": "one-node",
				"task": {"name": "t%02d", "model": "tinymlp", "period_ms": 1000}}`, id, id)
			resp, err := http.Post(gwTS.URL+"/v1/admit", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			var out server.AdmitResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &out) != nil || !out.Admitted {
				t.Errorf("id %d: status %d: %s", id, resp.StatusCode, raw)
				return
			}
			mu.Lock()
			committed[id] = len(out.Committed)
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// ids are a permutation of 1..12, so an id is its own rank.
	for _, id := range ids {
		if got := committed[id]; got != int(id) {
			t.Fatalf("request %d was decided with %d task(s) committed, want %d (out of request_id order): %v",
				id, got, id, committed)
		}
	}
}
