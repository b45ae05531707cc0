package cluster

import (
	"bytes"
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

	"rtmdm/internal/scenario"
)

// fakeShard is an in-memory stand-in for rtmdm-serve's handoff surface:
// /v1/admit appends a task to the node's committed set, /v1/snapshot and
// /v1/export seal it with the real codec, /v1/import installs or
// releases with the same idempotence and hash-guard semantics the server
// implements. It lets the cluster package test the migration driver
// without importing internal/server (which imports this package).
type fakeShard struct {
	label string

	mu    sync.Mutex
	nodes map[string][]scenario.TaskSpec

	// blockExport, when a node has an entry, parks /v1/export for that
	// node until the channel closes — how tests hold a migration open.
	blockExport map[string]chan struct{}
	// blockAdmit, when a node has an entry, parks /v1/admit for that
	// node (after recording its arrival, before committing) until the
	// channel closes — how tests hold an admission in flight.
	blockAdmit map[string]chan struct{}
	// failImport, when set, answers every install with 500.
	failImport bool
	admits     []string // "node:request_id" in arrival order
	exports    []string // nodes whose /v1/export was requested, in order
}

func newFakeShard(label string) *fakeShard {
	return &fakeShard{label: label, nodes: map[string][]scenario.TaskSpec{},
		blockExport: map[string]chan struct{}{}, blockAdmit: map[string]chan struct{}{}}
}

func (f *fakeShard) state(node string) (NodeState, bool) {
	tasks, ok := f.nodes[node]
	if !ok {
		return NodeState{}, false
	}
	return NodeState{Node: node, HorizonMs: 200, Tasks: append([]scenario.TaskSpec(nil), tasks...)}, true
}

func (f *fakeShard) hashOf(node string) string {
	ns, ok := f.state(node)
	if !ok {
		return ""
	}
	snap, err := NewSnapshot(f.label, []NodeState{ns})
	if err != nil {
		panic(err)
	}
	return snap.Nodes[0].Hash
}

func (f *fakeShard) taskCount(node string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.nodes[node])
}

func (f *fakeShard) seed(node string, tasks int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; i < tasks; i++ {
		f.nodes[node] = append(f.nodes[node], scenario.TaskSpec{
			Name: fmt.Sprintf("t%02d", i), Model: "tinymlp", PeriodMs: float64(50 + 10*i)})
	}
}

func (f *fakeShard) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/admit", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			RequestID uint64 `json:"request_id"`
			Node      string `json:"node"`
			Task      struct {
				Name     string `json:"name"`
				Model    string `json:"model"`
				PeriodMs float64 `json:"period_ms"`
			} `json:"task"`
		}
		body, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(body, &req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.admits = append(f.admits, fmt.Sprintf("%s:%d", req.Node, req.RequestID))
		gate := f.blockAdmit[req.Node]
		f.mu.Unlock()
		if gate != nil {
			<-gate
		}
		f.mu.Lock()
		f.nodes[req.Node] = append(f.nodes[req.Node], scenario.TaskSpec{
			Name: req.Task.Name, Model: req.Task.Model, PeriodMs: req.Task.PeriodMs})
		f.mu.Unlock()
		fmt.Fprint(w, `{"admitted": true}`)
	})
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		states := []NodeState{}
		for node := range f.nodes {
			ns, _ := f.state(node)
			states = append(states, ns)
		}
		f.mu.Unlock()
		snap, err := NewSnapshot(f.label, states)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		snap.Encode(w)
	})
	mux.HandleFunc("GET /v1/export", func(w http.ResponseWriter, r *http.Request) {
		node := r.URL.Query().Get("node")
		f.mu.Lock()
		f.exports = append(f.exports, node)
		gate := f.blockExport[node]
		ns, ok := f.state(node)
		f.mu.Unlock()
		if gate != nil {
			<-gate
		}
		if !ok {
			http.Error(w, "no such node", http.StatusNotFound)
			return
		}
		snap, err := NewSnapshot(f.label, []NodeState{ns})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		snap.Encode(w)
	})
	mux.HandleFunc("POST /v1/import", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var probe struct {
			Release *struct{ Node, Hash string } `json:"release"`
		}
		if json.Unmarshal(body, &probe) == nil && probe.Release != nil {
			f.mu.Lock()
			defer f.mu.Unlock()
			if _, ok := f.nodes[probe.Release.Node]; !ok {
				json.NewEncoder(w).Encode(importReply{Node: probe.Release.Node})
				return
			}
			if f.hashOf(probe.Release.Node) != probe.Release.Hash {
				http.Error(w, "hash mismatch", http.StatusConflict)
				return
			}
			delete(f.nodes, probe.Release.Node)
			json.NewEncoder(w).Encode(importReply{Node: probe.Release.Node, Released: true})
			return
		}
		snap, err := DecodeSnapshot(bytes.NewReader(body))
		if err != nil || len(snap.Nodes) != 1 {
			http.Error(w, "bad snapshot", http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.failImport {
			http.Error(w, "import disabled", http.StatusInternalServerError)
			return
		}
		ns := snap.Nodes[0]
		if _, ok := f.nodes[ns.Node]; ok {
			if f.hashOf(ns.Node) == ns.Hash {
				json.NewEncoder(w).Encode(importReply{Node: ns.Node, Hash: ns.Hash})
				return
			}
			http.Error(w, "different state here", http.StatusConflict)
			return
		}
		f.nodes[ns.Node] = append([]scenario.TaskSpec(nil), ns.Tasks...)
		json.NewEncoder(w).Encode(importReply{Node: ns.Node, Hash: ns.Hash, Installed: true})
	})
	return mux
}

// reshardFixture stands up n fake shards and returns them with their
// URLs.
func reshardFixture(t *testing.T, n int) ([]*fakeShard, []string) {
	t.Helper()
	shards := make([]*fakeShard, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = newFakeShard(fmt.Sprintf("shard-%d", i))
		ts := httptest.NewServer(shards[i].handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return shards, urls
}

// ringOwners maps node names onto URL lists through fresh rings, letting
// tests classify nodes as moving or staying across a 2→4 growth.
func ownerURL(t *testing.T, urls []string, node string) string {
	t.Helper()
	ring, err := NewRing(len(urls), 0)
	if err != nil {
		t.Fatal(err)
	}
	return urls[ring.Shard(node)]
}

// pickNodes scans generated names for one that moves across the growth
// and one that stays, so tests need not hard-code ring internals.
func pickNodes(t *testing.T, oldURLs, newURLs []string) (moving, staying string) {
	t.Helper()
	for i := 0; i < 4096 && (moving == "" || staying == ""); i++ {
		name := fmt.Sprintf("node-%04d", i)
		if ownerURL(t, oldURLs, name) != ownerURL(t, newURLs, name) {
			if moving == "" {
				moving = name
			}
		} else if staying == "" {
			staying = name
		}
	}
	if moving == "" || staying == "" {
		t.Fatal("could not find both a moving and a staying node")
	}
	return moving, staying
}

func reshardTo(t *testing.T, gwURL string, urls []string) (*http.Response, ReshardResponse, []byte) {
	t.Helper()
	body, _ := json.Marshal(ReshardRequest{Shards: urls})
	resp, raw := postJSON(t, gwURL+"/v1/reshard", string(body))
	var out ReshardResponse
	json.Unmarshal(raw, &out)
	return resp, out, raw
}

// TestReshardMovesStateAndRouting: growing 2→4 moves exactly the nodes
// whose ring owner changes, state lands verified on the new owners, the
// old copies are released, and post-swap routing (plus the epoch header)
// follows the new ring.
func TestReshardMovesStateAndRouting(t *testing.T) {
	shards, urls := reshardFixture(t, 4)
	old := urls[:2]
	gw, ts := newTestGateway(t, Config{Shards: old})

	// Seed 12 nodes on their old-ring owners.
	nodes := []string{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("node-%04d", i)
		nodes = append(nodes, name)
		for s, u := range old {
			if ownerURL(t, old, name) == u {
				shards[s].seed(name, 1+i%3)
			}
		}
	}

	resp, out, raw := reshardTo(t, ts.URL, urls)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reshard: status %d: %s", resp.StatusCode, raw)
	}
	if out.Epoch != 2 || len(out.Shards) != 4 {
		t.Fatalf("reshard response: %+v", out)
	}
	if len(out.Moved) == 0 {
		t.Fatal("reshard moved nothing — the fixture is vacuous")
	}
	if gw.Epoch() != 2 {
		t.Fatalf("gateway epoch %d after reshard, want 2", gw.Epoch())
	}

	movedSet := map[string]MovedNode{}
	for _, m := range out.Moved {
		movedSet[m.Node] = m
	}
	for _, name := range nodes {
		oldOwner, newOwner := ownerURL(t, old, name), ownerURL(t, urls, name)
		m, moved := movedSet[name]
		if (oldOwner != newOwner) != moved {
			t.Fatalf("node %s: owner change %v but moved=%v", name, oldOwner != newOwner, moved)
		}
		if moved && (m.From != oldOwner || m.To != newOwner) {
			t.Fatalf("node %s moved %s → %s, ring says %s → %s", name, m.From, m.To, oldOwner, newOwner)
		}
		// State lives exactly on the new owner now.
		for s, u := range urls {
			if n := shards[s].taskCount(name); (u == newOwner) != (n > 0) {
				t.Fatalf("node %s: shard %s holds %d tasks (new owner is %s)", name, u, n, newOwner)
			}
		}
	}

	// Routing follows the new ring and stamps the new epoch.
	aresp, abody := postJSON(t, ts.URL+"/v1/admit", admitJSON(99, nodes[0]))
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("admit after reshard: status %d: %s", aresp.StatusCode, abody)
	}
	if got := aresp.Header.Get(EpochHeader); got != "2" {
		t.Fatalf("epoch header %q, want 2", got)
	}
	newOwner := ownerURL(t, urls, nodes[0])
	for s, u := range urls {
		saw := false
		shards[s].mu.Lock()
		for _, a := range shards[s].admits {
			if strings.HasPrefix(a, nodes[0]+":") {
				saw = true
			}
		}
		shards[s].mu.Unlock()
		if saw != (u == newOwner) {
			t.Fatalf("post-reshard admit for %s reached %s (owner is %s)", nodes[0], u, newOwner)
		}
	}
}

// TestReshardNonMovingNodesKeepAdmitting pins the tentpole's core
// guarantee: while a migration is wedged open (a moving node's export is
// blocked), admissions for nodes that do not change owner complete
// promptly, and a parked admission for the moving node completes on the
// new owner once its handoff lands.
func TestReshardNonMovingNodesKeepAdmitting(t *testing.T) {
	shards, urls := reshardFixture(t, 4)
	old := urls[:2]
	moving, staying := pickNodes(t, old, urls)

	gate := make(chan struct{})
	for s, u := range old {
		if ownerURL(t, old, moving) == u {
			shards[s].seed(moving, 2)
			shards[s].mu.Lock()
			shards[s].blockExport[moving] = gate
			shards[s].mu.Unlock()
		}
		if ownerURL(t, old, staying) == u {
			shards[s].seed(staying, 1)
		}
	}

	_, ts := newTestGateway(t, Config{Shards: old})

	reshardDone := make(chan ReshardResponse, 1)
	go func() {
		_, out, _ := reshardTo(t, ts.URL, urls)
		reshardDone <- out
	}()

	// Wait until the migration is visibly in flight (readyz flips).
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := getJSON(t, ts.URL+"/readyz")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("migration never became visible on /readyz")
		}
		time.Sleep(time.Millisecond)
	}

	// Non-moving node: admitted promptly, mid-migration.
	start := time.Now()
	aresp, abody := postJSON(t, ts.URL+"/v1/admit", admitJSON(500, staying))
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("staying-node admit during migration: status %d: %s", aresp.StatusCode, abody)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("staying-node admit stalled %v behind the migration", elapsed)
	}

	// Moving node: the admission parks (conservative-deny)…
	parked := make(chan *http.Response, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/admit", admitJSON(501, moving))
		parked <- resp
	}()
	select {
	case resp := <-parked:
		t.Fatalf("moving-node admit answered %d while its state was in transit", resp.StatusCode)
	case <-time.After(100 * time.Millisecond):
	}

	// …and completes on the new owner once the handoff lands.
	close(gate)
	out := <-reshardDone
	if out.Epoch != 2 {
		t.Fatalf("reshard did not commit: %+v", out)
	}
	resp := <-parked
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parked admit after handoff: status %d", resp.StatusCode)
	}
	newOwner := ownerURL(t, urls, moving)
	for s, u := range urls {
		if u != newOwner {
			continue
		}
		// Old state (2 tasks) plus the parked admission.
		if n := shards[s].taskCount(moving); n != 3 {
			t.Fatalf("new owner holds %d tasks for %s, want 3", n, moving)
		}
	}
}

// TestReshardWaitsForInFlightAdmit pins the migration barrier: an admit
// already forwarded to a moving node's old owner must settle before the
// handoff exports that node, so the exported state includes its verdict
// and the admitted task lands on the new owner.
func TestReshardWaitsForInFlightAdmit(t *testing.T) {
	shards, urls := reshardFixture(t, 4)
	old := urls[:2]
	moving, _ := pickNodes(t, old, urls)

	var from *fakeShard
	for s, u := range old {
		if ownerURL(t, old, moving) == u {
			from = shards[s]
		}
	}
	from.seed(moving, 2)
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // never leave the fake's handler parked on a failure path
	from.mu.Lock()
	from.blockAdmit[moving] = gate
	from.mu.Unlock()
	_, ts := newTestGateway(t, Config{Shards: old})

	admitted := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/admit", "application/json", strings.NewReader(admitJSON(700, moving)))
		if err != nil {
			t.Error(err)
			admitted <- nil
			return
		}
		resp.Body.Close()
		admitted <- resp
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("the admit to reach the old owner", func() bool {
		from.mu.Lock()
		defer from.mu.Unlock()
		return len(from.admits) == 1
	})

	reshardDone := make(chan ReshardResponse, 1)
	go func() {
		var out ReshardResponse
		body, _ := json.Marshal(ReshardRequest{Shards: urls})
		resp, err := http.Post(ts.URL+"/v1/reshard", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
		} else {
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
		}
		reshardDone <- out
	}()
	waitFor("the migration to become visible on /readyz", func() bool {
		resp, _ := getJSON(t, ts.URL+"/readyz")
		return resp.StatusCode == http.StatusServiceUnavailable
	})

	// Give a barrier-ignoring driver ample time to reach the export.
	time.Sleep(200 * time.Millisecond)
	from.mu.Lock()
	early := append([]string(nil), from.exports...)
	from.mu.Unlock()
	if len(early) != 0 {
		t.Fatalf("export of %v requested while an admit for %s was still in flight", early, moving)
	}

	release()
	resp := <-admitted
	if resp == nil {
		t.FailNow()
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get(EpochHeader) != "1" {
		t.Fatalf("in-flight admit: status %d epoch %q, want 200 under epoch 1",
			resp.StatusCode, resp.Header.Get(EpochHeader))
	}
	if out := <-reshardDone; out.Epoch != 2 {
		t.Fatalf("reshard did not commit: %+v", out)
	}
	newOwner := ownerURL(t, urls, moving)
	for s, u := range urls {
		want := 0
		if u == newOwner {
			want = 3 // the two seeded tasks plus the in-flight admission
		}
		if n := shards[s].taskCount(moving); n != want {
			t.Fatalf("shard %s holds %d tasks for %s, want %d", u, n, moving, want)
		}
	}
}

// TestReshardFailFastMode: with DegradedMode=fail-fast a frozen node's
// admission is answered 503 immediately instead of parking.
func TestReshardFailFastMode(t *testing.T) {
	shards, urls := reshardFixture(t, 4)
	old := urls[:2]
	moving, _ := pickNodes(t, old, urls)

	gate := make(chan struct{})
	for s, u := range old {
		if ownerURL(t, old, moving) == u {
			shards[s].seed(moving, 1)
			shards[s].mu.Lock()
			shards[s].blockExport[moving] = gate
			shards[s].mu.Unlock()
		}
	}
	_, ts := newTestGateway(t, Config{Shards: old, DegradedMode: DegradedFailFast})

	reshardDone := make(chan struct{})
	go func() {
		defer close(reshardDone)
		reshardTo(t, ts.URL, urls)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := getJSON(t, ts.URL+"/readyz")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("migration never became visible")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/admit", admitJSON(1, moving))
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "mid-handoff") {
		t.Fatalf("fail-fast frozen admit: status %d body %s, want immediate 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fail-fast 503 missing Retry-After")
	}
	close(gate)
	<-reshardDone
}

// TestReshardAbortKeepsServing: when the new shards refuse imports the
// migration aborts — and routing falls back to the old ring (epoch still
// bumped) with every node still admitting.
func TestReshardAbortKeepsServing(t *testing.T) {
	shards, urls := reshardFixture(t, 4)
	old := urls[:2]
	for _, f := range shards[2:] {
		f.mu.Lock()
		f.failImport = true
		f.mu.Unlock()
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("node-%04d", i)
		for s, u := range old {
			if ownerURL(t, old, name) == u {
				shards[s].seed(name, 2)
			}
		}
	}
	gw, ts := newTestGateway(t, Config{
		Shards: old,
		Retries: 1, RetryBackoff: time.Millisecond,
	})

	resp, _, raw := reshardTo(t, ts.URL, urls)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(raw), "aborted") {
		t.Fatalf("reshard against broken targets: status %d: %s", resp.StatusCode, raw)
	}
	if gw.Epoch() != 2 {
		t.Fatalf("abort must still bump the epoch (routing changed), got %d", gw.Epoch())
	}

	// readyz recovered; every node still admits on the old ring.
	rresp, _ := getJSON(t, ts.URL+"/readyz")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after abort: %d", rresp.StatusCode)
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("node-%04d", i)
		aresp, abody := postJSON(t, ts.URL+"/v1/admit", admitJSON(uint64(100+i), name))
		if aresp.StatusCode != http.StatusOK {
			t.Fatalf("admit %s after abort: status %d: %s", name, aresp.StatusCode, abody)
		}
	}

	// A later reshard (targets fixed) succeeds from the aborted state.
	for _, f := range shards[2:] {
		f.mu.Lock()
		f.failImport = false
		f.mu.Unlock()
	}
	resp, out, raw := reshardTo(t, ts.URL, urls)
	if resp.StatusCode != http.StatusOK || out.Epoch != 3 {
		t.Fatalf("retry reshard: status %d: %s", resp.StatusCode, raw)
	}
}

// TestReshardSurvivesChaoticTransport: the migration driver completes a
// 2→4 growth through a lossy, slow, duplicate-delivering transport —
// the idempotent import/release protocol absorbs every duplicated or
// lost message — and no node's state is lost or doubled.
func TestReshardSurvivesChaoticTransport(t *testing.T) {
	shards, urls := reshardFixture(t, 4)
	old := urls[:2]
	seeded := map[string]int{}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("node-%04d", i)
		tasks := 1 + i%3
		seeded[name] = tasks
		for s, u := range old {
			if ownerURL(t, old, name) == u {
				shards[s].seed(name, tasks)
			}
		}
	}
	chaos, err := ParseChaosSpec("drop-out=0.05,drop-in=0.08,latency=0.2,latency-ms=2")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Seed = 11
	transport, err := NewChaosTransport(chaos, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestGateway(t, Config{
		Shards: old,
		Retries: 8, RetryBackoff: time.Millisecond,
		Transport: transport,
	})

	resp, out, raw := reshardTo(t, ts.URL, urls)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reshard through chaos: status %d: %s", resp.StatusCode, raw)
	}
	if len(out.Moved) == 0 {
		t.Fatal("chaotic reshard moved nothing — fixture is vacuous")
	}
	for name, tasks := range seeded {
		owner := ownerURL(t, urls, name)
		total := 0
		for s, u := range urls {
			n := shards[s].taskCount(name)
			total += n
			if u == owner && n != tasks {
				t.Fatalf("node %s: new owner holds %d tasks, want %d", name, n, tasks)
			}
		}
		// Stale source copies may linger only if the response reported
		// them; otherwise state must live exactly once.
		stale := false
		for _, sr := range out.StaleReleases {
			if sr == name {
				stale = true
			}
		}
		if !stale && total != tasks {
			t.Fatalf("node %s: %d tasks across the cluster, want %d (lost or duplicated state)", name, total, tasks)
		}
	}
}

// TestReshardRejectsConcurrentMigrations: a second /v1/reshard while one
// is in flight answers 409.
func TestReshardRejectsConcurrentMigrations(t *testing.T) {
	shards, urls := reshardFixture(t, 4)
	old := urls[:2]
	moving, _ := pickNodes(t, old, urls)
	gate := make(chan struct{})
	for s, u := range old {
		if ownerURL(t, old, moving) == u {
			shards[s].seed(moving, 1)
			shards[s].mu.Lock()
			shards[s].blockExport[moving] = gate
			shards[s].mu.Unlock()
		}
	}
	_, ts := newTestGateway(t, Config{Shards: old})
	done := make(chan struct{})
	go func() {
		defer close(done)
		reshardTo(t, ts.URL, urls)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := getJSON(t, ts.URL+"/readyz")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("migration never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _, _ := reshardTo(t, ts.URL, old)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent reshard: status %d, want 409", resp.StatusCode)
	}
	close(gate)
	<-done
}

// TestBreakerHalfOpenSingleProbe pins the half-open contract under
// concurrency: with the breaker open and the rest interval elapsed,
// N simultaneous requests collapse to exactly one probe reaching the
// shard; the rest fail fast. Run under -race this also proves the
// breaker fields are properly synchronized.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	var mu sync.Mutex
	hits, healthy := 0, false
	probeGate := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		ok := healthy
		mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		<-probeGate // hold the probe open while the others race it
		fmt.Fprint(w, `{"admitted": true}`)
	}))
	t.Cleanup(backend.Close)

	gw, ts := newTestGateway(t, Config{
		Shards: []string{backend.URL},
		Retries: -1, FailThreshold: 1, ProbeInterval: 5 * time.Millisecond,
	})

	// Trip the breaker.
	if resp, _ := postJSON(t, ts.URL+"/v1/admit", admitJSON(1, "n-0")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripping request: status %d", resp.StatusCode)
	}
	if !gw.currentLayout().shards[0].isDegraded() {
		t.Fatal("breaker did not trip")
	}
	mu.Lock()
	hits, healthy = 0, true
	mu.Unlock()
	time.Sleep(10 * time.Millisecond) // past ProbeInterval

	// 8 concurrent requests on distinct nodes: exactly one may probe;
	// the others fail fast.
	const n = 8
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/admit", admitJSON(uint64(10+i), fmt.Sprintf("n-%d", i)))
			codes <- resp.StatusCode
		}(i)
	}
	// Fast-failures settle first; then let the probe through.
	fastFails := 0
	for fastFails < n-1 {
		select {
		case code := <-codes:
			if code != http.StatusBadGateway {
				t.Fatalf("racing request got %d, want 502 fail-fast", code)
			}
			fastFails++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d racing requests failed fast", fastFails, n-1)
		}
	}
	mu.Lock()
	if hits != 1 {
		mu.Unlock()
		t.Fatalf("backend saw %d requests in half-open, want exactly 1 probe", hits)
	}
	mu.Unlock()
	close(probeGate)
	wg.Wait()
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("probe request: status %d", code)
	}
	if gw.currentLayout().shards[0].isDegraded() {
		t.Fatal("breaker still open after successful probe")
	}
}

// TestQuotaReleasedOnClientDisconnect hammers the gateway with requests
// whose clients vanish mid-flight and pins that every tenant quota slot
// returns: a cancelled client must not leak the in-flight slot its
// forward holds (the slot settles when the forward completes).
func TestQuotaReleasedOnClientDisconnect(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(3 * time.Millisecond) // outlive the clients' deadlines
		fmt.Fprint(w, `{"admitted": true}`)
	}))
	t.Cleanup(backend.Close)

	gw, ts := newTestGateway(t, Config{
		Shards: []string{backend.URL},
		Retries: -1, FailThreshold: 1 << 30,
		TenantWeights: map[string]int{"free": 1, "gold": 3}, TenantBudget: 40,
	})

	const hammer = 48
	var wg sync.WaitGroup
	for i := 0; i < hammer; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*time.Millisecond)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/admit",
				strings.NewReader(admitJSON(uint64(i+1), fmt.Sprintf("n-%d", i))))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set(TenantHeader, []string{"free", "gold"}[i%2])
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	// Every slot drains once the in-flight forwards settle.
	deadline := time.Now().Add(5 * time.Second)
	for gw.quotas.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("quota slots leaked: %d still in flight after all clients vanished", gw.quotas.InFlight())
		}
		time.Sleep(time.Millisecond)
	}

	// And the quota still works: a well-behaved request succeeds.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/admit", strings.NewReader(admitJSON(999, "final")))
	req.Header.Set(TenantHeader, "free")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-hammer request: status %d", resp.StatusCode)
	}
}

// TestRingOwners: Owners agrees with Shard on the primary and lists
// distinct successors.
func TestRingOwners(t *testing.T) {
	ring, err := NewRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k-%d", i)
		owners := ring.Owners(key, 2)
		if len(owners) != 2 {
			t.Fatalf("Owners(%q, 2) = %v", key, owners)
		}
		if owners[0] != ring.Shard(key) {
			t.Fatalf("Owners primary %d != Shard %d", owners[0], ring.Shard(key))
		}
		if owners[0] == owners[1] {
			t.Fatalf("Owners(%q) not distinct: %v", key, owners)
		}
	}
	one, _ := NewRing(1, 0)
	if got := one.Owners("k", 2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-shard Owners = %v", got)
	}
}

// TestGatewayHedgedReads: a slow primary triggers one hedged attempt on
// the next ring owner, and the hedge's answer serves the client.
func TestGatewayHedgedReads(t *testing.T) {
	const shards = 2
	slow := make(chan struct{})
	defer close(slow)
	var urls []string
	var hits [shards]int
	var mu sync.Mutex
	for i := 0; i < shards; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hits[i]++
			first := hits[0]+hits[1] == 1
			mu.Unlock()
			if first {
				<-slow // the first-touched shard hangs; the hedge answers
			}
			fmt.Fprint(w, `{"schedulable": true}`)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	gw, ts := newTestGateway(t, Config{Shards: urls, HedgeDelay: 5 * time.Millisecond})

	resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"scenario": {"tasks": [{"name": "a", "model": "tinymlp", "period_ms": 50}]}}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "schedulable") {
		t.Fatalf("hedged analyze: status %d: %s", resp.StatusCode, body)
	}
	mu.Lock()
	total := hits[0] + hits[1]
	mu.Unlock()
	if total != 2 {
		t.Fatalf("shards saw %d requests, want primary + hedge = 2", total)
	}
	if got := gw.met.hedged; got != nil {
		t.Log("hedged counter wired") // counter handle is nil without a registry
	}
}
