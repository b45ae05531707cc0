package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// This file is the gateway side of live resharding (docs/CLUSTER.md):
// POST /v1/reshard installs a new epoch-versioned layout and migrates
// per-node admission state between shards through the export → verify →
// import → release handoff protocol, freezing only the nodes that
// actually change owner. Non-moving nodes — the vast majority when
// growing a ring, since virtual points are index-keyed — keep admitting
// throughout.

// ReshardRequest is the /v1/reshard wire shape: the complete shard URL
// list for the next epoch (order defines ring indices).
type ReshardRequest struct {
	Shards []string `json:"shards"`
}

// MovedNode records one completed handoff in the reshard response.
type MovedNode struct {
	Node string `json:"node"`
	From string `json:"from"`
	To   string `json:"to"`
	Hash string `json:"hash"`
}

// ReshardResponse reports a committed migration. StaleReleases lists
// nodes whose verified copy is live on the new owner but whose source
// copy could not be released before the retry budget ran out — harmless
// residue (routing no longer points there; the hash-guarded release can
// be repeated any time), surfaced so operators can clean up.
type ReshardResponse struct {
	Epoch         uint64      `json:"epoch"`
	Shards        []string    `json:"shards"`
	Moved         []MovedNode `json:"moved"`
	StaleReleases []string    `json:"stale_releases,omitempty"`
	DurationMs    float64     `json:"duration_ms"`
}

// Errors the reshard driver can surface to the handler.
var (
	errReshardBusy = fmt.Errorf("cluster: a reshard migration is already in flight")
)

// handleReshard drives a live migration to the posted shard list.
func (g *Gateway) handleReshard(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	var req ReshardRequest
	if err := json.Unmarshal(body, &req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	if len(req.Shards) == 0 {
		WriteError(w, http.StatusBadRequest, "shards must list at least one URL")
		return
	}
	ctx, cancel := g.requestCtx(r)
	defer cancel()
	resp, err := g.Reshard(ctx, req.Shards)
	if err == errReshardBusy {
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusConflict, err.Error())
		return
	}
	if err != nil {
		WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// nodeHome is one node's authoritative location: the shard holding its
// state and the sealed record describing it.
type nodeHome struct {
	sh    *shard
	state NodeState
}

// Reshard migrates the gateway from its current layout to one over urls,
// moving each stateful node whose owner changes and swapping the serving
// layout atomically at the end. On any handoff failure the migration
// aborts back to the old ring plus per-node overrides for nodes already
// moved — routing stays consistent with wherever each node's state
// actually lives, in both outcomes.
func (g *Gateway) Reshard(ctx context.Context, urls []string) (*ReshardResponse, error) {
	if !g.reshardMu.TryLock() {
		return nil, errReshardBusy
	}
	defer g.reshardMu.Unlock()
	start := time.Now()
	g.met.reshards.Inc()

	from := g.currentLayout()
	to, err := g.newLayout(from.epoch+1, urls)
	if err != nil {
		g.met.reshardFails.Inc()
		return nil, err
	}

	// Pre-freeze census: which nodes hold state, and where. Used only to
	// seed the early-unfreeze channels — the authoritative moving set is
	// re-gathered after the freeze barrier, when the frozen nodes'
	// admissions have provably settled.
	plan, err := g.gatherStates(ctx, from)
	if err != nil {
		g.met.reshardFails.Inc()
		return nil, fmt.Errorf("pre-migration state census: %w", err)
	}
	mig := &migration{from: from, to: to, moving: map[string]*movingNode{}, done: make(chan struct{})}
	for node := range plan {
		if mig.frozen(node) {
			mig.moving[node] = &movingNode{moved: make(chan struct{})}
		}
	}

	// Barrier: publish the migration. From here every new admit routes
	// under the migration rules — frozen nodes park, everything else
	// flows — and no admit can be starting toward a stale owner unseen
	// (placeAdmit counts it in flight under routeMu's read side).
	g.routeMu.Lock()
	if g.cur != from {
		g.routeMu.Unlock()
		g.met.reshardFails.Inc()
		return nil, fmt.Errorf("cluster: layout changed underfoot; retry")
	}
	g.mig = mig
	g.routeMu.Unlock()

	resp, err := g.migrate(ctx, mig, plan)
	if err != nil {
		// Abort: stay on the old ring, overriding nodes already moved so
		// routing follows their state. The epoch still bumps — routing
		// changed, and clients keying caches on the epoch must see that.
		g.met.reshardFails.Inc()
		moved := map[string]*shard{}
		for _, m := range resp.Moved {
			moved[m.Node] = g.shardFor(m.To)
		}
		ab := from.withOverrides(to.epoch, moved)
		g.routeMu.Lock()
		g.cur = ab
		g.mig = nil
		g.routeMu.Unlock()
		mig.aborted = true
		close(mig.done)
		g.met.epoch.Set(int64(ab.epoch))
		return nil, fmt.Errorf("cluster: reshard aborted (%d node(s) already on new owners, routed by override): %w",
			len(resp.Moved), err)
	}

	g.routeMu.Lock()
	g.cur = to
	g.mig = nil
	g.routeMu.Unlock()
	close(mig.done)
	g.met.epoch.Set(int64(to.epoch))
	g.met.shardCount.Set(int64(len(to.shards)))
	resp.DurationMs = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}

// migrate runs the post-barrier phases: drain frozen admits, re-census,
// hand off every node whose owner changes. Returns the partial response
// (moved-so-far) alongside any error so the abort path can build its
// overrides.
func (g *Gateway) migrate(ctx context.Context, mig *migration, plan map[string]nodeHome) (*ReshardResponse, error) {
	resp := &ReshardResponse{Epoch: mig.to.epoch, Shards: mig.to.urls, Moved: []MovedNode{}}
	if err := g.drainFrozenAdmits(ctx, mig); err != nil {
		return resp, err
	}

	// Authoritative census, now that frozen nodes can gain no new
	// decisions. Nodes that appeared since the plan still move — they
	// just lack an early-unfreeze channel and wake with mig.done.
	homes, err := g.gatherStates(ctx, mig.from)
	if err != nil {
		return resp, fmt.Errorf("post-freeze state census: %w", err)
	}
	names := make([]string, 0, len(homes))
	for node := range homes {
		if mig.frozen(node) {
			names = append(names, node)
		}
	}
	sort.Strings(names)

	for _, node := range names {
		home := homes[node]
		toSh := mig.to.owner(node)
		if toSh.base == home.sh.base {
			continue // state already where the new ring wants it
		}
		hash, err := g.handoffNode(ctx, node, home.sh, toSh)
		if err != nil {
			return resp, fmt.Errorf("node %q (%s → %s): %w", node, home.sh.base, toSh.base, err)
		}
		if hash == staleReleaseMark {
			resp.StaleReleases = append(resp.StaleReleases, node)
			hash = home.state.Hash
		}
		resp.Moved = append(resp.Moved, MovedNode{Node: node, From: home.sh.base, To: toSh.base, Hash: hash})
		g.met.reshardMoved.Inc()
		if mn := mig.moving[node]; mn != nil {
			close(mn.moved) // unpark this node's requests onto the new owner now
		}
	}
	return resp, nil
}

// drainFrozenAdmits waits until no from-shard has an admission in
// flight for a frozen node. Past the barrier frozen nodes gain no new
// forwards, so this strictly drains.
func (g *Gateway) drainFrozenAdmits(ctx context.Context, mig *migration) error {
	tick := 2 * time.Millisecond
	for {
		busy := []string{}
		for _, sh := range mig.from.allShards() {
			busy = append(busy, sh.busyNodes(mig.frozen)...)
		}
		if len(busy) == 0 {
			return nil
		}
		select {
		case <-time.After(tick):
		case <-ctx.Done():
			sort.Strings(busy)
			return fmt.Errorf("frozen nodes' admits never settled (still busy: %v): %w", busy, ctx.Err())
		case <-g.base.Done():
			return errShuttingDown
		}
	}
}

// gatherStates asks every shard that may hold state under lay for its
// full snapshot and keeps each node's record from the shard that owns it
// under lay — residue left on non-owners (e.g. an unreleased source
// copy) is ignored, never migrated.
func (g *Gateway) gatherStates(ctx context.Context, lay *layout) (map[string]nodeHome, error) {
	out := map[string]nodeHome{}
	for _, sh := range lay.allShards() {
		status, body, err := g.handoffRequest(ctx, sh, http.MethodGet, "/v1/snapshot", nil)
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", sh.base, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("snapshot %s: status %d: %s", sh.base, status, body)
		}
		snap, err := DecodeSnapshot(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("snapshot %s does not verify: %w", sh.base, err)
		}
		for _, ns := range snap.Nodes {
			if lay.ownerURL(ns.Node) == sh.base {
				out[ns.Node] = nodeHome{sh: sh, state: ns}
			}
		}
	}
	return out, nil
}

// staleReleaseMark is handoffNode's in-band signal that the transfer
// verified but the source release ran out of retries.
const staleReleaseMark = "\x00stale-release"

// handoffNode moves one node's state: export from the old owner, verify
// the sealed bytes at the gateway, import into the new owner, check the
// echoed hash, then release the source copy. Every step retries through
// transient failures; a 409 on import self-heals once by releasing the
// target's stale copy (residue of an earlier aborted migration) before
// re-importing. Returns the verified hash, or staleReleaseMark when only
// the final release failed.
func (g *Gateway) handoffNode(ctx context.Context, node string, fromSh, toSh *shard) (string, error) {
	status, body, err := g.handoffRequest(ctx, fromSh, http.MethodGet, "/v1/export?node="+node, nil)
	if err != nil {
		return "", fmt.Errorf("export: %w", err)
	}
	if status == http.StatusNotFound {
		return "", fmt.Errorf("export: source no longer holds %q (concurrent release?)", node)
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("export: status %d: %s", status, body)
	}
	snap, err := DecodeSnapshot(bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("export does not verify: %w", err)
	}
	if len(snap.Nodes) != 1 || snap.Nodes[0].Node != node {
		return "", fmt.Errorf("export returned wrong node set (%d nodes)", len(snap.Nodes))
	}
	hash := snap.Nodes[0].Hash

	imp, err := g.importVerified(ctx, toSh, node, hash, body)
	if err != nil {
		return "", err
	}
	if imp.Hash != hash {
		return "", fmt.Errorf("import verified wrong hash (sent %.12s…, target echoed %.12s…)", hash, imp.Hash)
	}

	rel, _ := json.Marshal(map[string]any{"release": map[string]string{"node": node, "hash": hash}})
	status, body, err = g.handoffRequest(ctx, fromSh, http.MethodPost, "/v1/import", rel)
	if err != nil || status != http.StatusOK {
		// The verified copy is live and routing will point at it; the
		// source copy is identical bytes guarded by this same hash, so a
		// later repeat of this release is always safe. Report, don't fail.
		return staleReleaseMark, nil
	}
	return hash, nil
}

// importVerified imports sealed bytes into toSh, self-healing one 409:
// export the target's own copy, release it by its own hash, retry once.
func (g *Gateway) importVerified(ctx context.Context, toSh *shard, node, hash string, sealed []byte) (*importReply, error) {
	for attempt := 0; ; attempt++ {
		status, body, err := g.handoffRequest(ctx, toSh, http.MethodPost, "/v1/import", sealed)
		if err != nil {
			return nil, fmt.Errorf("import: %w", err)
		}
		if status == http.StatusOK {
			var imp importReply
			if err := json.Unmarshal(body, &imp); err != nil {
				return nil, fmt.Errorf("import reply does not parse: %w", err)
			}
			return &imp, nil
		}
		if status != http.StatusConflict || attempt > 0 {
			return nil, fmt.Errorf("import: status %d: %s", status, body)
		}
		// 409: the target holds different state for this node — residue of
		// an aborted run. Release it by its own hash and retry once.
		es, ebody, err := g.handoffRequest(ctx, toSh, http.MethodGet, "/v1/export?node="+node, nil)
		if err != nil || es != http.StatusOK {
			return nil, fmt.Errorf("import conflict and target export failed (status %d, err %v)", es, err)
		}
		esnap, err := DecodeSnapshot(bytes.NewReader(ebody))
		if err != nil || len(esnap.Nodes) != 1 {
			return nil, fmt.Errorf("import conflict and target export does not verify: %v", err)
		}
		rel, _ := json.Marshal(map[string]any{"release": map[string]string{"node": node, "hash": esnap.Nodes[0].Hash}})
		rs, rbody, err := g.handoffRequest(ctx, toSh, http.MethodPost, "/v1/import", rel)
		if err != nil || rs != http.StatusOK {
			return nil, fmt.Errorf("import conflict and stale-copy release failed (status %d, err %v): %s", rs, err, rbody)
		}
	}
}

// importReply mirrors the shard's import/release response.
type importReply struct {
	Node      string `json:"node"`
	Hash      string `json:"hash"`
	Installed bool   `json:"installed"`
	Released  bool   `json:"released"`
}

// handoffRequest is the migration driver's HTTP primitive: per-attempt
// ShardTimeout, doubling backoff, retries on transport errors and
// retryable statuses (a shard answering 503 busy is mid-drain — exactly
// the transient the backoff absorbs). 409 is returned to the caller,
// never retried: it is a state conflict the protocol must resolve. The
// shard breaker is deliberately not involved — a migration must be able
// to talk to a shard the serving path has marked degraded.
func (g *Gateway) handoffRequest(ctx context.Context, sh *shard, method, path string, body []byte) (int, []byte, error) {
	backoff := g.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= g.cfg.Retries; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return 0, nil, ctx.Err()
			}
			backoff *= 2
		}
		actx, cancel := context.WithTimeout(ctx, g.cfg.ShardTimeout)
		req, err := http.NewRequestWithContext(actx, method, sh.base+path, bytes.NewReader(body))
		if err != nil {
			cancel()
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := sh.client.Do(req)
		if err != nil {
			cancel()
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) {
			lastErr = fmt.Errorf("status %d: %s", resp.StatusCode, data)
			continue
		}
		return resp.StatusCode, data, nil
	}
	return 0, nil, lastErr
}
