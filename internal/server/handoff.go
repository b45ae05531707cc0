package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"rtmdm/internal/analysis"
	"rtmdm/internal/cluster"
	"rtmdm/internal/scenario"
)

// This file is the shard side of live resharding (docs/CLUSTER.md):
// node-granular state transfer over GET /v1/export and POST /v1/import,
// reusing the sealed snapshot codec so every byte that moves between
// shards carries the scenario.CanonicalHash integrity chain. Both
// operations are idempotent — the gateway retries them through lossy
// transports — and release is hash-guarded so a stale or duplicated
// release can never delete state that has since diverged.

// errNodeUnknown maps to 404: the shard holds no state for the node.
var errNodeUnknown = errors.New("server: node has no admission state here")

// errHandoffConflict maps to 409: the shard holds state for the node
// that contradicts the request (different hash). The gateway treats 409
// as "resolve before retrying", not as a transient failure.
var errHandoffConflict = errors.New("server: handoff conflict")

// errNodeBusy maps to 503 + Retry-After: the node has decisions pending
// or a drain loop still live — a transient condition (the gateway
// waits out the node's in-flight admits before transferring, so
// retrying shortly succeeds).
var errNodeBusy = errors.New("server: node busy")

// handleExport serves one node's committed admission state as a sealed
// single-node snapshot. 404 for nodes this shard holds no state for —
// during a migration the gateway uses that to distinguish "nothing to
// move" from "source unreachable".
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("node")
	if name == "" {
		cluster.WriteError(w, http.StatusBadRequest, "node query parameter must be set")
		return
	}
	snap, err := s.adm.exportNode(s.cfg.ShardLabel, name)
	if errors.Is(err, errNodeUnknown) {
		cluster.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	if err != nil {
		cluster.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	cluster.RecordHandoffExport()
	w.Header().Set("Content-Type", "application/json")
	snap.Encode(w)
}

// importRequest is the /v1/import wire shape. Exactly one of the two
// operations is present: a sealed single-node snapshot installs state; a
// release record deletes it after the new owner has verified its copy.
type importRequest struct {
	Release *releaseRequest `json:"release,omitempty"`
}

type releaseRequest struct {
	Node string `json:"node"`
	Hash string `json:"hash"`
}

// importResponse reports what happened. Hash echoes the installed
// state's CanonicalHash so the migration driver verifies the transfer
// end-to-end; Installed/Released are false on the idempotent no-op
// paths (state already present / already gone) so retries are safe to
// repeat blindly.
type importResponse struct {
	Node      string `json:"node"`
	Hash      string `json:"hash,omitempty"`
	Installed bool   `json:"installed,omitempty"`
	Released  bool   `json:"released,omitempty"`
}

// handleImport installs or releases one node's state. Install bodies
// are full sealed snapshots (decoded with the same all-or-nothing
// verification as boot-time restore); release bodies are
// {"release":{"node":...,"hash":...}}.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		cluster.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	var probe importRequest
	if jerr := json.Unmarshal(body, &probe); jerr == nil && probe.Release != nil {
		s.handleRelease(w, probe.Release)
		return
	}

	snap, err := cluster.DecodeSnapshot(bytes.NewReader(body))
	if err != nil {
		cluster.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	installed, resp, err := s.adm.importNode(snap)
	if err != nil {
		writeHandoffError(w, err)
		return
	}
	cluster.RecordHandoffImport()
	cluster.WriteJSON(w, http.StatusOK, importResponse{Node: resp.Node, Hash: resp.Hash, Installed: installed})
}

func (s *Server) handleRelease(w http.ResponseWriter, rel *releaseRequest) {
	if rel.Node == "" || rel.Hash == "" {
		cluster.WriteError(w, http.StatusBadRequest, "release needs node and hash")
		return
	}
	released, err := s.adm.releaseNode(rel.Node, rel.Hash)
	if err != nil {
		writeHandoffError(w, err)
		return
	}
	cluster.RecordHandoffRelease()
	cluster.WriteJSON(w, http.StatusOK, importResponse{Node: rel.Node, Hash: rel.Hash, Released: released})
}

// writeHandoffError maps the handoff sentinels onto their statuses:
// busy → 503 (transient, retry), conflict → 409 (permanent, resolve),
// anything else → 400.
func writeHandoffError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errNodeBusy):
		w.Header().Set("Retry-After", "1")
		cluster.WriteError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, errHandoffConflict):
		cluster.RecordHandoffConflict()
		cluster.WriteError(w, http.StatusConflict, err.Error())
	default:
		cluster.WriteError(w, http.StatusBadRequest, err.Error())
	}
}

// stateHash computes the node's committed-scenario CanonicalHash — the
// same value a NodeState record for this node would carry. Callers hold
// n.mu.
func (n *node) stateHash() (string, error) {
	return scenario.CanonicalHash(&scenario.Scenario{
		Platform:  n.platform,
		Policy:    n.policy,
		HorizonMs: n.horizonMs,
		Tasks:     append([]scenario.TaskSpec(nil), n.committed...),
	})
}

// exportNode seals one node's committed state into a single-node
// snapshot. Unbound nodes (created by requests that never decided)
// export as unknown — they carry no state worth moving.
func (a *admitter) exportNode(label, name string) (*cluster.Snapshot, error) {
	a.mu.Lock()
	n, ok := a.nodes[name]
	a.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", errNodeUnknown, name)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.bound {
		return nil, fmt.Errorf("%w: %q", errNodeUnknown, name)
	}
	return cluster.NewSnapshot(label, []cluster.NodeState{{
		Node:      name,
		Platform:  n.platform,
		Policy:    n.policy,
		HorizonMs: n.horizonMs,
		Tasks:     append([]scenario.TaskSpec(nil), n.committed...),
	}})
}

// importNode installs a verified single-node snapshot, warming the
// node's incremental analyzer exactly like boot-time restore. Idempotent
// by hash: importing state the shard already holds succeeds without
// touching it (installed=false); importing over *different* state is a
// conflict; importing over a node with decisions in flight is a
// conflict (the migration driver waits out the node's in-flight admits
// before transferring, so a busy node means the request is stale or
// misrouted).
func (a *admitter) importNode(snap *cluster.Snapshot) (installed bool, ns *cluster.NodeState, err error) {
	if len(snap.Nodes) != 1 {
		return false, nil, fmt.Errorf("server: import wants exactly one node, got %d", len(snap.Nodes))
	}
	ns = &snap.Nodes[0]
	fresh := &node{
		platform:  ns.Platform,
		policy:    ns.Policy,
		horizonMs: ns.HorizonMs,
		bound:     true,
		committed: append([]scenario.TaskSpec(nil), ns.Tasks...),
	}
	if len(ns.Tasks) > 0 && a.eval == nil {
		sc := ns.Scenario().Canonicalize()
		fresh.inc = analysis.NewIncrementalAnalyzer()
		v, _, verr := fresh.inc.Evaluate(a.base, sc)
		if verr != nil {
			return false, nil, fmt.Errorf("server: import node %q: %w", ns.Node, verr)
		}
		if !v.Schedulable {
			return false, nil, fmt.Errorf("server: import node %q: committed set not schedulable here (%s: %s)",
				ns.Node, v.Test, v.Reason)
		}
		fresh.inc.Commit(sc)
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if existing, ok := a.nodes[ns.Node]; ok {
		existing.mu.Lock()
		defer existing.mu.Unlock()
		if len(existing.pending) > 0 || existing.draining {
			return false, nil, fmt.Errorf("%w: node %q has decisions in flight", errNodeBusy, ns.Node)
		}
		if existing.bound || len(existing.committed) > 0 {
			curHash, herr := existing.stateHash()
			if herr != nil {
				return false, nil, herr
			}
			if curHash == ns.Hash {
				return false, ns, nil
			}
			return false, nil, fmt.Errorf("%w: node %q holds different state (have %.12s…, import %.12s…)",
				errHandoffConflict, ns.Node, curHash, ns.Hash)
		}
		// A clean placeholder (request created the entry but never bound
		// it) is safe to replace.
		existing.gone = true
	}
	a.nodes[ns.Node] = fresh
	return true, ns, nil
}

// releaseNode deletes a node's state after handoff, guarded by the hash
// the releasing party verified: a mismatch means the state here has
// changed since the export and must not be deleted. Releasing an absent
// node is the idempotent no-op (released=false) so a retried release is
// safe.
func (a *admitter) releaseNode(name, hash string) (released bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, ok := a.nodes[name]
	if !ok {
		return false, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.pending) > 0 || n.draining {
		return false, fmt.Errorf("%w: node %q has decisions in flight", errNodeBusy, name)
	}
	if !n.bound && len(n.committed) == 0 {
		// An unbound placeholder carries no state; drop it.
		n.gone = true
		delete(a.nodes, name)
		return false, nil
	}
	h, err := n.stateHash()
	if err != nil {
		return false, err
	}
	if h != hash {
		return false, fmt.Errorf("%w: node %q hash mismatch (have %.12s…, release says %.12s…)",
			errHandoffConflict, name, h, hash)
	}
	n.gone = true
	delete(a.nodes, name)
	return true, nil
}
