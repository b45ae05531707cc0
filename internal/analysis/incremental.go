// Incremental warm-start admission analysis.
//
// The admission server re-runs a schedulability test on every /v1/admit
// delta: one task added to (or removed from) a node's committed set. The
// cold path rebuilds every model, re-segments every plan, and iterates
// every RTA fixpoint from its base — O(full analysis) per single-task
// delta. IncrementalAnalyzer keeps three layers of warm state per node:
//
//  1. a term cache: per-task build products (segmentation plan, derated
//     ΣC/ΣL sums, inventory segC lists, pipelined/serial demand) keyed by
//     the task spec's canonical hash and the set size its segment budget
//     was computed for;
//  2. warm fixpoint starts: the previously converged WCRT of every
//     committed task, used as the starting point of its RTA fixpoint when
//     the delta leaves every task's segmentation unchanged — any addition
//     under the serial families (their segment budget ignores the set
//     size), but only committed-size evaluations under the prefetch
//     families, whose SegmentBudget divides the staging SRAM by n·depth
//     (see docs/ANALYSIS.md for the monotonicity argument; removals
//     restart cold from the C+L base);
//  3. an early-exit infeasibility screen (necessary utilization + demand
//     conditions) that rejects before any fixpoint runs.
//
// Verdicts are bit-identical to the cold EvaluateScenario below — pinned
// by FuzzIncrementalRTA — because both resolve the policy through the same
// dispatch (resolve), the warm path runs the *same* fixpoint loop
// (family.rta), and every extension is identity-preserving:
// cached demands are values of the same pure expressions, warm starts are
// guarded by cold replays (warmIterate), and the screen fires only where
// the fixpoint provably fails and is applied by both paths.
package analysis

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/metrics"
	"rtmdm/internal/scenario"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
)

// aInstruments holds the analysis metrics; the zero struct (nil counters)
// means "disabled" — metrics.Counter methods are nil-safe.
type aInstruments struct {
	warmHits         *metrics.Counter
	termsInvalidated *metrics.Counter
}

// ainstr is swapped atomically so Instrument may race with concurrent
// evaluations (one analyzer per server node) without a lock on the path.
var ainstr atomic.Pointer[aInstruments]

func init() { ainstr.Store(&aInstruments{}) }

// Instrument wires the incremental-analysis counters to the registry;
// Instrument(nil) disables them again. See docs/OBSERVABILITY.md for the
// metric catalogue.
func Instrument(r *metrics.Registry) {
	if r == nil {
		ainstr.Store(&aInstruments{})
		return
	}
	ainstr.Store(&aInstruments{
		warmHits:         r.Counter("analysis.warm_hits", "evaluations", "incremental admissions where at least one RTA fixpoint warm-started"),
		termsInvalidated: r.Counter("analysis.terms_invalidated", "entries", "cached per-task analysis terms dropped (LRU eviction or binding reset)"),
	})
}

// EvaluateScenario is the cold admission reference: build the scenario
// and run its policy's schedulability test, with the admission screen
// (necessary utilization, then per-task demand) in front of the FP
// fixpoint analyses. IncrementalAnalyzer.Evaluate produces bit-identical
// verdicts and errors (FuzzIncrementalRTA pins both); the server's admit
// path runs the analyzer, which falls back to this function when its warm
// state cannot apply.
func EvaluateScenario(ctx context.Context, sc *scenario.Scenario) (Verdict, error) {
	set, plat, pol, err := sc.Build()
	if err != nil {
		return Verdict{}, err
	}
	f, err := resolve(pol)
	if err != nil {
		return Verdict{}, err
	}
	if !f.screened() {
		return f.run(ctx, set, plat, nil), nil
	}
	if v := NecessaryUtilization(set, plat); !v.Schedulable {
		return v, nil
	}
	return f.run(ctx, set, plat, &admitOpts{screen: true}), nil
}

// EvalStats reports how one IncrementalAnalyzer evaluation was served.
type EvalStats struct {
	// Warm is true when at least one RTA fixpoint warm-started from a
	// previously converged bound (and the warm run survived its guards).
	Warm bool
	// WarmStarts counts the fixpoints that warm-started.
	WarmStarts int
	// TasksReused and TasksBuilt count candidate tasks served from the
	// term cache vs built (model + segmentation) from scratch.
	TasksReused, TasksBuilt int
	// Screened is true when a necessary-condition screen rejected the
	// candidate before any fixpoint ran.
	Screened bool
}

// entryKey identifies one term-cache entry: the canonical hash of the
// single-task scenario (spec + binding) plus the task count the segment
// budget was computed for — SegmentBudget divides the staging SRAM by the
// set size under prefetch policies, so a build is only reusable at the
// same n.
type entryKey struct {
	hash string
	n    int
}

// taskEntry is one cached task build plus the derived analysis terms.
// Everything in it is immutable after construction: evaluations copy tmpl
// (AssignRM mutates priorities) and the terms struct (attaching the
// per-evaluation task pointer); the segC slice inside tm is shared
// read-only.
type taskEntry struct {
	key  entryKey
	tmpl task.Task
	// tm is the task's analysis terms under the policy's test chunking,
	// with the t field cleared.
	tm terms
	// sumC0/sumL0 are the chunk-0 derated demand sums NecessaryUtilization
	// computes — the utilization screen's inputs.
	sumC0, sumL0 int64
	// demandSerial and demandTop are the per-job demand (the base term's
	// own-work component) at depth 1 and at the task's own prefetch depth.
	demandSerial, demandTop int64
}

// warmEntry is one task's committed warm state: its converged WCRT and
// the spec hash it was computed for (a changed spec invalidates the bound).
type warmEntry struct {
	wcrt sim.Duration
	spec string
}

// termCacheCapacity bounds the per-analyzer term cache. Entries are small
// (a segmentation plan plus derated sums); 1024 covers far more distinct
// (spec, set-size) pairs than one node's admission stream produces.
const termCacheCapacity = 1024

// IncrementalAnalyzer keeps warm schedulability-analysis state for one
// admission stream (one server node): a binding (platform/policy/horizon),
// a term cache, and the committed set's converged WCRTs. It is safe for
// concurrent use; evaluations of one analyzer serialize on its mutex.
type IncrementalAnalyzer struct {
	mu sync.Mutex

	// binding: the canonical platform/policy/horizon every cached entry
	// and warm bound was computed under. Any change resets all state
	// (the cold-path fallback).
	bound     bool
	platform  string
	policy    string
	horizonMs float64
	plat      cost.Platform
	pol       core.Policy
	// fam and famErr are the policy's resolved test; a resolution error is
	// reported where the cold path reports it, after provisioning.
	fam    family
	famErr error

	// term cache: deterministic LRU (front = most recently used).
	entries  map[entryKey]*list.Element
	order    *list.List
	capacity int

	// warmSet holds the committed set's converged bounds; lastHash and
	// lastWarm snapshot the most recent evaluation for Commit.
	warmSet  map[string]warmEntry
	lastHash string
	lastWarm map[string]warmEntry
}

// NewIncrementalAnalyzer returns an empty analyzer; it binds to the first
// scenario it evaluates.
func NewIncrementalAnalyzer() *IncrementalAnalyzer {
	return &IncrementalAnalyzer{
		entries:  make(map[entryKey]*list.Element),
		order:    list.New(),
		capacity: termCacheCapacity,
	}
}

// Reset drops all cached and warm state; the next Evaluate runs fully cold.
func (a *IncrementalAnalyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reset()
}

func (a *IncrementalAnalyzer) reset() {
	if n := len(a.entries); n > 0 {
		ainstr.Load().termsInvalidated.Add(int64(n))
	}
	a.entries = make(map[entryKey]*list.Element)
	a.order.Init()
	a.warmSet, a.lastHash, a.lastWarm = nil, "", nil
	a.bound = false
}

// bind resolves and pins the scenario's platform/policy/horizon binding.
// A binding change invalidates every cached term and warm bound: segment
// budgets, derated costs, and test family all depend on it.
func (a *IncrementalAnalyzer) bind(sc *scenario.Scenario) error {
	if a.bound && sc.Platform == a.platform && sc.Policy == a.policy && sc.HorizonMs == a.horizonMs {
		return nil
	}
	plat, pol, err := sc.Resolve()
	if err != nil {
		return err
	}
	a.reset()
	a.bound = true
	a.platform, a.policy, a.horizonMs = sc.Platform, sc.Policy, sc.HorizonMs
	a.plat, a.pol = plat, pol
	a.fam, a.famErr = resolve(pol)
	return nil
}

// taskSpecHash is the cache identity of one task spec under a binding:
// the canonical hash of the single-task scenario holding just this spec.
func taskSpecHash(platform, policy string, horizonMs float64, tsp scenario.TaskSpec) (string, error) {
	return scenario.CanonicalHash(&scenario.Scenario{
		Platform: platform, Policy: policy, HorizonMs: horizonMs,
		Tasks: []scenario.TaskSpec{tsp},
	})
}

// entry returns the cached build for a task spec, building and inserting
// on miss. ModelFile-backed specs are never cached: the file's content is
// outside the spec hash and may change between evaluations.
func (a *IncrementalAnalyzer) entry(tsp scenario.TaskSpec, hash string, n int, lim segment.Limits, st *EvalStats) (*taskEntry, error) {
	key := entryKey{hash: hash, n: n}
	if tsp.ModelFile == "" {
		if el, ok := a.entries[key]; ok {
			a.order.MoveToFront(el)
			st.TasksReused++
			return el.Value.(*taskEntry), nil
		}
	}
	tk, err := scenario.BuildTask(tsp, a.plat, lim)
	if err != nil {
		return nil, err
	}
	ent := a.newEntry(tk)
	ent.key = key
	st.TasksBuilt++
	if tsp.ModelFile == "" {
		a.entries[key] = a.order.PushFront(ent)
		for a.order.Len() > a.capacity {
			el := a.order.Back()
			a.order.Remove(el)
			delete(a.entries, el.Value.(*taskEntry).key)
			ainstr.Load().termsInvalidated.Inc()
		}
	}
	return ent, nil
}

// newEntry precomputes everything the admission analyses need from one
// built task: analysis terms under the family's test chunking, the
// chunk-0 sums the utilization screen uses, and the per-job demand at
// depth 1 and at the task's own prefetch depth. All are values of the
// same pure expressions the cold path computes per evaluation.
func (a *IncrementalAnalyzer) newEntry(tk *task.Task) *taskEntry {
	ts := mkTerms(task.NewSet(tk), a.plat, a.fam.chunk)
	tm := ts[0]
	tm.t = nil
	t0 := tm
	if a.fam.chunk != 0 {
		t0 = mkTerms(task.NewSet(tk), a.plat, 0)[0]
	}
	ent := &taskEntry{tmpl: *tk, tm: tm, sumC0: t0.sumC, sumL0: t0.sumL}
	ent.demandSerial = a.fam.ownDemand(ts, 0, 1, a.plat, nil)
	ent.demandTop = ent.demandSerial
	if d := a.pol.DepthFor(tk.Name); a.pol.PrefetchAcrossJobs && d != 1 {
		ent.demandTop = a.fam.ownDemand(ts, 0, d, a.plat, nil)
	}
	return ent
}

// warmStart returns the warm fixpoint hook when the committed warm state
// applies to the candidate: every committed task must appear in the
// candidate with an unchanged spec, and the candidate's segmentation must
// be the one the bounds were computed under. The serial families segment
// against a budget that ignores the set size, so any addition on top of
// the committed set is covered by the monotonicity argument
// (docs/ANALYSIS.md §9). The prefetch families divide the staging SRAM
// by n·depth: a candidate at a different size re-segments every task,
// blocking and demand terms can shrink, and the old bounds could start
// the iteration above the new least fixpoint — where convergence lands
// on a non-least fixpoint that no runtime guard detects. Those policies
// therefore warm only at the committed size (re-evaluations of the
// committed set itself); a size change, removal, or spec change returns
// nil and the fixpoints run cold from their C+L bases.
func (a *IncrementalAnalyzer) warmStart(sc *scenario.Scenario, hashes []string) *warmState {
	if len(a.warmSet) == 0 {
		return nil
	}
	if a.pol.PrefetchAcrossJobs && len(sc.Tasks) != len(a.warmSet) {
		return nil
	}
	cand := make(map[string]string, len(sc.Tasks))
	for i := range sc.Tasks {
		cand[sc.Tasks[i].Name] = hashes[i]
	}
	for name, w := range a.warmSet {
		if cand[name] != w.spec {
			return nil
		}
	}
	ws := a.warmSet
	return &warmState{start: func(name string) (int64, bool) {
		w, ok := ws[name]
		return int64(w.wcrt), ok
	}}
}

// record snapshots the evaluation for Commit: the candidate's canonical
// hash and — when the verdict is schedulable with full WCRT coverage —
// the per-task bounds that become the warm state if the candidate is
// committed.
func (a *IncrementalAnalyzer) record(sc *scenario.Scenario, clones []*task.Task, hashes []string, v Verdict) {
	h, err := scenario.CanonicalHash(sc)
	if err != nil {
		a.lastHash, a.lastWarm = "", nil
		return
	}
	a.lastHash, a.lastWarm = h, nil
	if !v.Schedulable || v.WCRT == nil {
		return
	}
	lw := make(map[string]warmEntry, len(clones))
	for i, c := range clones {
		r, ok := v.WCRT[c.Name]
		if !ok {
			return
		}
		lw[c.Name] = warmEntry{wcrt: r, spec: hashes[i]}
	}
	a.lastWarm = lw
}

// Commit installs the warm state of the last Evaluate whose candidate
// equals sc (by canonical hash) — the server calls it when an admission
// commits a new task set. Any other scenario, including every removal,
// clears the warm state: removals shrink interference, so old bounds
// could overshoot the new least fixpoints and are discarded (the next
// evaluation restarts from the C+L bases).
func (a *IncrementalAnalyzer) Commit(sc *scenario.Scenario) {
	a.mu.Lock()
	defer a.mu.Unlock()
	h, err := scenario.CanonicalHash(sc)
	if err != nil || h != a.lastHash || a.lastWarm == nil {
		a.warmSet = nil
		return
	}
	a.warmSet = a.lastWarm
}

// Evaluate runs the admission analysis for a candidate scenario, reusing
// the analyzer's warm state. Verdicts and errors are bit-identical to
// EvaluateScenario on the same input. Evaluate does not change the
// committed warm state — call Commit once the candidate is accepted.
func (a *IncrementalAnalyzer) Evaluate(ctx context.Context, sc *scenario.Scenario) (Verdict, EvalStats, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var st EvalStats

	sc = sc.Canonicalize()
	if sc.Faults != nil {
		// Fault stanzas rewrite the policy's overrun handling and never
		// appear on the admission path; evaluate cold.
		v, err := EvaluateScenario(ctx, sc)
		return v, st, err
	}
	if err := sc.ValidateNumbers(); err != nil {
		return Verdict{}, st, err
	}
	if err := a.bind(sc); err != nil {
		return Verdict{}, st, err
	}

	// Assemble the candidate set from cached builds, replicating Build's
	// error order exactly: per-task build errors in spec order, then the
	// pinned-mix check, then set validation, then provisioning.
	n := len(sc.Tasks)
	lim := a.pol.Limits(a.plat, n)
	clones := make([]*task.Task, n)
	ents := make([]*taskEntry, n)
	hashes := make([]string, n)
	pinned := 0
	for i := range sc.Tasks {
		tsp := sc.Tasks[i]
		h, err := taskSpecHash(a.platform, a.policy, a.horizonMs, tsp)
		if err != nil {
			return Verdict{}, st, err
		}
		hashes[i] = h
		ent, err := a.entry(tsp, h, n, lim, &st)
		if err != nil {
			return Verdict{}, st, err
		}
		ents[i] = ent
		c := ent.tmpl
		clones[i] = &c
		if tsp.Priority != nil {
			pinned++
		}
	}
	if pinned != 0 && pinned != n {
		return Verdict{}, st, fmt.Errorf("scenario: %d of %d tasks pin priorities; pin all or none", pinned, n)
	}
	set := task.NewSet(clones...)
	if pinned == 0 {
		set.AssignRM()
	}
	if err := set.Validate(); err != nil {
		return Verdict{}, st, err
	}
	if err := core.Provision(set, a.plat, a.pol); err != nil {
		return Verdict{}, st, err
	}

	if a.famErr != nil {
		return Verdict{}, st, a.famErr
	}
	if !a.fam.screened() {
		// EDF and the FIFO ablation: no warm fixpoints to reuse beyond the
		// cached builds; run the policy's test as the cold path does.
		v := a.fam.run(ctx, set, a.plat, nil)
		a.record(sc, nil, nil, Verdict{})
		return v, st, nil
	}

	// Necessary-utilization screen, mirroring NecessaryUtilization bit for
	// bit: the same float expression over the same chunk-0 sums in the
	// same (canonical spec) order.
	var uc, ul float64
	for i := range clones {
		uc += float64(ents[i].sumC0) / float64(clones[i].Period) //lint:allow millitime -- utilization ratio; dimensionless by construction
		ul += float64(ents[i].sumL0) / float64(clones[i].Period) //lint:allow millitime -- utilization ratio; dimensionless by construction
	}
	if !(uc <= 1.0 && ul <= 1.0) {
		st.Screened = true
		a.record(sc, nil, nil, Verdict{})
		return Verdict{Test: "necessary-utilization",
			Reason: fmt.Sprintf("U_cpu=%.3f U_dma=%.3f", uc, ul)}, st, nil
	}

	// Priority-ordered terms from the cache, with per-evaluation task
	// pointers attached (the terms structs are copies; segC is shared
	// read-only).
	byPrio := set.ByPriority()
	idx := make(map[string]int, n)
	for i, c := range clones {
		idx[c.Name] = i
	}
	ts := make([]terms, n)
	dSerial := make([]int64, n)
	dTop := make([]int64, n)
	for j, t := range byPrio {
		i := idx[t.Name]
		tm := ents[i].tm
		tm.t = t
		ts[j] = tm
		dSerial[j] = ents[i].demandSerial
		dTop[j] = ents[i].demandTop
	}

	opt := &admitOpts{screen: true, warm: a.warmStart(sc, hashes),
		demandFor: func(i, depth int) int64 {
			if depth == 1 {
				return dSerial[i]
			}
			return dTop[i]
		}}
	v := a.fam.rta(ctx, ts, a.plat, opt)

	if opt.warm != nil && opt.warm.warmStarts > 0 {
		st.Warm = true
		st.WarmStarts = opt.warm.warmStarts
		ainstr.Load().warmHits.Inc()
	}
	if v.Test == "necessary-demand" {
		st.Screened = true
	}
	a.record(sc, clones, hashes, v)
	return v, st, nil
}
