// Package analysis provides the offline schedulability tests of the RT-MDM
// framework: response-time analyses (RTA) for the fixed-priority policies
// (RT-MDM pipelined, serial segment-preemptive, whole-job non-preemptive),
// a processor-demand test for the EDF variants, utilization-based necessary
// tests, and Audsley's optimal priority assignment on top of any of the
// FP tests.
//
// # Model and soundness
//
// The executor (internal/exec) is a two-resource limited-preemptive system:
// segment computes are non-preemptive CPU regions and parameter transfers
// are non-preemptive DMA regions; a job self-suspends whenever its next
// segment is not yet staged. The analyses here make conservative choices at
// every known pitfall of that model:
//
//   - Self-suspension: higher-priority interference carries a release
//     jitter J_h = R_h (its full response bound — an upper bound on
//     R_h − BCET_h), which soundly covers back-to-back interference
//     bursts from suspending tasks without needing best-case execution
//     times.
//   - Blocking: the executor's priority-gated DMA issuing means a job
//     waits for at most one in-flight lower-priority transfer over its
//     lifetime (DMA blocking once), and lower-priority tasks cannot stage
//     new segments while a more urgent job has loads remaining — so the
//     total lower-priority CPU blocking is bounded by the lower tasks'
//     staged *inventory* at release (at most Depth segments per lower
//     task) and, independently, by one non-preemptive overhang per stall.
//     The analyses charge min(stalls·maxSegC, Σ inventory) as a lump sum;
//     injecting total delay D into a chain's load stages shifts its
//     makespan by at most D, so the lump-sum charge is sound.
//   - Bus contention: every CPU and DMA term is derated by the platform's
//     worst-case contention factors, as if the other party were always on
//     the bus.
//   - Two-resource interference: a higher-priority job charges its full
//     CPU plus DMA demand (ΣC+ΣL); either can sit on the analyzed job's
//     critical path.
//
// Property test PT-7 (analysis_sound_test.go) checks every verdict against
// synchronous-release simulation: no set deemed schedulable may ever miss.
package analysis

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
)

// cancelPollInterval is how many loop iterations (busy-period checkpoints,
// fixpoint rounds) the analyses run between context polls. Polling is
// amortized so a completed analysis is bit-identical with or without a
// deadline on the context.
const cancelPollInterval = 256

// canceled polls ctx without allocating; it is the guard the long
// analysis loops check every cancelPollInterval iterations.
//
//rtmdm:hotpath
func canceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// canceledVerdict is the uniform outcome of an aborted analysis: never
// schedulable, with the context's error as the reason.
func canceledVerdict(name string, ctx context.Context) Verdict {
	return Verdict{Test: name, Reason: "canceled: " + ctx.Err().Error()}
}

// Verdict is the outcome of one schedulability test on one task set.
type Verdict struct {
	// Test names the analysis that produced the verdict.
	Test string
	// Schedulable is the offline guarantee.
	Schedulable bool
	// WCRT maps task name → response-time upper bound. Tasks whose bound
	// exceeded their deadline (or diverged) carry the value that first
	// crossed the deadline; only present for RTA-based tests.
	WCRT map[string]sim.Duration
	// Reason explains a negative verdict.
	Reason string
}

const maxIterations = 4096

// derate returns the worst-case contention-scaled value ceil(v·den/num).
func derate(v, num, den int64) int64 {
	if num == den {
		return v
	}
	return (v*den + num - 1) / num
}

// terms precomputes per-task quantities under a platform's contention.
type terms struct {
	t *task.Task
	// sumC and sumL are the total CPU and DMA demand of one job, derated.
	sumC, sumL int64
	// maxSegC and maxSegL are the largest non-preemptive regions, derated.
	maxSegC, maxSegL int64
	// segs is the number of segments; loads counts real (non-zero)
	// parameter transfers.
	segs, loads int
	// segC holds the derated per-segment compute times, ascending.
	segC []int64
}

// mkTerms precomputes per-task terms; chunkBytes > 0 accounts for
// limited-preemption DMA (chunked transfers): per-segment load times pay a
// setup per chunk, and the non-preemptive DMA region shrinks to one chunk.
func mkTerms(s *task.Set, plat cost.Platform, chunkBytes int64) []terms {
	// Context switches are CPU work: charge one (derated) switch per
	// segment everywhere — an upper bound on the executor, which pays
	// only on actual job changes.
	sw := derate(plat.CPU.SwitchNs, plat.Bus.CPUNum, plat.Bus.CPUDen)
	out := make([]terms, len(s.Tasks))
	var nseg int
	for _, t := range s.Tasks {
		nseg += len(t.Plan.Segments)
	}
	segC := make([]int64, nseg) // one backing array for every task's segC
	for i, t := range s.Tasks {
		pl := t.Plan.Chunked(chunkBytes)
		n := len(pl.Segments)
		tm := terms{
			t:       t,
			sumC:    derate(pl.TotalComputeNs(), plat.Bus.CPUNum, plat.Bus.CPUDen) + sw*int64(n),
			sumL:    derate(pl.TotalLoadNs(), plat.Bus.DMANum, plat.Bus.DMADen),
			maxSegC: derate(pl.MaxComputeNs(), plat.Bus.CPUNum, plat.Bus.CPUDen) + sw,
			maxSegL: derate(t.Plan.MaxChunkNs(chunkBytes), plat.Bus.DMANum, plat.Bus.DMADen),
			segs:    n,
			segC:    segC[:n:n],
		}
		segC = segC[n:]
		for k, seg := range pl.Segments {
			tm.segC[k] = derate(seg.ComputeNs, plat.Bus.CPUNum, plat.Bus.CPUDen) + sw
			if seg.LoadNs > 0 {
				tm.loads++
			}
		}
		slices.Sort(tm.segC)
		out[i] = tm
	}
	return out
}

// switchCost returns the derated per-segment context-switch charge.
func switchCost(plat cost.Platform) int64 {
	return derate(plat.CPU.SwitchNs, plat.Bus.CPUNum, plat.Bus.CPUDen)
}

// inventoryC bounds the staged-but-uncomputed CPU work a task can hold
// when a more urgent job releases: its `depth` largest segments.
func (tm *terms) inventoryC(depth int) int64 {
	n := len(tm.segC)
	var sum int64
	for _, c := range tm.segC[min(n, max(0, n-depth)):] {
		sum += c
	}
	return sum
}

// cpuBlocking bounds the total lower-priority CPU blocking of task i:
// one overhang per stall (stalls ≤ real loads, with a floor of one for the
// release instant) and, independently, the lower tasks' total staged
// inventory — each lower task holding at most depthAt(k) segments (its own
// prefetch window, which may differ per task under heterogeneous depths).
func cpuBlocking(ts []terms, i int, depthAt func(int) int) int64 {
	blkC, _ := lowerMax(ts, i)
	stalls := int64(ts[i].loads)
	if stalls < 1 {
		stalls = 1
	}
	perStall := stalls * blkC
	var inv int64
	for k := i + 1; k < len(ts); k++ {
		inv += ts[k].inventoryC(depthAt(k))
	}
	if inv < perStall {
		return inv
	}
	return perStall
}

// uniformDepth adapts a constant buffer depth to cpuBlocking's shape.
func uniformDepth(d int) func(int) int { return func(int) int { return d } }

// rtaIterate solves R = base + Σ_h ceil((R+J_h)/T_h)·I_h by fixpoint
// iteration, returning (R, true) on convergence within the deadline and
// (lastR, false) otherwise.
func rtaIterate(base int64, deadline sim.Duration, hp []hpTerm) (sim.Duration, bool) {
	return rtaIterateFrom(base, base, deadline, hp)
}

// rtaIterateFrom is rtaIterate with an explicit starting point. Cold
// callers pass start == base; the incremental analyzer passes a previous
// converged bound (see incremental.go for the monotonicity argument that
// makes any start in [base, lfp] land on the same least fixpoint).
//
//rtmdm:hotpath
func rtaIterateFrom(start, base int64, deadline sim.Duration, hp []hpTerm) (sim.Duration, bool) {
	r := start
	for iter := 0; iter < maxIterations; iter++ {
		var interf int64
		for _, h := range hp {
			n := (r + h.jitter + int64(h.period) - 1) / int64(h.period)
			if n < 0 {
				n = 0
			}
			interf += n * h.demand
		}
		next := base + interf
		if next == r {
			return sim.Duration(r), sim.Duration(r) <= deadline
		}
		r = next
		if sim.Duration(r) > deadline {
			return sim.Duration(r), false
		}
	}
	return sim.Duration(r), false
}

// coldIterations bounds the iteration count rtaIterate(base, …) needs to
// reach the converged value r: the fixpoint sequence from base is
// strictly increasing, each non-final step bumps at least one
// higher-priority arrival count, and detecting convergence costs two
// more rounds — so 2 + Σ_h (n_h(r) − n_h(base)) iterations suffice. The
// warm path uses it to prove the cold run would NOT have hit the
// maxIterations cap before trusting a warm-started convergence.
//
//rtmdm:hotpath
func coldIterations(r, base int64, hp []hpTerm) int {
	// Accumulate in int64, clamped at maxIterations: nanosecond-scale
	// periods under large response bounds make n_h(r) − n_h(base) reach
	// ~1e18, which a conversion to a 32-bit int would wrap negative —
	// letting the warm path trust a convergence the cold run would have
	// reported as an iteration-budget failure.
	iters := int64(2)
	for _, h := range hp {
		nr := (r + h.jitter + int64(h.period) - 1) / int64(h.period)
		nb := (base + h.jitter + int64(h.period) - 1) / int64(h.period)
		if nr < 0 {
			nr = 0
		}
		if nb < 0 {
			nb = 0
		}
		d := nr - nb
		if d >= maxIterations {
			return maxIterations
		}
		iters += d
		if iters >= maxIterations {
			return maxIterations
		}
	}
	return int(iters)
}

// admitOpts carries the admission-path extensions threaded through the
// FP analyses. nil (every cold caller) is the plain analysis; the
// admission paths enable the necessary-condition screen, and the
// incremental analyzer additionally supplies cached demands and warm
// fixpoint starts. All three extensions preserve bit-identical verdicts:
// the screen only fires where the fixpoint provably fails (and is
// applied by cold and warm admission paths alike), cached demands are
// values of the same pure computation, and warm starts are guarded by
// cold replays (see warmIterate).
type admitOpts struct {
	// screen enables the pre-fixpoint demand screen: any task whose base
	// (blocking + own demand) already exceeds its deadline yields a
	// necessary-demand verdict before any fixpoint runs.
	screen bool
	// demandFor overrides the per-task own-demand computation with cached
	// values; nil computes from the plan. The index is the task's
	// priority-order position; depth is the pipeline depth the analysis
	// would have used.
	demandFor func(i, depth int) int64
	// warm supplies previous converged bounds as fixpoint starts.
	warm *warmState
}

// warmState is the fixpoint warm-start hook of an IncrementalAnalyzer
// evaluation: start returns the previously converged WCRT for a task
// name, and warmStarts counts the fixpoints that actually used one.
type warmState struct {
	start      func(name string) (int64, bool)
	warmStarts int
}

// warmIterate is the guarded warm-start wrapper around the RTA fixpoint:
// it starts from the previous converged bound when one is available and
// sound to use, and replays the cold iteration whenever the warm run
// cannot be proven bit-identical — on non-convergence (the cold run's
// deadline-crossing VALUE differs from the warm run's) and when the cold
// iteration count could have hit the maxIterations cap (where cold
// reports failure at a value warm convergence would mask).
//
//rtmdm:hotpath
func warmIterate(base int64, deadline sim.Duration, hp []hpTerm, name string, opt *admitOpts) (sim.Duration, bool) {
	if opt == nil || opt.warm == nil {
		return rtaIterate(base, deadline, hp)
	}
	start, ok := opt.warm.start(name)
	if !ok || start <= base || sim.Duration(start) > deadline {
		return rtaIterate(base, deadline, hp)
	}
	r, converged := rtaIterateFrom(start, base, deadline, hp)
	if !converged || coldIterations(int64(r), base, hp) >= maxIterations {
		return rtaIterate(base, deadline, hp)
	}
	opt.warm.warmStarts++
	return r, true
}

// demandScreenVerdict is the uniform outcome of the pre-fixpoint demand
// screen: task t's blocking plus own demand already exceeds its deadline,
// a necessary condition for the FP-RTA verdict to fail (the fixpoint
// starts at base and never decreases), so rejecting here cannot change an
// admission decision — only the Test/Reason strings of the rejection.
func demandScreenVerdict(t *task.Task, base int64) Verdict {
	return Verdict{Test: "necessary-demand",
		Reason: fmt.Sprintf("task %s: base demand %v > D %v", t.Name, sim.Duration(base), t.Deadline)}
}

type hpTerm struct {
	period sim.Duration
	demand int64
	jitter int64
}

// lowerMax returns the largest np CPU region and np DMA region among tasks
// with lower priority than index i (in the byPriority order).
func lowerMax(ts []terms, i int) (maxC, maxL int64) {
	for k := i + 1; k < len(ts); k++ {
		if ts[k].maxSegC > maxC {
			maxC = ts[k].maxSegC
		}
		if ts[k].maxSegL > maxL {
			maxL = ts[k].maxSegL
		}
	}
	return maxC, maxL
}

// RTMDMRTA is the response-time analysis for the RT-MDM policy (segment
// preemptive, prefetch depth ≥ 2, priority DMA arbitration).
//
// Per-job demand is position-dependent — the pipelined makespan for the
// highest-priority task (the gate is always its whenever it has loads
// remaining, so its overlap is never broken), the serial chain for every
// other task (a more urgent job's remaining DMA demand freezes this
// task's staging even while this task computes, so interference can
// expose all of its hidden loads) — plus the lump-sum lower-priority CPU
// blocking (inventory-bounded) plus one lower-priority in-flight DMA
// region (the gated-DMA guarantee).
//
// Higher-priority interference charges ΣC + ΣL per job with release
// jitter R_h; this is sound against single-path (serial or top-pipe)
// demand because each no-progress wall-clock second is charged exactly
// once. Two earlier bounds that credited pipelined overlap to non-top
// tasks were falsified by the multi-thousand-trial executor stress; see
// docs/ANALYSIS.md §4 for the full argument.
func RTMDMRTA(s *task.Set, plat cost.Platform, depth int) Verdict {
	return rtmdmRTA(s, plat, depth, 0, false)
}

// RTMDMRTAChunked analyzes RT-MDM with limited-preemption (chunked) DMA.
func RTMDMRTAChunked(s *task.Set, plat cost.Platform, depth int, chunkBytes int64) Verdict {
	return rtmdmRTA(s, plat, depth, chunkBytes, false)
}

func rtmdmRTA(s *task.Set, plat cost.Platform, depth int, chunkBytes int64, constJitter bool) Verdict {
	return rtmdmRTADepths(context.Background(), s, plat, fmt.Sprintf("rta-rtmdm-d%d", depth),
		func(*task.Task) int { return depth }, chunkBytes, constJitter)
}

// RTMDMRTADepths analyzes RT-MDM with heterogeneous per-task prefetch
// windows: depthFor returns each task's buffer depth. All blocking and
// demand terms use the owning task's own depth — a lower task's staged
// inventory is bounded by ITS window, and the top task's pipelined demand
// by its own look-ahead — so every soundness argument of the uniform
// analysis carries over verbatim.
func RTMDMRTADepths(s *task.Set, plat cost.Platform, depthFor func(*task.Task) int) Verdict {
	return rtmdmRTADepths(context.Background(), s, plat, "rta-rtmdm-het", depthFor, 0, false)
}

func rtmdmRTADepths(ctx context.Context, s *task.Set, plat cost.Platform, name string, depthFor func(*task.Task) int, chunkBytes int64, constJitter bool) Verdict {
	if err := s.Validate(); err != nil {
		return Verdict{Test: name, Reason: err.Error()}
	}
	ts := mkTerms(task.NewSet(s.ByPriority()...), plat, chunkBytes)
	return rtmdmRTATerms(ctx, ts, plat, name, depthFor, chunkBytes, constJitter, nil)
}

// rtmdmRTATerms is the RT-MDM RTA over precomputed priority-ordered
// terms. Both the cold analysis (rtmdmRTADepths, fresh terms) and the
// incremental admission path (cache-assembled terms, admitOpts) run this
// same loop, so the two can only differ through opt — and every opt
// extension is bit-identity preserving (see admitOpts).
func rtmdmRTATerms(ctx context.Context, ts []terms, plat cost.Platform, name string, depthFor func(*task.Task) int, chunkBytes int64, constJitter bool, opt *admitOpts) Verdict {
	v := Verdict{Test: name, Schedulable: true, WCRT: map[string]sim.Duration{}}

	// Per-task bases are pure in the terms (no fixpoint feedback), so they
	// are computed up front — which is what lets the admission screen
	// reject before any fixpoint runs.
	bases := make([]int64, len(ts))
	for i := range ts {
		if canceled(ctx) {
			return canceledVerdict(name, ctx)
		}
		blk := cpuBlocking(ts, i, func(k int) int { return depthFor(ts[k].t) })
		_, blkL := lowerMax(ts, i)
		d := depthFor(ts[i].t)
		if i > 0 {
			d = 1 // serial chain for non-top tasks
		}
		var demand int64
		if opt != nil && opt.demandFor != nil {
			demand = opt.demandFor(i, d)
		} else {
			pl := ts[i].t.Plan.Chunked(chunkBytes)
			demand = pl.PipelineNsWith(d, 0, switchCost(plat),
				plat.Bus.DMADen, plat.Bus.DMANum, plat.Bus.CPUDen, plat.Bus.CPUNum)
		}
		bases[i] = blk + blkL + demand
	}
	if opt != nil && opt.screen {
		for i := range ts {
			if bases[i] > int64(ts[i].t.Deadline) {
				return demandScreenVerdict(ts[i].t, bases[i])
			}
		}
	}

	// Per-job demand is position-dependent:
	//  - the HIGHEST-priority task uses its pipelined makespan: the gate
	//    is always its whenever it has loads remaining, so its overlap is
	//    never broken by anyone (only bounded lower-priority blocking);
	//  - every other task uses its SERIAL chain: while any more urgent
	//    job has loads remaining, the gate freezes this task's staging,
	//    so its own computes no longer hide its own loads — interference
	//    can stretch its critical path up to the serial length. The
	//    serial chain is single-path, so each wall-clock no-progress
	//    second is charged once: it is higher-priority CPU time, higher-
	//    priority DMA time, gate-idle under a higher-priority compute
	//    (also ΣC_h), or bounded lower-priority blocking. Interference is
	//    therefore ΣC_h + ΣL_h with release jitter R_h.
	//
	// An earlier version charged pipe + 2·ΣC_h everywhere; the 1000-trial
	// soundness stress falsified it (a full higher-priority window can
	// freeze this task's loads while this task itself computes, exposing
	// its hidden loads beyond any per-hp-job charge).
	var hps []hpTerm
	for i := range ts {
		if canceled(ctx) {
			return canceledVerdict(name, ctx)
		}
		r, ok := warmIterate(bases[i], ts[i].t.Deadline, hps, ts[i].t.Name, opt)
		v.WCRT[ts[i].t.Name] = r
		jitter := int64(r) + int64(ts[i].t.Jitter)
		if !ok {
			if v.Schedulable {
				v.Schedulable = false
				v.Reason = fmt.Sprintf("task %s: R %v > D %v", ts[i].t.Name, r, ts[i].t.Deadline)
			}
			if !constJitter {
				return v
			}
		}
		if constJitter {
			jitter = int64(ts[i].t.Deadline) + int64(ts[i].t.Jitter)
		}
		hps = append(hps, hpTerm{
			period: ts[i].t.Period, jitter: jitter,
			demand: ts[i].sumC + ts[i].sumL,
		})
	}
	return v
}

// RTMDMFIFORTA analyzes RT-MDM with *ungated FIFO* DMA arbitration (the
// memory-unaware ablation). Two things get strictly worse than under the
// gated design: (i) lower-priority tasks' transfers are served in release
// order, so they interfere like higher-priority demand (with deadline
// jitter) instead of blocking once; (ii) lower tasks can re-stage segments
// at any time, so the CPU-overhang blocking loses its inventory cap and is
// charged once per stall.
func RTMDMFIFORTA(s *task.Set, plat cost.Platform, depth int, chunkBytes int64) Verdict {
	return rtmdmFIFORTA(context.Background(), s, plat, depth, chunkBytes)
}

func rtmdmFIFORTA(ctx context.Context, s *task.Set, plat cost.Platform, depth int, chunkBytes int64) Verdict {
	v := fpRTA(ctx, s, plat, fmt.Sprintf("rta-rtmdm-fifo-d%d", depth), chunkBytes, false,
		func(ts []terms, i int) (int64, int64) {
			blkC, blkL := lowerMax(ts, i)
			stalls := int64(ts[i].loads)
			if stalls < 1 {
				stalls = 1
			}
			pipe := ts[i].t.Plan.Chunked(chunkBytes).PipelineNsWith(depth, 0, switchCost(plat),
				plat.Bus.DMADen, plat.Bus.DMANum, plat.Bus.CPUDen, plat.Bus.CPUNum)
			base := stalls*blkC + blkL + pipe
			// Lower-priority DMA demand behaves like interference under
			// FIFO: fold each lower task's load demand into the base via
			// its worst-case arrival count (deadline jitter, iterated by
			// the caller through the higher-priority terms only — lower
			// tasks are added here against the deadline horizon).
			for k := i + 1; k < len(ts); k++ {
				horizon := int64(ts[i].t.Deadline) + int64(ts[k].t.Deadline)
				n := (horizon + int64(ts[k].t.Period) - 1) / int64(ts[k].t.Period)
				base += n * ts[k].sumL
			}
			return base, pipe
		},
		func(ts []terms, h int) int64 { return ts[h].sumC + ts[h].sumL })
	return v
}

// RTMDMRTAForOPA is the Audsley-compatible variant of RTMDMRTA: it uses
// constant (deadline) jitter so a task's bound is independent of the
// relative order of its higher-priority tasks, and it analyzes every task
// even when one fails.
func RTMDMRTAForOPA(s *task.Set, plat cost.Platform, depth int) Verdict {
	return rtmdmRTA(s, plat, depth, 0, true)
}

// SerialSegFPRTA analyzes the serial segment-preemptive baseline (B2):
// per-job demand is the serial sum with one lower-priority CPU overhang per
// real load, plus initial blocking.
func SerialSegFPRTA(s *task.Set, plat cost.Platform) Verdict {
	return serialSegFPRTA(context.Background(), s, plat)
}

func serialSegFPRTA(ctx context.Context, s *task.Set, plat cost.Platform) Verdict {
	return fpRTA(ctx, s, plat, "rta-serial-segfp", 0, false, segfpBaseFn(plat, nil), sumCL)
}

// sumCL is the per-job interference demand every FP analysis here
// charges: the higher-priority task's full CPU plus DMA demand.
func sumCL(ts []terms, h int) int64 { return ts[h].sumC + ts[h].sumL }

// segfpBaseFn builds the serial-segfp base function. demandFor, when
// non-nil, replaces the serial-demand computation with cached values of
// the same pure expression (the incremental analyzer's term cache).
func segfpBaseFn(plat cost.Platform, demandFor func(i int) int64) func(ts []terms, i int) (int64, int64) {
	return func(ts []terms, i int) (int64, int64) {
		_, blkL := lowerMax(ts, i)
		var serial int64
		if demandFor != nil {
			serial = demandFor(i)
		} else {
			serial = ts[i].t.Plan.PipelineNsWith(1, 0, switchCost(plat),
				plat.Bus.DMADen, plat.Bus.DMANum, plat.Bus.CPUDen, plat.Bus.CPUNum)
		}
		base := cpuBlocking(ts, i, uniformDepth(1)) + blkL + serial
		return base, serial
	}
}

// npfpBaseFn builds the serial-npfp base function; all of its inputs are
// already in the terms, so it needs no demand override.
func npfpBaseFn() func(ts []terms, i int) (int64, int64) {
	return func(ts []terms, i int) (int64, int64) {
		var blkJob int64
		for k := i + 1; k < len(ts); k++ {
			if v := ts[k].sumC + ts[k].sumL; v > blkJob {
				blkJob = v
			}
		}
		_, blkL := lowerMax(ts, i)
		serial := ts[i].sumC + ts[i].sumL
		base := blkJob + blkL + serial
		return base, serial
	}
}

// SerialNPFPRTA analyzes the whole-job non-preemptive baseline (B1): the
// blocking term is an entire lower-priority job (its serial demand) plus
// one in-flight transfer.
func SerialNPFPRTA(s *task.Set, plat cost.Platform) Verdict {
	return serialNPFPRTA(context.Background(), s, plat)
}

func serialNPFPRTA(ctx context.Context, s *task.Set, plat cost.Platform) Verdict {
	return fpRTA(ctx, s, plat, "rta-serial-npfp", 0, false, npfpBaseFn(), sumCL)
}

// fpRTA runs a priority-ordered RTA. baseFn returns (base including
// blocking and own demand, own demand alone); interfFn returns the per-job
// interference demand a higher-priority task imposes.
//
// With constJitter, every higher-priority task carries jitter D_h instead
// of its response-time jitter: strictly more pessimistic, but independent
// of the relative order of higher-priority tasks — the property Audsley's
// algorithm requires — and the analysis of one task no longer depends on
// the others being schedulable.
func fpRTA(ctx context.Context, s *task.Set, plat cost.Platform, name string, chunkBytes int64, constJitter bool,
	baseFn func(ts []terms, i int) (base, self int64),
	interfFn func(ts []terms, h int) int64) Verdict {

	if err := s.Validate(); err != nil {
		return Verdict{Test: name, Reason: err.Error()}
	}
	ts := mkTerms(task.NewSet(s.ByPriority()...), plat, chunkBytes)
	return fpRTATerms(ctx, ts, name, constJitter, baseFn, interfFn, nil)
}

// fpRTATerms is the generic priority-ordered RTA over precomputed terms,
// shared — like rtmdmRTATerms — between the cold analyses and the
// incremental admission path (which differs only through opt).
func fpRTATerms(ctx context.Context, ts []terms, name string, constJitter bool,
	baseFn func(ts []terms, i int) (base, self int64),
	interfFn func(ts []terms, h int) int64, opt *admitOpts) Verdict {

	v := Verdict{Test: name, Schedulable: true, WCRT: map[string]sim.Duration{}}
	bases := make([]int64, len(ts))
	for i := range ts {
		if canceled(ctx) {
			return canceledVerdict(name, ctx)
		}
		bases[i], _ = baseFn(ts, i)
	}
	if opt != nil && opt.screen {
		for i := range ts {
			if bases[i] > int64(ts[i].t.Deadline) {
				return demandScreenVerdict(ts[i].t, bases[i])
			}
		}
	}

	var hps []hpTerm
	for i := range ts {
		if canceled(ctx) {
			return canceledVerdict(name, ctx)
		}
		r, ok := warmIterate(bases[i], ts[i].t.Deadline, hps, ts[i].t.Name, opt)
		v.WCRT[ts[i].t.Name] = r
		// Interference jitter: the task's own release jitter plus its
		// response bound (burst compression of self-suspending demand).
		jitter := int64(r) + int64(ts[i].t.Jitter)
		if !ok {
			if v.Schedulable {
				v.Schedulable = false
				v.Reason = fmt.Sprintf("task %s: R %v > D %v", ts[i].t.Name, r, ts[i].t.Deadline)
			}
			if !constJitter {
				// Lower-priority tasks cannot be analyzed soundly once a
				// higher one fails (its jitter is unbounded); stop here.
				return v
			}
		}
		if constJitter {
			jitter = int64(ts[i].t.Deadline) + int64(ts[i].t.Jitter)
		}
		if jitter < 0 {
			jitter = 0
		}
		hps = append(hps, hpTerm{period: ts[i].t.Period, demand: interfFn(ts, i), jitter: jitter})
	}
	return v
}

// NecessaryUtilization is the per-resource necessary condition: a task set
// whose derated CPU or DMA utilization exceeds 1 is infeasible on this
// platform under any policy that serializes each resource.
func NecessaryUtilization(s *task.Set, plat cost.Platform) Verdict {
	ts := mkTerms(s, plat, 0)
	var uc, ul float64
	for _, t := range ts {
		uc += float64(t.sumC) / float64(t.t.Period) //lint:allow millitime -- utilization ratio; dimensionless by construction
		ul += float64(t.sumL) / float64(t.t.Period) //lint:allow millitime -- utilization ratio; dimensionless by construction
	}
	v := Verdict{Test: "necessary-utilization", Schedulable: uc <= 1.0 && ul <= 1.0}
	if !v.Schedulable {
		v.Reason = fmt.Sprintf("U_cpu=%.3f U_dma=%.3f", uc, ul)
	}
	return v
}

// RTMDMEDF is the processor-demand schedulability test for the EDF variant
// of RT-MDM: dbf(t) + B(t) ≤ t at every absolute deadline t in the level
// busy period.
//
// Per-job demand is the *serial* chain length ΣL+ΣC (suspension-oblivious,
// both resources serialized): at every busy-window instant some incomplete
// job advances its own critical path (if the CPU idles, the in-flight
// transfer is its loader's next needed segment; if the gate idles the DMA,
// the gate job is computing), and a job's critical-path seconds are
// bounded by its serial length — the pipelined makespan is NOT a sound
// per-job charge here, because interference can expose hidden loads and
// stretch a job's critical path up to the serial chain (the same
// overlap-degradation effect that restricts the FP analysis's pipelined
// demand to the top-priority task).
//
// Blocking is charged once per checkpoint, in the classic np-EDF style
// (George et al.): only tasks with relative deadline > t can hold work
// against the busy period ending at t — a job released earlier with
// D_k ≤ t ≤ d would itself have the earlier absolute deadline. B(t) sums
// those tasks' staged inventories (which existed before the busy period
// and cannot be replenished while gated) plus one in-flight transfer.
func RTMDMEDF(s *task.Set, plat cost.Platform, depth int) Verdict {
	return rtmdmEDF(s, plat, depth, 0)
}

func rtmdmEDF(s *task.Set, plat cost.Platform, depth int, chunkBytes int64) Verdict {
	return rtmdmEDFDepths(context.Background(), s, plat, fmt.Sprintf("edf-rtmdm-d%d", depth),
		func(*task.Task) int { return depth }, chunkBytes)
}

// RTMDMEDFDepths is the EDF demand test with heterogeneous per-task
// prefetch windows; each task's carried-in inventory is bounded by its own
// window depth.
func RTMDMEDFDepths(s *task.Set, plat cost.Platform, depthFor func(*task.Task) int) Verdict {
	return rtmdmEDFDepths(context.Background(), s, plat, "edf-rtmdm-het", depthFor, 0)
}

func rtmdmEDFDepths(ctx context.Context, s *task.Set, plat cost.Platform, name string, depthFor func(*task.Task) int, chunkBytes int64) Verdict {
	if err := s.Validate(); err != nil {
		return Verdict{Test: name, Reason: err.Error()}
	}
	ts := mkTerms(s, plat, chunkBytes)
	type dtask struct {
		c    int64
		d    sim.Duration
		p    sim.Duration
		jit  sim.Duration
		inv  int64
		segL int64
	}
	dts := make([]dtask, len(ts))
	var util float64
	var sumC, maxBlk int64
	for i := range ts {
		serial := ts[i].t.Plan.Chunked(chunkBytes).PipelineNsWith(1, 0, switchCost(plat),
			plat.Bus.DMADen, plat.Bus.DMANum, plat.Bus.CPUDen, plat.Bus.CPUNum)
		dts[i] = dtask{c: serial, d: ts[i].t.Deadline, p: ts[i].t.Period,
			jit: ts[i].t.Jitter, inv: ts[i].inventoryC(depthFor(ts[i].t)), segL: ts[i].maxSegL}
		util += float64(serial) / float64(ts[i].t.Period) //lint:allow millitime -- utilization ratio; dimensionless by construction
		sumC += serial
		if b := dts[i].inv + dts[i].segL; b > maxBlk {
			maxBlk = b
		}
	}
	if util > 1.0 {
		return Verdict{Test: name, Reason: fmt.Sprintf("utilization %.3f > 1", util)}
	}
	// blocking bounds the carried-in work of longer-deadline tasks.
	blocking := func(t int64) int64 {
		var invSum, segLMax int64
		for _, dt := range dts {
			if int64(dt.d) > t {
				invSum += dt.inv
				if dt.segL > segLMax {
					segLMax = dt.segL
				}
			}
		}
		return invSum + segLMax
	}
	// Busy-period bound: fixpoint of w = B + Σ ceil(w/T)·C.
	w := sumC + maxBlk
	for iter := 0; iter < maxIterations; iter++ {
		if iter%cancelPollInterval == 0 && canceled(ctx) {
			return canceledVerdict(name, ctx)
		}
		next := maxBlk
		for _, dt := range dts {
			next += ((w + int64(dt.jit) + int64(dt.p) - 1) / int64(dt.p)) * dt.c
		}
		if next == w {
			break
		}
		w = next
		if w > int64(100*sim.Second) {
			return Verdict{Test: name, Reason: "busy period did not converge"}
		}
	}
	// Collect deadline checkpoints ≤ w.
	var points []int64
	for _, dt := range dts {
		for t := int64(dt.d); t <= w; t += int64(dt.p) {
			if len(points)%cancelPollInterval == 0 && canceled(ctx) {
				return canceledVerdict(name, ctx)
			}
			points = append(points, t)
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	dbf := func(t int64) int64 {
		var sum int64
		for _, dt := range dts {
			// Release jitter lets up to ⌊(t + J − D)/T⌋ + 1 jobs have both
			// release and deadline inside the window.
			n := (t+int64(dt.jit)-int64(dt.d))/int64(dt.p) + 1
			if n > 0 {
				sum += n * dt.c
			}
		}
		return sum
	}
	for i, t := range points {
		// The checkpoint list scales with horizon/period ratios and can run
		// to millions of points on dense sets; this is the loop a server
		// deadline most needs to be able to cut short.
		if i%cancelPollInterval == 0 && canceled(ctx) {
			return canceledVerdict(name, ctx)
		}
		if d := dbf(t) + blocking(t); d > t {
			return Verdict{Test: name,
				Reason: fmt.Sprintf("demand %v exceeds supply at t=%v", d, sim.Time(t))}
		}
	}
	return Verdict{Test: name, Schedulable: true}
}

// ForPolicy returns the analysis matching a runtime policy, or an
// unsupported verdict constructor for policies without a sound test (FIFO
// DMA arbitration is a runtime ablation only).
func ForPolicy(pol core.Policy) (func(*task.Set, cost.Platform) Verdict, error) {
	return ForPolicyContext(context.Background(), pol)
}

// ForPolicyContext is ForPolicy with a cancellation context threaded into
// the returned test: the RTA per-task loops and the EDF busy-period and
// checkpoint loops poll ctx every cancelPollInterval iterations, and an
// aborted analysis returns an unschedulable Verdict whose Reason carries
// ctx.Err(). The admission server uses this so a request deadline bounds
// analysis work instead of leaking it.
func ForPolicyContext(ctx context.Context, pol core.Policy) (func(*task.Set, cost.Platform) Verdict, error) {
	switch {
	case pol.DMA == core.DMAFIFO && pol.EDF:
		return nil, fmt.Errorf("analysis: no sound test for FIFO DMA under EDF (%s)", pol.Name)
	case pol.DMA == core.DMAFIFO && pol.PrefetchAcrossJobs:
		if pol.TaskDepth != nil {
			return nil, fmt.Errorf("analysis: no per-task-depth test under FIFO DMA (%s)", pol.Name)
		}
		d, c := pol.Depth, pol.ChunkBytes
		return func(s *task.Set, p cost.Platform) Verdict { return rtmdmFIFORTA(ctx, s, p, d, c) }, nil
	case pol.DMA == core.DMAFIFO:
		return nil, fmt.Errorf("analysis: no sound test for FIFO DMA on serial policies (%s)", pol.Name)
	case pol.JobLevelNP:
		return func(s *task.Set, p cost.Platform) Verdict { return serialNPFPRTA(ctx, s, p) }, nil
	case pol.EDF && pol.PrefetchAcrossJobs:
		if pol.TaskDepth != nil {
			depthFor := func(t *task.Task) int { return pol.DepthFor(t.Name) }
			c := pol.ChunkBytes
			return func(s *task.Set, p cost.Platform) Verdict {
				return rtmdmEDFDepths(ctx, s, p, "edf-rtmdm-het", depthFor, c)
			}, nil
		}
		d, c := pol.Depth, pol.ChunkBytes
		return func(s *task.Set, p cost.Platform) Verdict {
			return rtmdmEDFDepths(ctx, s, p, fmt.Sprintf("edf-rtmdm-d%d", d),
				func(*task.Task) int { return d }, c)
		}, nil
	case pol.EDF:
		return nil, fmt.Errorf("analysis: no test for serial EDF (%s)", pol.Name)
	case pol.PrefetchAcrossJobs:
		if pol.TaskDepth != nil {
			depthFor := func(t *task.Task) int { return pol.DepthFor(t.Name) }
			c := pol.ChunkBytes
			return func(s *task.Set, p cost.Platform) Verdict {
				return rtmdmRTADepths(ctx, s, p, "rta-rtmdm-het", depthFor, c, false)
			}, nil
		}
		d, c := pol.Depth, pol.ChunkBytes
		return func(s *task.Set, p cost.Platform) Verdict {
			return rtmdmRTADepths(ctx, s, p, fmt.Sprintf("rta-rtmdm-d%d", d),
				func(*task.Task) int { return d }, c, false)
		}, nil
	default:
		return func(s *task.Set, p cost.Platform) Verdict { return serialSegFPRTA(ctx, s, p) }, nil
	}
}

// Audsley performs optimal priority assignment for an OPA-compatible FP
// test: it mutates the set's priorities; on success the final assignment is
// schedulable under the test. The supplied test must judge a task's
// schedulability using only the partition into higher/lower tasks (all
// three RTAs here qualify).
//
// On failure the set's original priorities are restored.
func Audsley(s *task.Set, plat cost.Platform, test func(*task.Set, cost.Platform) Verdict) bool {
	orig := make(map[string]int, len(s.Tasks))
	for _, t := range s.Tasks {
		orig[t.Name] = t.Priority
	}
	n := len(s.Tasks)
	unassigned := append([]*task.Task(nil), s.Tasks...)
	// Deterministic candidate order.
	sort.Slice(unassigned, func(i, j int) bool { return unassigned[i].Name < unassigned[j].Name })

	for level := n - 1; level >= 0; level-- {
		placed := false
		for k, cand := range unassigned {
			if cand == nil {
				continue
			}
			// Tentatively: cand at this level, remaining unassigned above.
			lvl := level - 1
			for _, u := range unassigned {
				if u == nil || u == cand {
					continue
				}
				u.Priority = lvl
				lvl--
			}
			cand.Priority = level
			v := test(s, plat)
			if v.WCRT != nil {
				if r, ok := v.WCRT[cand.Name]; ok && r <= cand.Deadline {
					unassigned[k] = nil
					placed = true
					break
				}
			} else if v.Schedulable {
				unassigned[k] = nil
				placed = true
				break
			}
		}
		if !placed {
			for _, t := range s.Tasks {
				t.Priority = orig[t.Name]
			}
			return false
		}
	}
	return true
}

// BreakdownFactor binary-searches the largest period-compression factor α
// (demand stays fixed, every period and deadline divides by α) under which
// the test still accepts the set: the classic breakdown-utilization metric.
// It returns α within the given tolerance; α > 1 means headroom beyond the
// given rates, α < 1 means the set is already over-subscribed.
func BreakdownFactor(s *task.Set, plat cost.Platform,
	test func(*task.Set, cost.Platform) Verdict, tol float64) float64 {
	if tol <= 0 {
		tol = 0.01
	}
	scaled := func(alpha float64) *task.Set {
		var out []*task.Task
		for _, t := range s.Tasks {
			c := *t
			c.Period = sim.Duration(float64(t.Period) / alpha)     //lint:allow millitime -- sensitivity sweep scales analytically, not in simulation
			c.Deadline = sim.Duration(float64(t.Deadline) / alpha) //lint:allow millitime -- sensitivity sweep scales analytically, not in simulation
			if c.Period < 1 {
				c.Period = 1
			}
			if c.Deadline < 1 {
				c.Deadline = 1
			}
			if c.Deadline > c.Period {
				c.Deadline = c.Period
			}
			out = append(out, &c)
		}
		return task.NewSet(out...)
	}
	ok := func(alpha float64) bool { return test(scaled(alpha), plat).Schedulable }
	if !ok(1e-3) {
		return 0
	}
	lo, hi := 1e-3, 1e-3
	for hi < 64 && ok(hi*2) {
		hi *= 2
		lo = hi
	}
	hi *= 2
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
