// Package dse explores the coupled hardware/software configuration space
// of an RT-MDM deployment: the staging-SRAM partition (a hardware
// provisioning cost), the prefetch depth, the preemption granularity δ and
// the DMA chunk size (software knobs). For one policy-independent workload
// it evaluates every grid point with the full offline pipeline —
// segmentation, SRAM provisioning, response-time analysis, breakdown
// factor — and reports the Pareto frontier between staging cost and
// guaranteed timing margin, closing the design-automation loop that T18's
// single-knob δ tuner opens.
package dse

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/metrics"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
	"rtmdm/internal/workload"
)

// instruments is the explorer's metrics sink; the zero struct (all nil
// metrics, the default) makes every update a no-op.
type instruments struct {
	explored      *metrics.Counter
	infeasible    *metrics.Counter
	unschedulable *metrics.Counter
	schedulable   *metrics.Counter
	panicked      *metrics.Counter
}

var instr atomic.Pointer[instruments]

func init() { instr.Store(&instruments{}) }

// Instrument wires the explorer to the registry; Instrument(nil) disables
// instrumentation. Counters aggregate across every Explore in the process.
func Instrument(r *metrics.Registry) {
	if r == nil {
		instr.Store(&instruments{})
		return
	}
	instr.Store(&instruments{
		explored:      r.Counter("dse.points_explored", "points", "grid points evaluated"),
		infeasible:    r.Counter("dse.points_infeasible", "points", "points failing segmentation or provisioning"),
		unschedulable: r.Counter("dse.points_unschedulable", "points", "feasible points the analysis rejected"),
		schedulable:   r.Counter("dse.points_schedulable", "points", "points with an offline certificate"),
		panicked:      r.Counter("dse.points_panicked", "points", "points recovered from a pipeline panic"),
	})
}

// Knobs enumerates the candidate values on each configuration axis. Every
// axis must be non-empty; Explore evaluates the full cross product.
type Knobs struct {
	// StagingBytes are candidate weight-staging partition sizes
	// (cost.Platform.WeightBufBytes). Each must leave activation room
	// inside the platform's total SRAM.
	StagingBytes []int64
	// Depths are candidate prefetch-buffer depths (≥ 2 for RT-MDM).
	Depths []int
	// GranularityNs are candidate δ bounds on a segment's non-preemptive
	// compute region (core.Policy.MaxSegNs).
	GranularityNs []int64
	// ChunkBytes are candidate DMA transfer chunk sizes; 0 means
	// whole-segment transfers.
	ChunkBytes []int64
	// TunePerTaskDepth adds, for every (staging, granularity, chunk)
	// combination, one extra grid point whose windows are brute-force
	// tuned per task over {1..4} (extension T24): depth is spent on the
	// top-priority pipeline and saved on lower tasks' blocking inventory,
	// often certifying workloads no uniform depth can.
	TunePerTaskDepth bool
	// Progress, when non-nil, is called after each grid point completes
	// with the number of finished points and the grid size. It is invoked
	// from worker goroutines and must be safe for concurrent use; sweeps
	// use it to drive progress tickers without touching the results.
	Progress func(done, total int)
}

// DefaultKnobs returns a practical grid for the given platform: staging
// partitions from 1/8 to 1/2 of SRAM, depths 2–4, δ from 0.25 to 2 ms, and
// whole-segment vs 8 KiB chunked transfers.
func DefaultKnobs(plat cost.Platform) Knobs {
	sram := plat.SRAMBytes
	return Knobs{
		StagingBytes:  []int64{sram / 8, sram / 4, 3 * sram / 8, sram / 2},
		Depths:        []int{2, 3, 4},
		GranularityNs: []int64{250_000, 500_000, 1_000_000, 2_000_000},
		ChunkBytes:    []int64{0, 8192},
	}
}

func (k Knobs) validate(plat cost.Platform) error {
	if len(k.StagingBytes) == 0 || len(k.Depths) == 0 ||
		len(k.GranularityNs) == 0 || len(k.ChunkBytes) == 0 {
		return fmt.Errorf("dse: every knob axis needs at least one candidate")
	}
	for _, b := range k.StagingBytes {
		if b <= 0 || b >= plat.SRAMBytes {
			return fmt.Errorf("dse: staging partition %d outside (0, %d)", b, plat.SRAMBytes)
		}
	}
	for _, d := range k.Depths {
		if d < 2 {
			return fmt.Errorf("dse: prefetch depth %d < 2", d)
		}
	}
	for _, g := range k.GranularityNs {
		if g <= 0 {
			return fmt.Errorf("dse: non-positive granularity %d", g)
		}
	}
	for _, c := range k.ChunkBytes {
		if c < 0 {
			return fmt.Errorf("dse: negative chunk size %d", c)
		}
	}
	return nil
}

// Point is one evaluated configuration.
type Point struct {
	StagingBytes  int64
	Depth         int
	GranularityNs int64
	ChunkBytes    int64
	// TaskDepths holds the tuned per-task windows when this point came
	// from TunePerTaskDepth (nil for uniform points). Depth then records
	// the deepest window.
	TaskDepths map[string]int

	// Feasible reports that segmentation and SRAM provisioning succeeded;
	// Reason holds the first failure otherwise.
	Feasible bool
	Reason   string
	// Schedulable is the RTA verdict at nominal rates.
	Schedulable bool
	// Alpha is the breakdown factor: the largest period-compression the
	// analysis still certifies (> 1 means guaranteed headroom). Zero when
	// the point is infeasible or unschedulable.
	Alpha float64
	// SlackNs is the minimum D − R over tasks when schedulable.
	SlackNs int64
}

// Policy reconstructs the scheduling policy this point was evaluated with.
func (p Point) Policy() core.Policy {
	var pol core.Policy
	if p.TaskDepths != nil {
		pol = core.RTMDMPerTaskDepth(p.TaskDepths)
	} else {
		pol = core.RTMDMDepth(p.Depth)
	}
	pol.MaxSegNs = p.GranularityNs
	pol.ChunkBytes = p.ChunkBytes
	return pol
}

// dominatedBy reports whether q is at least as good on both objectives
// (staging cost down, timing margin up) and strictly better on one. Only
// schedulable points participate in domination.
func (p Point) dominatedBy(q Point) bool {
	if !p.Schedulable || !q.Schedulable {
		return false
	}
	if q.StagingBytes > p.StagingBytes || q.Alpha < p.Alpha {
		return false
	}
	return q.StagingBytes < p.StagingBytes || q.Alpha > p.Alpha
}

// Result is a completed exploration.
type Result struct {
	// Points holds every grid point in deterministic axis order
	// (staging, depth, granularity, chunk).
	Points []Point
	// Frontier is the Pareto-optimal subset of schedulable points:
	// no other point provides ≥ margin at ≤ staging cost. Sorted by
	// staging size ascending (and therefore Alpha ascending).
	Frontier []Point
}

// Schedulable returns the number of schedulable grid points.
func (r *Result) Schedulable() int {
	n := 0
	for _, p := range r.Points {
		if p.Schedulable {
			n++
		}
	}
	return n
}

// Recommend picks the deployment configuration: the cheapest (smallest
// staging partition) frontier point whose breakdown factor meets minAlpha.
// If none does, it falls back to the highest-margin frontier point. The
// second return is false when nothing on the grid is schedulable.
func (r *Result) Recommend(minAlpha float64) (Point, bool) {
	if len(r.Frontier) == 0 {
		return Point{}, false
	}
	for _, p := range r.Frontier {
		if p.Alpha >= minAlpha {
			return p, true
		}
	}
	return r.Frontier[len(r.Frontier)-1], true
}

// Explore evaluates the full knob grid for one workload on one platform.
// The workload is policy-independent (models and periods); each point
// re-segments it under its own δ and staging budget, so the comparison is
// the one a hardware designer actually faces.
func Explore(spec workload.SetSpec, plat cost.Platform, k Knobs) (*Result, error) {
	if err := k.validate(plat); err != nil {
		return nil, err
	}
	if len(spec.Tasks) == 0 {
		return nil, fmt.Errorf("dse: empty workload spec")
	}
	grid := make([]Point, 0, len(k.StagingBytes)*(len(k.Depths)+1)*len(k.GranularityNs)*len(k.ChunkBytes))
	for _, sb := range k.StagingBytes {
		for _, d := range k.Depths {
			for _, g := range k.GranularityNs {
				for _, c := range k.ChunkBytes {
					grid = append(grid, Point{
						StagingBytes: sb, Depth: d,
						GranularityNs: g, ChunkBytes: c,
					})
				}
			}
		}
		if k.TunePerTaskDepth {
			for _, g := range k.GranularityNs {
				for _, c := range k.ChunkBytes {
					grid = append(grid, Point{
						StagingBytes: sb, Depth: 0, // tuned marker until evaluation
						GranularityNs: g, ChunkBytes: c,
						TaskDepths: map[string]int{},
					})
				}
			}
		}
	}
	// Evaluate concurrently into indexed slots: deterministic output
	// regardless of scheduling.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(grid) {
		workers = len(grid)
	}
	ins := instr.Load()
	var wg sync.WaitGroup
	var done atomic.Int64
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				grid[i] = safeEvaluate(spec, plat, grid[i])
				ins.explored.Add(1)
				switch {
				case grid[i].Schedulable:
					ins.schedulable.Add(1)
				case grid[i].Feasible:
					ins.unschedulable.Add(1)
				default:
					ins.infeasible.Add(1)
				}
				if k.Progress != nil {
					k.Progress(int(done.Add(1)), len(grid))
				}
			}
		}()
	}
	for i := range grid {
		next <- i
	}
	close(next)
	wg.Wait()
	return &Result{Points: grid, Frontier: frontier(grid)}, nil
}

// evalPoint is the per-point evaluator, indirected so tests can inject a
// pathological one.
var evalPoint = evaluate

// safeEvaluate shields the exploration from a panicking grid point: one
// degenerate configuration (however it breaks the pipeline) becomes an
// infeasible point with the panic as its Reason instead of killing the whole
// exploration and every sibling worker.
func safeEvaluate(spec workload.SetSpec, plat cost.Platform, pt Point) (out Point) {
	defer func() {
		if r := recover(); r != nil {
			instr.Load().panicked.Add(1)
			out = pt
			out.Feasible = false
			out.Schedulable = false
			out.Alpha = 0
			out.Reason = fmt.Sprintf("panic: %v", r)
		}
	}()
	return evalPoint(spec, plat, pt)
}

// evaluate runs the offline pipeline for one configuration. Tuned points
// (TaskDepths non-nil) first search the per-task window lattice on a
// uniform depth-2 segmentation of this point's δ/staging budget.
func evaluate(spec workload.SetSpec, plat cost.Platform, pt Point) Point {
	plat.WeightBufBytes = pt.StagingBytes
	if pt.TaskDepths != nil {
		return evaluateTuned(spec, plat, pt)
	}
	pol := pt.Policy()
	s, err := spec.Instantiate(plat, pol)
	if err != nil {
		pt.Reason = fmt.Sprintf("segmentation: %v", err)
		return pt
	}
	if err := core.Provision(s, plat, pol); err != nil {
		pt.Reason = fmt.Sprintf("provisioning: %v", err)
		return pt
	}
	pt.Feasible = true
	test, err := analysis.ForPolicy(pol)
	if err != nil {
		pt.Reason = fmt.Sprintf("analysis: %v", err)
		return pt
	}
	v := test(s, plat)
	if !v.Schedulable {
		pt.Reason = v.Reason
		return pt
	}
	pt.Schedulable = true
	pt.SlackNs = int64(minSlack(s, v))
	pt.Alpha = analysis.BreakdownFactor(s, plat, test, 0.02)
	return pt
}

// evaluateTuned tunes per-task windows with TuneWindows on a uniform
// depth-2 segmentation, keeping the slack-optimal assignment, then scores
// it with the breakdown factor like any other point.
func evaluateTuned(spec workload.SetSpec, plat cost.Platform, pt Point) Point {
	base := core.RTMDM()
	base.MaxSegNs = pt.GranularityNs
	base.ChunkBytes = pt.ChunkBytes
	s, err := spec.Instantiate(plat, base)
	if err != nil {
		pt.Reason = fmt.Sprintf("segmentation: %v", err)
		return pt
	}
	pt.Feasible = true
	_, best, ok := TuneWindows(s, plat, func(windows map[string]int) core.Policy {
		q := pt
		q.TaskDepths = windows
		return q.Policy()
	})
	if !ok {
		pt.Reason = "no accepted per-task window assignment"
		return pt
	}
	pt.TaskDepths = best.Windows
	for _, d := range best.Windows {
		if d > pt.Depth {
			pt.Depth = d
		}
	}
	pt.Schedulable = true
	pt.SlackNs = int64(best.Slack)
	test, _ := analysis.ForPolicy(pt.Policy())
	pt.Alpha = analysis.BreakdownFactor(s, plat, test, 0.02)
	return pt
}

// TuneWindows brute-forces per-task prefetch windows over {1,2,3,4}ⁿ on
// the set's fixed segmentation (extension T24). policy maps a window
// assignment (task name → depth) to the policy that is provisioned and
// analysed for it. Of the accepted assignments it returns the cheapest in
// staging SRAM (larger worst-case slack breaking ties) and the
// slack-maximal one (less staging breaking ties); the first one found in
// walk order wins a full tie. Each optimum carries its windows, the staging
// SRAM they pin (core.MaxBufferBytes summed over tasks) and its worst-case
// slack (the least D − R). ok is false when no assignment is accepted.
func TuneWindows(s *task.Set, plat cost.Platform, policy func(windows map[string]int) core.Policy) (cheapest, slackOpt struct {
	Windows      map[string]int
	StagingBytes int64
	Slack        sim.Duration
}, ok bool) {
	assign := make([]int, len(s.Tasks))
	var walk func(int)
	walk = func(i int) {
		if i < len(s.Tasks) {
			for d := 1; d <= 4; d++ {
				assign[i] = d
				walk(i + 1)
			}
			return
		}
		windows := make(map[string]int, len(s.Tasks))
		for k, tk := range s.Tasks {
			windows[tk.Name] = assign[k]
		}
		pol := policy(windows)
		if core.Provision(s, plat, pol) != nil {
			return
		}
		test, err := analysis.ForPolicy(pol)
		if err != nil {
			return
		}
		v := test(s, plat)
		if !v.Schedulable {
			return
		}
		var staging int64
		for _, tk := range s.Tasks {
			staging += core.MaxBufferBytes(tk, pol)
		}
		slack := minSlack(s, v)
		if !ok || staging < cheapest.StagingBytes ||
			(staging == cheapest.StagingBytes && slack > cheapest.Slack) {
			cheapest.Windows, cheapest.StagingBytes, cheapest.Slack = windows, staging, slack
		}
		if !ok || slack > slackOpt.Slack ||
			(slack == slackOpt.Slack && staging < slackOpt.StagingBytes) {
			slackOpt.Windows, slackOpt.StagingBytes, slackOpt.Slack = windows, staging, slack
		}
		ok = true
	}
	walk(0)
	return cheapest, slackOpt, ok
}

// minSlack is a verdict's worst-case slack: the least D − R over tasks.
func minSlack(s *task.Set, v analysis.Verdict) sim.Duration {
	slack := sim.Duration(1<<63 - 1)
	for _, tk := range s.Tasks {
		if d := tk.Deadline - v.WCRT[tk.Name]; d < slack {
			slack = d
		}
	}
	return slack
}

// frontier extracts the Pareto-optimal schedulable points, sorted by
// staging size. Within one staging size only the highest-margin point
// survives; across sizes, a larger partition must buy strictly more margin
// to stay on the frontier.
func frontier(points []Point) []Point {
	sched := make([]Point, 0, len(points))
	for _, p := range points {
		if p.Schedulable {
			sched = append(sched, p)
		}
	}
	sort.Slice(sched, func(i, j int) bool {
		if sched[i].StagingBytes != sched[j].StagingBytes {
			return sched[i].StagingBytes < sched[j].StagingBytes
		}
		return sched[i].Alpha > sched[j].Alpha
	})
	var front []Point
	bestAlpha := -1.0
	for _, p := range sched {
		if len(front) > 0 && front[len(front)-1].StagingBytes == p.StagingBytes {
			continue // only the best point per staging size
		}
		if p.Alpha > bestAlpha {
			front = append(front, p)
			bestAlpha = p.Alpha
		}
	}
	return front
}
