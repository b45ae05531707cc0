// Package core implements the RT-MDM scheduling framework itself: the
// runtime policy space (preemption granularity, prefetch depth, priority
// discipline, DMA arbitration), the named policies compared in the
// evaluation, and the SRAM provisioning rule that makes the prefetch
// pipeline safe.
//
// The framework schedules multi-DNN workloads at *segment* granularity:
// each DNN is partitioned (internal/segment) into units whose parameters
// are staged from external memory into SRAM before execution. RT-MDM's
// contribution is the combination of
//
//  1. segment-boundary preemption (bounded non-preemptive regions on the
//     CPU and the DMA channel),
//  2. a prefetch pipeline that overlaps segment k+1's parameter load with
//     segment k's compute (double buffering, depth configurable),
//  3. priority-consistent DMA arbitration (the memory channel serves
//     transfers in the same order the CPU scheduler would run their jobs),
//  4. static per-task staging buffers so prefetching can never deadlock
//     or overcommit SRAM, and
//  5. a response-time analysis (internal/analysis) that exploits the
//     pipelined per-job demand instead of the serial load+compute sum.
package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"rtmdm/internal/cost"
	"rtmdm/internal/segment"
	"rtmdm/internal/task"
)

// DMAOrder selects how queued parameter transfers are arbitrated.
type DMAOrder int

const (
	// DMAPriority serves transfers in the CPU scheduler's job order —
	// the RT-MDM design point.
	DMAPriority DMAOrder = iota
	// DMAFIFO serves transfers in job-release order (ablation baseline).
	DMAFIFO
)

func (d DMAOrder) String() string {
	if d == DMAFIFO {
		return "fifo"
	}
	return "priority"
}

// OverrunPolicy selects what the executor does when a job misses its
// deadline (which, under fault injection, is how compute overruns surface).
type OverrunPolicy int

const (
	// OverrunContinue lets the late job keep running to completion — the
	// historical behavior. The miss is recorded; nothing else changes.
	OverrunContinue OverrunPolicy = iota
	// OverrunAbort kills the job at its deadline: the CPU and DMA channel
	// are reclaimed immediately and every staging buffer the job holds is
	// released.
	OverrunAbort
	// OverrunSkipNext lets the late job finish but suppresses the task's
	// next release, shedding load so the backlog cannot build up.
	OverrunSkipNext
)

func (o OverrunPolicy) String() string {
	switch o {
	case OverrunAbort:
		return "abort"
	case OverrunSkipNext:
		return "skip-next"
	default:
		return "continue"
	}
}

// ParseOverrunPolicy resolves "continue", "abort", or "skip-next".
func ParseOverrunPolicy(name string) (OverrunPolicy, error) {
	switch name {
	case "continue", "":
		return OverrunContinue, nil
	case "abort":
		return OverrunAbort, nil
	case "skip-next":
		return OverrunSkipNext, nil
	}
	return 0, fmt.Errorf("core: unknown overrun policy %q (try continue, abort, skip-next)", name)
}

// Policy is a point in the scheduling design space. The named constructors
// below produce the configurations compared in the evaluation.
type Policy struct {
	Name string
	// JobLevelNP runs each job non-preemptively start-to-finish (baseline
	// B1 semantics). When false, preemption happens at segment boundaries.
	JobLevelNP bool
	// Depth is the per-task staging buffer depth: the DMA may run at most
	// Depth segments ahead of the CPU within a job. Depth 1 disables
	// overlap (strictly serial load→compute); Depth 2 is double buffering.
	Depth int
	// EDF prioritizes jobs by absolute deadline instead of fixed task
	// priority.
	EDF bool
	// DMA selects the transfer arbitration.
	DMA DMAOrder
	// PrefetchAcrossJobs lets the DMA stage segments for ready jobs other
	// than the one holding (or next to hold) the CPU. RT-MDM enables it;
	// serial baselines do not.
	PrefetchAcrossJobs bool
	// MaxSegNs bounds each segment's non-preemptive compute region (the
	// preemption granularity δ); 0 leaves compute regions unbounded.
	// Segment-preemptive policies use DefaultGranularityNs.
	MaxSegNs int64
	// ChunkBytes splits parameter transfers into chunks of at most this
	// many bytes, bounding the non-preemptive DMA region to one chunk at
	// the price of one transfer setup per chunk (limited-preemption on
	// the memory channel). 0 issues whole-segment transfers.
	ChunkBytes int64
	// TaskDepth overrides Depth per task name (heterogeneous prefetch
	// windows, extension T24): load-heavy tasks can run deep windows
	// while compute-heavy ones stay shallow and cheap in staging SRAM.
	// Missing or zero entries fall back to Depth. Only meaningful for
	// cross-job prefetching policies.
	TaskDepth map[string]int
	// Overrun selects the deadline-miss handling discipline (robustness
	// testbed): continue (default), abort, or skip-next.
	Overrun OverrunPolicy
}

// DepthFor returns the prefetch window depth for a named task: its
// TaskDepth override when present, the policy's Depth otherwise.
func (p Policy) DepthFor(name string) int {
	if d, ok := p.TaskDepth[name]; ok && d > 0 {
		return d
	}
	return p.Depth
}

// PolicyKey is a comparable identity of a Policy, for memoization keys:
// two policies have equal keys iff every field is equal, a nil TaskDepth
// map told apart from an empty one (Validate treats them differently).
// Policy holds a map and cannot be a map key itself.
type PolicyKey struct {
	name                      string
	jobLevelNP, edf, prefetch bool
	depth                     int
	dma                       DMAOrder
	maxSegNs, chunkBytes      int64
	// taskDepth is TaskDepth in ascending name order (length-prefixed
	// name, then depth) after a one-byte non-nil marker; "" when nil.
	taskDepth string
	overrun   OverrunPolicy
}

// Key returns the policy's memoization key, without fmt or reflection.
func (p Policy) Key() PolicyKey {
	k := PolicyKey{
		name: p.Name, jobLevelNP: p.JobLevelNP, edf: p.EDF, prefetch: p.PrefetchAcrossJobs,
		depth: p.Depth, dma: p.DMA, maxSegNs: p.MaxSegNs, chunkBytes: p.ChunkBytes,
		overrun: p.Overrun,
	}
	if p.TaskDepth != nil {
		names := make([]string, 0, len(p.TaskDepth))
		for name := range p.TaskDepth {
			names = append(names, name)
		}
		sort.Strings(names)
		b := []byte{1}
		for _, name := range names {
			b = binary.AppendUvarint(b, uint64(len(name)))
			b = append(b, name...)
			b = binary.AppendVarint(b, int64(p.TaskDepth[name]))
		}
		k.taskDepth = string(b)
	}
	return k
}

// DefaultGranularityNs is the default preemption granularity budget δ₀:
// a policy with buffer depth d splits compute regions to at most δ₀/d, so
// the staged *inventory* a task can hold (depth × segment) — and with it
// the blocking it imposes on more urgent tasks — stays bounded by δ₀
// regardless of depth.
const DefaultGranularityNs = 2_000_000

// granularityFor derives a policy's segment compute bound from its depth.
func granularityFor(depth int) int64 {
	g := int64(DefaultGranularityNs) / int64(depth)
	if g < 250_000 {
		g = 250_000
	}
	return g
}

// Validate reports configuration errors.
func (p Policy) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("core: policy without name")
	}
	if p.Depth < 1 {
		return fmt.Errorf("core: policy %s: depth %d < 1", p.Name, p.Depth)
	}
	if p.MaxSegNs < 0 {
		return fmt.Errorf("core: policy %s: negative preemption granularity", p.Name)
	}
	if p.ChunkBytes < 0 {
		return fmt.Errorf("core: policy %s: negative DMA chunk size", p.Name)
	}
	if p.JobLevelNP && p.Depth > 1 && p.PrefetchAcrossJobs {
		return fmt.Errorf("core: policy %s: cross-job prefetch is meaningless under job-level non-preemption", p.Name)
	}
	if p.TaskDepth != nil && !p.PrefetchAcrossJobs {
		return fmt.Errorf("core: policy %s: per-task depths require cross-job prefetching", p.Name)
	}
	// Sorted so the reported violation is the same task on every run,
	// not whichever the map yields first.
	var depthTasks []string
	for name := range p.TaskDepth {
		depthTasks = append(depthTasks, name)
	}
	sort.Strings(depthTasks)
	for _, name := range depthTasks {
		if d := p.TaskDepth[name]; d < 1 {
			return fmt.Errorf("core: policy %s: task %s depth %d < 1", p.Name, name, d)
		}
	}
	if p.Overrun < OverrunContinue || p.Overrun > OverrunSkipNext {
		return fmt.Errorf("core: policy %s: unknown overrun policy %d", p.Name, p.Overrun)
	}
	return nil
}

// RTMDM is the proposed framework at double-buffering depth: segment-level
// fixed-priority preemption, prefetch pipeline, priority DMA arbitration.
func RTMDM() Policy {
	return Policy{Name: "rt-mdm", Depth: 2, DMA: DMAPriority, PrefetchAcrossJobs: true,
		MaxSegNs: granularityFor(2)}
}

// RTMDMDepth is RT-MDM with a configurable buffer depth (ablation T9).
func RTMDMDepth(depth int) Policy {
	p := RTMDM()
	p.Name = fmt.Sprintf("rt-mdm-d%d", depth)
	p.Depth = depth
	p.MaxSegNs = granularityFor(depth)
	return p
}

// RTMDMEDF is the EDF extension of RT-MDM (experiment F12).
func RTMDMEDF() Policy {
	p := RTMDM()
	p.Name = "rt-mdm-edf"
	p.EDF = true
	return p
}

// RTMDMChunked is RT-MDM with limited-preemption DMA: transfers are issued
// in chunks of at most the given bytes, re-arbitrating the channel between
// chunks (extension T15).
func RTMDMChunked(chunkBytes int64) Policy {
	p := RTMDM()
	p.Name = fmt.Sprintf("rt-mdm-c%dk", chunkBytes>>10)
	p.ChunkBytes = chunkBytes
	return p
}

// RTMDMPerTaskDepth is RT-MDM with heterogeneous prefetch windows
// (extension T24): each named task runs the given buffer depth, anyone
// missing from the map runs the base depth 2. Policy.Depth is set to the
// largest depth so the derived segmentation budget and δ = δ₀/depth remain
// conservative for every task, keeping each task's staged inventory — and
// so the blocking it can impose — bounded by δ₀.
func RTMDMPerTaskDepth(depths map[string]int) Policy {
	maxD := 2
	for _, d := range depths {
		if d > maxD {
			maxD = d
		}
	}
	p := RTMDM()
	p.Name = "rt-mdm-het"
	p.Depth = maxD
	p.MaxSegNs = granularityFor(maxD)
	p.TaskDepth = depths
	return p
}

// RTMDMFIFODMA is RT-MDM with FIFO transfer arbitration (ablation T9).
func RTMDMFIFODMA() Policy {
	p := RTMDM()
	p.Name = "rt-mdm-fifodma"
	p.DMA = DMAFIFO
	return p
}

// SerialNPFP is baseline B1: vanilla TFLM-style execution — each job loads
// and computes strictly serially and runs non-preemptively to completion
// under fixed priorities.
func SerialNPFP() Policy {
	return Policy{Name: "serial-npfp", JobLevelNP: true, Depth: 1, DMA: DMAPriority}
}

// SerialSegFP is baseline B2: segment-boundary preemption but no
// load/compute overlap — isolates the benefit of preemption alone.
func SerialSegFP() Policy {
	return Policy{Name: "serial-segfp", Depth: 1, DMA: DMAPriority,
		MaxSegNs: DefaultGranularityNs}
}

// SerialSegEDF is the EDF counterpart of B2.
func SerialSegEDF() Policy {
	return Policy{Name: "serial-segedf", Depth: 1, EDF: true, DMA: DMAPriority,
		MaxSegNs: DefaultGranularityNs}
}

// ComparisonSet returns the policies of the headline experiments, ordered
// baseline-first.
func ComparisonSet() []Policy {
	return []Policy{SerialNPFP(), SerialSegFP(), RTMDM()}
}

// MaxBufferBytes returns the SRAM staging footprint policy p can reach for
// one task: Depth simultaneously-held segment buffers. The bound uses the
// task's largest segment, so it is safe for any mix of segments.
func MaxBufferBytes(t *task.Task, p Policy) int64 {
	depth := p.DepthFor(t.Name)
	if depth > t.NumSegments() {
		depth = t.NumSegments()
	}
	return int64(depth) * t.Plan.MaxLoadBytes()
}

// Limits returns the segmentation limits a policy implies for one of n
// tasks on the platform: its share of the staging SRAM and its preemption
// granularity.
func (p Policy) Limits(plat cost.Platform, n int) segment.Limits {
	return segment.Limits{Bytes: SegmentBudget(plat, n, p), ComputeNs: p.MaxSegNs}
}

// Provision checks that the task set's staging buffers fit the platform's
// weight-buffer SRAM under policy p.
//
// RT-MDM statically partitions the staging SRAM per task (each task owns
// Depth buffers of its own max segment size), which makes cross-job
// prefetching deadlock-free by construction. Serial policies hold at most
// one staged segment plus one in-flight transfer globally, so only the two
// largest segments matter.
func Provision(s *task.Set, plat cost.Platform, p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := s.Validate(); err != nil {
		return err
	}
	var need int64
	if p.PrefetchAcrossJobs {
		for _, t := range s.Tasks {
			need += MaxBufferBytes(t, p)
		}
	} else {
		// At most one job holds a staged segment while another segment
		// (of the same or the next job) is in flight.
		var first, second int64
		for _, t := range s.Tasks {
			m := t.Plan.MaxLoadBytes()
			if m > first {
				first, second = m, first
			} else if m > second {
				second = m
			}
		}
		need = int64(p.Depth)*first + second
	}
	if need > plat.WeightBufBytes {
		return fmt.Errorf("core: policy %s needs %d B of staging SRAM, platform %s provides %d B",
			p.Name, need, plat.Name, plat.WeightBufBytes)
	}
	// Activation residency: every preempted job parks its boundary
	// activations in the non-staging SRAM while the running job uses its
	// in-flight working set. Job-level non-preemption never parks state.
	actSRAM := plat.SRAMBytes - plat.WeightBufBytes
	var actNeed int64
	for _, t := range s.Tasks {
		// Synthetic plans (tests) carry no model and report 0.
		actNeed = max(actNeed, t.Plan.PeakActivationBytes())
	}
	if !p.JobLevelNP {
		var resident int64
		for _, t := range s.Tasks {
			resident += t.Plan.MaxResidentBytes()
		}
		actNeed += resident
	}
	if actNeed > actSRAM {
		return fmt.Errorf("core: policy %s needs %d B of activation SRAM, platform %s provides %d B",
			p.Name, actNeed, plat.Name, actSRAM)
	}
	return nil
}

// SegmentBudget returns the per-segment staging budget to use when
// segmenting models for n tasks under policy p on the platform: the weight
// buffer divided evenly across tasks and buffer depths. Workload generators
// use it so that Provision holds by construction.
func SegmentBudget(plat cost.Platform, n int, p Policy) int64 {
	depth := int64(p.Depth)
	if !p.PrefetchAcrossJobs {
		// Serial policies share the staging SRAM: one resident buffer
		// plus one in flight.
		return plat.WeightBufBytes / (depth + 1)
	}
	if n < 1 {
		n = 1
	}
	return plat.WeightBufBytes / (int64(n) * depth)
}

// PolicyByName resolves a named policy: "rt-mdm", "rt-mdm-edf",
// "rt-mdm-fifodma", "serial-npfp", "serial-segfp", "serial-segedf", or
// "rt-mdm-dN" for a depth-N variant.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "rt-mdm":
		return RTMDM(), nil
	case "rt-mdm-edf":
		return RTMDMEDF(), nil
	case "rt-mdm-fifodma":
		return RTMDMFIFODMA(), nil
	case "serial-npfp":
		return SerialNPFP(), nil
	case "serial-segfp":
		return SerialSegFP(), nil
	case "serial-segedf":
		return SerialSegEDF(), nil
	}
	var d int
	if n, err := fmt.Sscanf(name, "rt-mdm-d%d", &d); err == nil && n == 1 && d >= 1 {
		return RTMDMDepth(d), nil
	}
	return Policy{}, fmt.Errorf("core: unknown policy %q (try rt-mdm, serial-npfp, serial-segfp, rt-mdm-edf, rt-mdm-fifodma, rt-mdm-dN)", name)
}

// PolicyNames lists the canonical policy names.
func PolicyNames() []string {
	return []string{"serial-npfp", "serial-segfp", "serial-segedf",
		"rt-mdm", "rt-mdm-edf", "rt-mdm-fifodma"}
}
