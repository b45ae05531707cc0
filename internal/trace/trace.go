// Package trace describes what the virtual-time executor did — releases,
// parameter loads, segment executions, completions, deadline misses — as
// a stream of events, checks the stream's invariants and derives metrics
// from it as it happens (Checker), and records it when a caller asks for
// the events (Trace). Every scheduling claim in the evaluation is
// auditable against these checks.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"

	"rtmdm/internal/core"
	"rtmdm/internal/sim"
)

// Kind enumerates trace event types.
type Kind int

const (
	// Release marks a job arrival.
	Release Kind = iota
	// LoadStart marks a segment's parameter transfer occupying the DMA.
	LoadStart
	// LoadEnd marks the transfer completion (same instant as LoadStart
	// for zero-byte segments, which issue no transfer).
	LoadEnd
	// ComputeStart marks a segment occupying the CPU.
	ComputeStart
	// ComputeEnd marks the segment's completion.
	ComputeEnd
	// JobDone marks the completion of a job's last segment.
	JobDone
	// DeadlineMiss marks the instant a job's absolute deadline passed
	// without completion.
	DeadlineMiss
	// Overrun marks an injected compute-WCET exceedance: the segment's
	// compute phase runs longer than its modeled cost. Bytes carries the
	// extra nanoseconds. Emitted at the segment's ComputeStart instant.
	Overrun
	// Abort marks a job killed at its deadline under core.OverrunAbort.
	// Exactly one Abort is emitted per aborted job, at the same instant as
	// its DeadlineMiss, and no further events for that job may follow.
	Abort
	// DMARetry marks a chunk transfer lost to an injected transient fault:
	// the transfer occupied the channel for its full duration (DMARetry
	// closes the occupancy interval like LoadEnd) but staged nothing, and
	// the chunk is re-issued after a backoff.
	DMARetry
)

var kindNames = [...]string{
	"release", "load-start", "load-end", "compute-start", "compute-end",
	"job-done", "deadline-miss", "overrun", "abort", "dma-retry",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one timestamped occurrence.
type Event struct {
	At      sim.Time
	Kind    Kind
	Task    string
	Job     int
	Segment int // -1 for job-level events
	// Bytes is the transfer size on LoadStart/LoadEnd events. Zero-byte
	// loads are instantaneous and never occupy the DMA channel, so the
	// exclusivity invariant ignores them.
	Bytes int64
}

func (e Event) String() string {
	if e.Segment >= 0 {
		return fmt.Sprintf("%v %s %s#%d seg%d", e.At, e.Kind, e.Task, e.Job, e.Segment)
	}
	return fmt.Sprintf("%v %s %s#%d", e.At, e.Kind, e.Task, e.Job)
}

// Trace is an append-only event log.
type Trace struct {
	Events []Event
}

// Add appends an event. Timestamps must be nondecreasing.
func (tr *Trace) Add(e Event) {
	if n := len(tr.Events); n > 0 && e.At < tr.Events[n-1].At {
		panic(fmt.Sprintf("trace: time went backwards: %v after %v", e, tr.Events[n-1]))
	}
	tr.Events = append(tr.Events, e)
}

// Len returns the event count.
func (tr *Trace) Len() int { return len(tr.Events) }

// Dump writes the whole trace, one event per line.
func (tr *Trace) Dump(w io.Writer) {
	for _, e := range tr.Events {
		fmt.Fprintln(w, e)
	}
}

// TaskInfo is the static description Metrics and CheckInvariants need
// about each task (kept minimal to avoid a dependency on internal/task).
type TaskInfo struct {
	Name     string
	Period   sim.Duration
	Deadline sim.Duration
	Offset   sim.Duration
	// Jitter is the maximum release delay past the nominal grid point.
	Jitter   sim.Duration
	Segments int
}

// TaskMetrics aggregates per-task outcomes.
type TaskMetrics struct {
	Released      int
	Completed     int
	Misses        int
	Aborted       int // jobs killed at their deadline under OverrunAbort
	Unfinished    int // released, incomplete at horizon, deadline already passed or not
	MaxResponse   sim.Duration
	TotalResponse sim.Duration
	MaxLateness   sim.Duration // max(completion - deadline), negative if always early
	// Responses holds every completed job's response time, in completion
	// order (the raw series percentiles derive from).
	Responses []sim.Duration
}

// Percentile returns the p-th percentile (0 < p ≤ 100) of completed
// responses using the nearest-rank method, or 0 with no completions.
func (m *TaskMetrics) Percentile(p float64) sim.Duration {
	if len(m.Responses) == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]sim.Duration(nil), m.Responses...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// AvgResponse returns the mean response time of completed jobs.
func (m *TaskMetrics) AvgResponse() sim.Duration {
	if m.Completed == 0 {
		return 0
	}
	return m.TotalResponse / sim.Duration(m.Completed)
}

// MissRatio returns misses (including unfinished jobs whose deadline fell
// within the horizon) over released jobs.
func (m *TaskMetrics) MissRatio() float64 {
	if m.Released == 0 {
		return 0
	}
	return float64(m.Misses) / float64(m.Released)
}

// Metrics summarizes a trace against a task set.
type Metrics struct {
	Horizon sim.Time
	PerTask map[string]*TaskMetrics
}

// TotalMissRatio is total misses over total releases.
func (m *Metrics) TotalMissRatio() float64 {
	var miss, rel int
	for _, tm := range m.PerTask {
		miss += tm.Misses
		rel += tm.Released
	}
	if rel == 0 {
		return 0
	}
	return float64(miss) / float64(rel)
}

// AnyMiss reports whether any deadline was missed.
func (m *Metrics) AnyMiss() bool {
	for _, tm := range m.PerTask {
		if tm.Misses > 0 {
			return true
		}
	}
	return false
}

// Analyze computes metrics from the trace. A job counts as a miss if a
// DeadlineMiss event was recorded for it, or if it remained unfinished at
// the horizon with its absolute deadline inside the horizon. It replays
// the events through the accumulator the executor streams into (see
// Checker), keeping every job so any event sequence is measured.
func (tr *Trace) Analyze(tasks []TaskInfo, horizon sim.Time) *Metrics {
	c := newChecker(tasks, horizon)
	for _, e := range tr.Events {
		c.Observe(e)
	}
	return c.Metrics()
}

// CheckInvariants verifies the physical consistency of the trace (PT-3):
//
//  1. CPU exclusivity: compute intervals never overlap.
//  2. DMA exclusivity: load intervals never overlap.
//  3. Per job, segment computes happen in index order, and each segment's
//     compute starts no earlier than its load completed.
//  4. Job releases fall within [Offset + k·Period, … + Jitter].
//  5. JobDone coincides with the job's last segment ComputeEnd.
//  6. DeadlineMiss events sit exactly at release + Deadline and only for
//     jobs that had not completed by then.
//  7. Abort events sit exactly at release + Deadline, occur at most once
//     per job, only for incomplete jobs, reclaim any CPU/DMA interval the
//     job held, and terminate the job: no later event may reference it.
//  8. DMARetry closes the DMA occupancy interval of the faulted chunk like
//     LoadEnd, but stages nothing (a segment may not compute on its back).
//  9. Overrun events reference a released, incomplete job.
func (tr *Trace) CheckInvariants(tasks []TaskInfo) error {
	info := map[string]TaskInfo{}
	for _, ti := range tasks {
		info[ti.Name] = ti
	}
	type jobKey struct {
		task string
		job  int
	}
	cpuBusy := false
	dmaBusy := false
	var cpuOwner, dmaOwner Event
	loadDone := map[jobKey]map[int]sim.Time{}
	lastSeg := map[jobKey]int{}
	releases := map[jobKey]sim.Time{}
	lastComputeEnd := map[jobKey]Event{}
	jobDone := map[jobKey]Event{}
	aborted := map[jobKey]bool{}

	for _, e := range tr.Events {
		k := jobKey{e.Task, e.Job}
		if aborted[k] {
			return fmt.Errorf("trace: %v references a job already aborted", e)
		}
		switch e.Kind {
		case Release:
			ti, ok := info[e.Task]
			if !ok {
				return fmt.Errorf("trace: release for unknown task %q", e.Task)
			}
			nominal := core.SatAddTime(ti.Offset, core.SatMulTime(ti.Period, int64(e.Job)))
			if e.At < nominal || e.At > nominal+ti.Jitter {
				return fmt.Errorf("trace: %s#%d released at %v, want within [%v, %v]",
					e.Task, e.Job, e.At, nominal, nominal+ti.Jitter)
			}
			releases[k] = e.At
		case LoadStart:
			if e.Bytes == 0 {
				continue // instantaneous, channel not occupied
			}
			if dmaBusy {
				return fmt.Errorf("trace: DMA overlap: %v begins while %v in flight", e, dmaOwner)
			}
			dmaBusy, dmaOwner = true, e
		case LoadEnd:
			if e.Bytes != 0 {
				if !dmaBusy || dmaOwner.Task != e.Task || dmaOwner.Job != e.Job || dmaOwner.Segment != e.Segment {
					return fmt.Errorf("trace: unmatched load-end %v (owner %v)", e, dmaOwner)
				}
				dmaBusy = false
			}
			if loadDone[k] == nil {
				loadDone[k] = map[int]sim.Time{}
			}
			loadDone[k][e.Segment] = e.At
		case ComputeStart:
			if cpuBusy {
				return fmt.Errorf("trace: CPU overlap: %v begins while %v in flight", e, cpuOwner)
			}
			cpuBusy, cpuOwner = true, e
			ld, ok := loadDone[k][e.Segment]
			if !ok {
				return fmt.Errorf("trace: %v computes before its load completed", e)
			}
			if e.At < ld {
				return fmt.Errorf("trace: %v computes at %v before load done at %v", e, e.At, ld)
			}
			if prev, ok := lastSeg[k]; ok && e.Segment != prev+1 {
				return fmt.Errorf("trace: %s#%d segment order %d after %d", e.Task, e.Job, e.Segment, prev)
			} else if !ok && e.Segment != 0 {
				return fmt.Errorf("trace: %s#%d first computed segment is %d", e.Task, e.Job, e.Segment)
			}
			lastSeg[k] = e.Segment
		case ComputeEnd:
			if !cpuBusy || cpuOwner.Task != e.Task || cpuOwner.Job != e.Job || cpuOwner.Segment != e.Segment {
				return fmt.Errorf("trace: unmatched compute-end %v (owner %v)", e, cpuOwner)
			}
			cpuBusy = false
			lastComputeEnd[k] = e
		case JobDone:
			ti := info[e.Task]
			le, ok := lastComputeEnd[k]
			if !ok || le.At != e.At || le.Segment != ti.Segments-1 {
				return fmt.Errorf("trace: job-done %v does not coincide with last segment end (%v)", e, le)
			}
			jobDone[k] = e
		case DeadlineMiss:
			ti, ok := info[e.Task]
			if !ok {
				return fmt.Errorf("trace: miss for unknown task %q", e.Task)
			}
			rel, ok := releases[k]
			if !ok {
				return fmt.Errorf("trace: %v without a release", e)
			}
			if want := rel + ti.Deadline; e.At != want {
				return fmt.Errorf("trace: %v at %v, want the absolute deadline %v", e, e.At, want)
			}
			if done, ok := jobDone[k]; ok && done.At <= e.At {
				return fmt.Errorf("trace: %v after the job completed at %v", e, done.At)
			}
		case Overrun:
			if _, ok := releases[k]; !ok {
				return fmt.Errorf("trace: %v without a release", e)
			}
			if _, ok := jobDone[k]; ok {
				return fmt.Errorf("trace: %v after the job completed", e)
			}
		case DMARetry:
			if e.Bytes == 0 {
				continue // zero-byte loads never occupy the channel
			}
			if !dmaBusy || dmaOwner.Task != e.Task || dmaOwner.Job != e.Job || dmaOwner.Segment != e.Segment {
				return fmt.Errorf("trace: unmatched dma-retry %v (owner %v)", e, dmaOwner)
			}
			dmaBusy = false
		case Abort:
			ti, ok := info[e.Task]
			if !ok {
				return fmt.Errorf("trace: abort for unknown task %q", e.Task)
			}
			rel, ok := releases[k]
			if !ok {
				return fmt.Errorf("trace: %v without a release", e)
			}
			if want := rel + ti.Deadline; e.At != want {
				return fmt.Errorf("trace: %v at %v, want the absolute deadline %v", e, e.At, want)
			}
			if _, ok := jobDone[k]; ok {
				return fmt.Errorf("trace: %v for a completed job", e)
			}
			// The abort reclaims whatever interval the job held open.
			if cpuBusy && cpuOwner.Task == e.Task && cpuOwner.Job == e.Job {
				cpuBusy = false
			}
			if dmaBusy && dmaOwner.Task == e.Task && dmaOwner.Job == e.Job {
				dmaBusy = false
			}
			aborted[k] = true
		}
	}
	return nil
}

// CSV writes the trace as comma-separated rows: at_ns, kind, task, job,
// segment, bytes — the interchange format for offline tooling.
func (tr *Trace) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "at_ns,kind,task,job,segment,bytes"); err != nil {
		return err
	}
	for _, e := range tr.Events {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d\n",
			int64(e.At), e.Kind, e.Task, e.Job, e.Segment, e.Bytes); err != nil {
			return err
		}
	}
	return nil
}
