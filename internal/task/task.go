// Package task defines the periodic real-time task model of the RT-MDM
// reproduction: a task is a segmented DNN inference released periodically
// with a relative deadline, plus task-set level utilities (priority
// assignment, utilizations, hyperperiods).
package task

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
)

// Task is a periodic DNN inference task. Priorities are fixed per task and
// numerically ascending: smaller Priority value = more urgent.
type Task struct {
	Name string
	Plan *segment.Plan
	// Period is the inter-release time of jobs.
	Period sim.Duration
	// Deadline is relative to release; constrained model (Deadline ≤ Period).
	Deadline sim.Duration
	// Offset delays the first release.
	Offset sim.Duration
	// Jitter is the maximum release delay: job k arrives anywhere in
	// [Offset + k·Period, Offset + k·Period + Jitter]. Must be < Period
	// so releases stay ordered.
	Jitter sim.Duration
	// Priority orders fixed-priority scheduling; smaller is more urgent.
	Priority int
}

// Validate reports parameter errors.
func (t *Task) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("task: empty name")
	}
	if t.Plan == nil || len(t.Plan.Segments) == 0 {
		return fmt.Errorf("task %s: missing segmentation plan", t.Name)
	}
	if t.Period <= 0 {
		return fmt.Errorf("task %s: non-positive period %v", t.Name, t.Period)
	}
	if t.Deadline <= 0 || t.Deadline > t.Period {
		return fmt.Errorf("task %s: deadline %v outside (0, period %v]", t.Name, t.Deadline, t.Period)
	}
	if t.Offset < 0 {
		return fmt.Errorf("task %s: negative offset %v", t.Name, t.Offset)
	}
	if t.Jitter < 0 || t.Jitter >= t.Period {
		return fmt.Errorf("task %s: jitter %v outside [0, period)", t.Name, t.Jitter)
	}
	return nil
}

// NumSegments returns the segment count of the task's plan.
func (t *Task) NumSegments() int { return t.Plan.NumSegments() }

// SerialWCET is the job length with strictly alternating load/compute.
func (t *Task) SerialWCET() sim.Duration { return sim.Duration(t.Plan.SerialNs()) }

// PipelineWCET is the job length under prefetch with the given buffer depth.
func (t *Task) PipelineWCET(depth int) sim.Duration {
	return sim.Duration(t.Plan.PipelineNs(depth))
}

// ComputeNs is the total CPU demand of one job.
func (t *Task) ComputeNs() int64 { return t.Plan.TotalComputeNs() }

// LoadNs is the total DMA demand of one job.
func (t *Task) LoadNs() int64 { return t.Plan.TotalLoadNs() }

// CPUUtilization is compute demand over period.
func (t *Task) CPUUtilization() float64 {
	return float64(t.ComputeNs()) / float64(t.Period) //lint:allow millitime -- utilization ratio; dimensionless by construction
}

// DMAUtilization is load demand over period.
func (t *Task) DMAUtilization() float64 {
	return float64(t.LoadNs()) / float64(t.Period) //lint:allow millitime -- utilization ratio; dimensionless by construction
}

// SerialUtilization is serial WCET over period — the utilization the
// load-then-compute baseline must fit under 1.
func (t *Task) SerialUtilization() float64 {
	return float64(t.SerialWCET()) / float64(t.Period) //lint:allow millitime -- utilization ratio; dimensionless by construction
}

// Set is an ordered collection of tasks.
type Set struct {
	Tasks []*Task
}

// NewSet wraps tasks into a set.
func NewSet(tasks ...*Task) *Set { return &Set{Tasks: tasks} }

// Validate checks every task plus set-level invariants (unique names and
// unique priorities).
func (s *Set) Validate() error {
	if len(s.Tasks) == 0 {
		return fmt.Errorf("task: empty set")
	}
	names := map[string]bool{}
	prios := map[int]string{}
	for _, t := range s.Tasks {
		if err := t.Validate(); err != nil {
			return err
		}
		if names[t.Name] {
			return fmt.Errorf("task: duplicate name %q", t.Name)
		}
		names[t.Name] = true
		if other, dup := prios[t.Priority]; dup {
			return fmt.Errorf("task: %s and %s share priority %d", other, t.Name, t.Priority)
		}
		prios[t.Priority] = t.Name
	}
	return nil
}

// ByPriority returns the tasks sorted most-urgent first (ascending
// Priority). The receiver is not modified.
func (s *Set) ByPriority() []*Task {
	out := append([]*Task(nil), s.Tasks...)
	slices.SortStableFunc(out, func(a, b *Task) int { return cmp.Compare(a.Priority, b.Priority) })
	return out
}

// CPUUtilization sums per-task compute utilizations.
func (s *Set) CPUUtilization() float64 {
	var u float64
	for _, t := range s.Tasks {
		u += t.CPUUtilization()
	}
	return u
}

// DMAUtilization sums per-task load utilizations.
func (s *Set) DMAUtilization() float64 {
	var u float64
	for _, t := range s.Tasks {
		u += t.DMAUtilization()
	}
	return u
}

// SerialUtilization sums per-task serial utilizations.
func (s *Set) SerialUtilization() float64 {
	var u float64
	for _, t := range s.Tasks {
		u += t.SerialUtilization()
	}
	return u
}

// Hyperperiod returns the least common multiple of periods (plus the
// largest offset), capped: if the LCM exceeds cap, cap is returned. Use it
// to bound simulation horizons for periodic workloads.
func (s *Set) Hyperperiod(cap sim.Duration) sim.Duration {
	l := int64(1)
	for _, t := range s.Tasks {
		l = lcm(l, int64(t.Period))
		if l <= 0 || sim.Duration(l) > cap {
			return cap
		}
	}
	var maxOff sim.Duration
	for _, t := range s.Tasks {
		if t.Offset > maxOff {
			maxOff = t.Offset
		}
	}
	h := sim.Duration(l) + maxOff
	if h > cap {
		return cap
	}
	return h
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int64) int64 {
	g := gcd(a, b)
	if g == 0 {
		return 0
	}
	return a / g * b
}

// AssignRM sets rate-monotonic priorities: shorter period = more urgent.
// Ties break by name for determinism. Priorities become 0..n-1.
func (s *Set) AssignRM() {
	order := append([]*Task(nil), s.Tasks...)
	slices.SortStableFunc(order, func(a, b *Task) int {
		return cmp.Or(cmp.Compare(a.Period, b.Period), strings.Compare(a.Name, b.Name))
	})
	for i, t := range order {
		t.Priority = i
	}
}

// AssignDM sets deadline-monotonic priorities: shorter relative deadline =
// more urgent. Ties break by name. Priorities become 0..n-1.
func (s *Set) AssignDM() {
	order := append([]*Task(nil), s.Tasks...)
	slices.SortStableFunc(order, func(a, b *Task) int {
		return cmp.Or(cmp.Compare(a.Deadline, b.Deadline), strings.Compare(a.Name, b.Name))
	})
	for i, t := range order {
		t.Priority = i
	}
}
