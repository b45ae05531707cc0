// Package rtmdm is a reproduction of "RT-MDM: Real-Time Scheduling
// Framework for Multi-DNN on MCU Using External Memory" (DAC 2024) as a
// deterministic virtual-time simulation stack in pure Go.
//
// The package is the stable public facade over the internal subsystems:
//
//   - internal/nn, internal/models — an int8 quantized DNN substrate and an
//     MLPerf-Tiny-shaped model zoo that really executes;
//   - internal/cost, internal/platform — MCU timing models (CPU, SRAM,
//     external memory, DMA, bus contention) and their simulated devices;
//   - internal/segment — SRAM- and preemption-granularity-bounded model
//     segmentation;
//   - internal/core, internal/exec — the RT-MDM scheduling framework
//     (policies, provisioning) and the virtual-time executor;
//   - internal/analysis — response-time and demand-bound schedulability
//     tests, sound against the executor by construction and by property
//     test;
//   - internal/workload, internal/expr — randomized task-set generation and
//     the reconstructed evaluation (one experiment per table/figure).
//
// # Quick start
//
//	plat := rtmdm.DefaultPlatform()
//	sys := rtmdm.NewSystem(plat, rtmdm.RTMDM())
//	sys.AddTask("kws", "ds-cnn", 50*rtmdm.Millisecond)
//	sys.AddTask("det", "mobilenetv1-0.25", 150*rtmdm.Millisecond)
//	set, _ := sys.Build()
//	verdict, _ := rtmdm.Analyze(set, plat, rtmdm.RTMDM())
//	result, _ := rtmdm.Simulate(set, plat, rtmdm.RTMDM(), rtmdm.Second)
package rtmdm

import (
	"context"
	"fmt"
	"io"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/cosim"
	"rtmdm/internal/cost"
	"rtmdm/internal/dse"
	"rtmdm/internal/exec"
	"rtmdm/internal/expr"
	"rtmdm/internal/fault"
	"rtmdm/internal/models"
	"rtmdm/internal/nn"
	"rtmdm/internal/scenario"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
	"rtmdm/internal/trace"
	"rtmdm/internal/workload"
)

// Re-exported core types. The aliases keep one canonical definition while
// letting users import only this package.
type (
	// Platform describes the target MCU (CPU, memories, bus).
	Platform = cost.Platform
	// Policy is a scheduling configuration (RT-MDM or a baseline).
	Policy = core.Policy
	// Task is one periodic DNN inference task.
	Task = task.Task
	// TaskSet is a schedulable collection of tasks.
	TaskSet = task.Set
	// Model is an executable quantized DNN graph.
	Model = nn.Model
	// Tensor is an int8 activation tensor.
	Tensor = nn.Tensor
	// SegmentPlan is a model's segmentation for a platform.
	SegmentPlan = segment.Plan
	// Result carries a simulation's trace and metrics.
	Result = exec.Result
	// Verdict is a schedulability test outcome.
	Verdict = analysis.Verdict
	// Time is a virtual-time instant (ns); Duration a span.
	Time = sim.Time
	// Duration is a virtual-time span in nanoseconds.
	Duration = sim.Duration
	// WorkloadParams configures random task-set generation.
	WorkloadParams = workload.Params
	// WorkloadSpec is a policy-independent random task-set description.
	WorkloadSpec = workload.SetSpec
	// WorkloadTaskSpec is one task (model, period, deadline) in a
	// WorkloadSpec.
	WorkloadTaskSpec = workload.TaskSpec
	// ExperimentConfig tunes evaluation scale.
	ExperimentConfig = expr.Config
	// ExperimentTable is a rendered experiment result.
	ExperimentTable = expr.Table
	// DesignKnobs enumerates the configuration axes a design-space
	// exploration sweeps.
	DesignKnobs = dse.Knobs
	// DesignPoint is one evaluated hardware/software configuration.
	DesignPoint = dse.Point
	// DesignResult carries an exploration's grid and Pareto frontier.
	DesignResult = dse.Result
	// FaultConfig describes a deterministic fault-injection campaign
	// (overruns, release jitter, DMA slowdowns, transfer faults).
	FaultConfig = fault.Config
	// FaultPlan is a compiled, concurrency-safe injection plan.
	FaultPlan = fault.Plan
	// OverrunPolicy selects how the executor handles deadline overruns
	// (continue, abort, skip-next).
	OverrunPolicy = core.OverrunPolicy
)

// Overrun-handling policies (Policy.Overrun).
const (
	// OverrunContinue lets an overrunning job finish late (default).
	OverrunContinue = core.OverrunContinue
	// OverrunAbort kills a job at its deadline, reclaiming CPU, DMA and
	// staged buffers.
	OverrunAbort = core.OverrunAbort
	// OverrunSkipNext lets the job finish late but sheds its next release.
	OverrunSkipNext = core.OverrunSkipNext
)

// Virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Scheduling policies.
var (
	// RTMDM is the proposed framework (segment preemption + prefetch
	// pipeline + gated priority DMA).
	RTMDM = core.RTMDM
	// RTMDMDepth varies the prefetch buffer depth.
	RTMDMDepth = core.RTMDMDepth
	// RTMDMEDF is the EDF variant.
	RTMDMEDF = core.RTMDMEDF
	// RTMDMPerTaskDepth gives each named task its own prefetch window
	// depth (heterogeneous buffering, extension T24).
	RTMDMPerTaskDepth = core.RTMDMPerTaskDepth
	// RTMDMFIFODMA is the memory-unaware arbitration ablation.
	RTMDMFIFODMA = core.RTMDMFIFODMA
	// SerialNPFP is the whole-job non-preemptive baseline (vanilla
	// TFLM-style execution).
	SerialNPFP = core.SerialNPFP
	// SerialSegFP is the segment-preemptive, no-overlap baseline.
	SerialSegFP = core.SerialSegFP
	// ComparisonSet is the headline policy lineup.
	ComparisonSet = core.ComparisonSet
)

// MaxBufferBytes is the staging SRAM one task's prefetch window pins under
// a policy: its window depth, capped at its segment count, times its
// largest segment.
var MaxBufferBytes = core.MaxBufferBytes

// DefaultPlatform returns the default evaluation target (STM32H743-class:
// 480 MHz Cortex-M7, 512 KiB SRAM, 32 MB/s QSPI flash).
func DefaultPlatform() Platform { return cost.STM32H743 }

// Platforms lists the built-in platform presets.
func Platforms() []Platform { return cost.Platforms() }

// PlatformByName resolves a preset platform.
func PlatformByName(name string) (Platform, error) { return cost.PlatformByName(name) }

// ModelNames lists the model zoo.
func ModelNames() []string { return models.Names() }

// BuildModel constructs a zoo model with deterministic synthetic weights.
func BuildModel(name string, seed int64) (*Model, error) { return models.Build(name, seed) }

// SaveModel writes a model as a CRC-protected binary artifact (the
// repository's equivalent of a deployable .tflite blob).
func SaveModel(m *Model, w io.Writer) error { return m.Save(w) }

// LoadModel reads a binary model artifact, verifying its checksum and
// validating the graph.
func LoadModel(r io.Reader) (*Model, error) { return nn.Load(r) }

// NewInput allocates a zeroed input tensor matching the model.
func NewInput(m *Model) *Tensor { return nn.NewTensor(m.Input, m.InQuant) }

// RandomInput fills a fresh input tensor with deterministic pseudo-random
// int8 samples (for demos and benchmarks).
func RandomInput(m *Model, seed int64) *Tensor {
	x := NewInput(m)
	s := uint64(seed)*2654435761 + 12345
	for i := range x.Data {
		// xorshift64* keeps the facade free of math/rand.
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		x.Data[i] = int8(s % 255)
	}
	return x
}

// SegmentModel produces the segmentation a policy would deploy for one of
// n co-resident tasks on the platform.
func SegmentModel(m *Model, plat Platform, pol Policy, n int) (*SegmentPlan, error) {
	return segment.BuildLimits(m, plat, pol.Limits(plat, n), segment.Greedy)
}

// System assembles a multi-DNN task set for one platform and policy.
type System struct {
	plat  Platform
	pol   Policy
	specs []sysTask
}

type sysTask struct {
	name     string
	model    string
	period   Duration
	deadline Duration
}

// NewSystem starts building a task set targeting the platform and policy.
func NewSystem(plat Platform, pol Policy) *System {
	return &System{plat: plat, pol: pol}
}

// AddTask registers a periodic inference of a zoo model with an implicit
// deadline (= period).
func (s *System) AddTask(name, model string, period Duration) *System {
	return s.AddTaskDeadline(name, model, period, period)
}

// AddTaskDeadline registers a periodic inference with an explicit relative
// deadline (constrained: deadline ≤ period).
func (s *System) AddTaskDeadline(name, model string, period, deadline Duration) *System {
	s.specs = append(s.specs, sysTask{name: name, model: model,
		period: period, deadline: deadline})
	return s
}

// Build segments every model under the policy's SRAM share and preemption
// granularity, assigns rate-monotonic priorities, and verifies SRAM
// provisioning. The returned set is ready for Analyze and Simulate.
func (s *System) Build() (*TaskSet, error) {
	if len(s.specs) == 0 {
		return nil, fmt.Errorf("rtmdm: no tasks added")
	}
	lim := s.pol.Limits(s.plat, len(s.specs))
	var ts []*Task
	for _, sp := range s.specs {
		m, err := models.Reference(sp.model)
		if err != nil {
			return nil, err
		}
		pl, err := segment.BuildLimits(m, s.plat, lim, segment.Greedy)
		if err != nil {
			return nil, err
		}
		ts = append(ts, &Task{Name: sp.name, Plan: pl,
			Period: sp.period, Deadline: sp.deadline})
	}
	set := task.NewSet(ts...)
	set.AssignRM()
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if err := core.Provision(set, s.plat, s.pol); err != nil {
		return nil, err
	}
	return set, nil
}

// Simulate runs the task set on the platform under the policy in virtual
// time until the horizon, returning the full trace and metrics. The trace
// is invariant-checked as it is produced.
func Simulate(set *TaskSet, plat Platform, pol Policy, horizon Duration) (*Result, error) {
	return SimulateWithFaults(set, plat, pol, horizon, nil)
}

// NewFaultPlan compiles a fault configuration into an injection plan for
// runs up to the given horizon. Every decision is a pure function of the
// seed, so a fixed seed reproduces the exact fault sequence. It returns
// (nil, nil) — inject nothing — when the configuration enables no faults.
func NewFaultPlan(cfg FaultConfig, horizon Duration) (*FaultPlan, error) {
	return fault.New(cfg, horizon)
}

// SimulateWithFaults runs like Simulate while injecting the plan's faults
// (nil plan = nominal run, identical to Simulate). Overrun handling follows
// pol.Overrun.
func SimulateWithFaults(set *TaskSet, plat Platform, pol Policy, horizon Duration, plan *FaultPlan) (*Result, error) {
	return exec.RunWithFaultsContext(context.Background(), set, plat, pol, horizon, plan, &trace.Trace{})
}

// Analyze applies the schedulability test matching the policy. It returns
// an error for policies without a sound offline test (FIFO DMA ablation).
func Analyze(set *TaskSet, plat Platform, pol Policy) (Verdict, error) {
	test, err := analysis.ForPolicy(pol)
	if err != nil {
		return Verdict{}, err
	}
	return test(set, plat), nil
}

// LoadScenario reads a JSON deployment description (see internal/scenario
// for the schema) and instantiates it: a provisioned task set plus the
// platform, policy and horizon it names.
func LoadScenario(path string) (*TaskSet, Platform, Policy, Duration, error) {
	sc, err := scenario.Load(path)
	if err != nil {
		return nil, Platform{}, Policy{}, 0, err
	}
	set, plat, pol, err := sc.Build()
	if err != nil {
		return nil, Platform{}, Policy{}, 0, err
	}
	return set, plat, pol, sc.Horizon(), nil
}

// RenderTimeline writes an ASCII Gantt chart of a simulation result's
// window [from, to) at the given column width (0 = default 100).
func RenderTimeline(w io.Writer, r *Result, from, to Time, width int) error {
	return trace.Timeline{From: from, To: to, Width: width}.Render(w, r.Trace, r.Infos)
}

// ExecutePlan runs one inference through a segmentation plan's staged
// pieces (slicing fractionally split layers), producing output bit-identical
// to Model.Forward — the property internal/cosim proves for the whole zoo.
func ExecutePlan(pl *SegmentPlan, input *Tensor) (*Tensor, error) {
	return cosim.ExecutePlan(pl, input)
}

// Breakdown binary-searches the largest period-compression factor α under
// which the policy's analysis still accepts the set (the classic breakdown
// utilization metric): α > 1 means timing headroom. It errors for policies
// without a sound test.
func Breakdown(set *TaskSet, plat Platform, pol Policy, tol float64) (float64, error) {
	test, err := analysis.ForPolicy(pol)
	if err != nil {
		return 0, err
	}
	return analysis.BreakdownFactor(set, plat, test, tol), nil
}

// DefaultDesignKnobs returns a practical exploration grid for a platform:
// staging partitions from 1/8 to 1/2 of SRAM, depths 2-4, preemption
// granularities from 0.25 to 2 ms, and whole-segment vs 8 KiB chunked DMA.
func DefaultDesignKnobs(plat Platform) DesignKnobs { return dse.DefaultKnobs(plat) }

// ExploreDesignSpace evaluates the full knob grid for one workload: each
// configuration is re-segmented, provisioned and analyzed, and the result
// carries the Pareto frontier between staging-SRAM cost and guaranteed
// timing margin (breakdown factor). Use DesignResult.Recommend to pick the
// deployment configuration.
func ExploreDesignSpace(spec WorkloadSpec, plat Platform, k DesignKnobs) (*DesignResult, error) {
	return dse.Explore(spec, plat, k)
}

// GenerateWorkload draws a random policy-independent task-set spec.
func GenerateWorkload(p WorkloadParams) (WorkloadSpec, error) { return workload.Generate(p) }

// Experiments lists the reconstructed evaluation, in DESIGN.md order.
func Experiments() []expr.Experiment { return expr.All() }

// RunExperiment regenerates one table/figure by ID (e.g. "F4").
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentTable, error) {
	e, err := expr.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(cfg)
}

// DefaultExperimentConfig is the full-scale evaluation configuration.
func DefaultExperimentConfig() ExperimentConfig { return expr.DefaultConfig() }

// QuickExperimentConfig shrinks sample counts for fast smoke runs.
func QuickExperimentConfig() ExperimentConfig { return expr.QuickConfig() }
