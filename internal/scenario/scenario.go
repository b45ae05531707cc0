// Package scenario loads multi-DNN deployment descriptions from JSON, so
// experiments and CLI runs can be version-controlled and shared. A scenario
// pins the platform, the policy, the horizon, and the task list; Build
// turns it into a runnable, provisioned task set.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/fault"
	"rtmdm/internal/models"
	"rtmdm/internal/nn"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
)

// TaskSpec is one periodic DNN inference in a scenario file.
type TaskSpec struct {
	// Name is the task identifier (unique within the scenario).
	Name string `json:"name"`
	// Model names a zoo entry. Mutually exclusive with ModelFile.
	Model string `json:"model,omitempty"`
	// ModelFile points at a binary model artifact (see nn.Save / the
	// rtmdm-inspect -export flag). Mutually exclusive with Model.
	ModelFile string `json:"model_file,omitempty"`
	// Seed selects the synthetic weights (default 1) for callers that run
	// the model's kernels (models.Build). Build and BuildTask never read
	// it: the seed changes weight values, not the topology, so every zoo
	// task segments the shared models.Reference instance. The field stays
	// in the schema and in CanonicalHash.
	Seed int64 `json:"seed,omitempty"`
	// PeriodMs is the release period in milliseconds.
	PeriodMs float64 `json:"period_ms"`
	// DeadlineMs is the relative deadline (default: the period).
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// OffsetMs delays the first release.
	OffsetMs float64 `json:"offset_ms,omitempty"`
	// Priority pins a fixed priority; omit everywhere for rate-monotonic
	// assignment (mixing pinned and unpinned priorities is rejected).
	Priority *int `json:"priority,omitempty"`
}

// FaultSpec is the optional fault-injection stanza: the fault.Config rates
// (inlined) plus the overrun-handling discipline the executor applies to
// deadline misses.
type FaultSpec struct {
	fault.Config
	// Overrun selects the handling policy: "continue" (default), "abort",
	// or "skip-next".
	Overrun string `json:"overrun,omitempty"`
}

// Scenario is a complete deployment description.
type Scenario struct {
	// Platform names a preset (default "stm32h743").
	Platform string `json:"platform,omitempty"`
	// Policy names a scheduling policy (default "rt-mdm").
	Policy string `json:"policy,omitempty"`
	// HorizonMs bounds the simulation (default 1000).
	HorizonMs float64    `json:"horizon_ms,omitempty"`
	Tasks     []TaskSpec `json:"tasks"`
	// Faults optionally enables deterministic fault injection for the run.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// Parse decodes a scenario from JSON, rejecting unknown fields.
func Parse(data []byte) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if len(sc.Tasks) == 0 {
		return nil, fmt.Errorf("scenario: no tasks")
	}
	if err := sc.ValidateNumbers(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// maxMs bounds every millisecond-denominated field: anything larger would
// overflow the int64 nanosecond conversion (1e12 ms = ~11.5 simulated days,
// comfortably inside int64 ns).
const maxMs = 1e12

// ValidateNumbers rejects non-finite or overflow-prone timing fields early:
// JSON permits no NaN/Inf literals, but scenarios can also be constructed in
// Go, a NaN period slips past ordinary "<= 0" guards, and a huge horizon
// overflows the ns conversion into negative virtual time. Build applies it
// implicitly; the incremental admission path (internal/analysis) calls it
// directly so its error behavior matches Build's exactly.
func (sc *Scenario) ValidateNumbers() error {
	sane := func(v float64) bool { return !math.IsNaN(v) && v <= maxMs && v >= -maxMs }
	if !sane(sc.HorizonMs) {
		return fmt.Errorf("scenario: horizon_ms %v out of range", sc.HorizonMs)
	}
	for _, tsp := range sc.Tasks {
		if !sane(tsp.PeriodMs) || !sane(tsp.DeadlineMs) || !sane(tsp.OffsetMs) {
			return fmt.Errorf("scenario: task %s: timing out of range (period %v, deadline %v, offset %v)",
				tsp.Name, tsp.PeriodMs, tsp.DeadlineMs, tsp.OffsetMs)
		}
	}
	return nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// Horizon returns the simulation window.
func (sc *Scenario) Horizon() sim.Duration {
	ms := sc.HorizonMs
	if ms <= 0 {
		ms = 1000
	}
	return sim.Duration(ms * float64(sim.Millisecond)) //lint:allow millitime -- config-parse boundary: horizon given as float ms in the scenario file
}

// Resolve returns the platform and policy presets the scenario names.
func (sc *Scenario) Resolve() (cost.Platform, core.Policy, error) {
	platName := sc.Platform
	if platName == "" {
		platName = "stm32h743"
	}
	plat, err := cost.PlatformByName(platName)
	if err != nil {
		return cost.Platform{}, core.Policy{}, err
	}
	polName := sc.Policy
	if polName == "" {
		polName = "rt-mdm"
	}
	pol, err := core.PolicyByName(polName)
	if err != nil {
		return cost.Platform{}, core.Policy{}, err
	}
	if sc.Faults != nil {
		op, err := core.ParseOverrunPolicy(sc.Faults.Overrun)
		if err != nil {
			return cost.Platform{}, core.Policy{}, fmt.Errorf("scenario: %w", err)
		}
		pol.Overrun = op
	}
	return plat, pol, nil
}

// FaultPlan compiles the scenario's faults stanza into an injection plan
// spanning the scenario horizon. It returns (nil, nil) when the stanza is
// absent or describes no faults.
func (sc *Scenario) FaultPlan() (*fault.Plan, error) {
	if sc.Faults == nil {
		return nil, nil
	}
	plan, err := fault.New(sc.Faults.Config, sc.Horizon())
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return plan, nil
}

// Build instantiates the scenario: models are resolved and segmented under
// the policy's limits, priorities are pinned or assigned rate-monotonic,
// and SRAM provisioning is verified.
func (sc *Scenario) Build() (*task.Set, cost.Platform, core.Policy, error) {
	if err := sc.ValidateNumbers(); err != nil {
		return nil, cost.Platform{}, core.Policy{}, err
	}
	plat, pol, err := sc.Resolve()
	if err != nil {
		return nil, cost.Platform{}, core.Policy{}, err
	}
	lim := pol.Limits(plat, len(sc.Tasks))
	pinned := 0
	var ts []*task.Task
	for _, tsp := range sc.Tasks {
		tk, err := BuildTask(tsp, plat, lim)
		if err != nil {
			return nil, plat, pol, err
		}
		if tsp.Priority != nil {
			pinned++
		}
		ts = append(ts, tk)
	}
	if pinned != 0 && pinned != len(ts) {
		return nil, plat, pol, fmt.Errorf("scenario: %d of %d tasks pin priorities; pin all or none", pinned, len(ts))
	}
	set := task.NewSet(ts...)
	if pinned == 0 {
		set.AssignRM()
	}
	if err := set.Validate(); err != nil {
		return nil, plat, pol, err
	}
	if err := core.Provision(set, plat, pol); err != nil {
		return nil, plat, pol, err
	}
	return set, plat, pol, nil
}

// BuildTask instantiates one task spec under a platform and segmentation
// limits: the model is the shared zoo instance (models.Reference) or is
// loaded (model_file), segmented greedily under lim, and wrapped in a
// task with converted timing. A pinned Priority is applied;
// rate-monotonic assignment over a whole set remains the caller's job.
// This is Build's per-task body, extracted so the admission hot path
// (internal/analysis) can build and cache tasks one at a time with error
// behavior identical to Build's.
// Note lim normally comes from pol.Limits(plat, n): segment budgets
// depend on the task COUNT of the surrounding set, so a cached build is
// only reusable at the same n.
func BuildTask(tsp TaskSpec, plat cost.Platform, lim segment.Limits) (*task.Task, error) {
	if tsp.PeriodMs <= 0 {
		return nil, fmt.Errorf("scenario: task %s: period %v ms", tsp.Name, tsp.PeriodMs)
	}
	var m *nn.Model
	switch {
	case tsp.Model != "" && tsp.ModelFile != "":
		return nil, fmt.Errorf("scenario: task %s: set model or model_file, not both", tsp.Name)
	case tsp.ModelFile != "":
		f, err := os.Open(tsp.ModelFile)
		if err != nil {
			return nil, fmt.Errorf("scenario: task %s: %w", tsp.Name, err)
		}
		m, err = nn.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("scenario: task %s: %w", tsp.Name, err)
		}
	case tsp.Model != "":
		var err error
		m, err = models.Reference(tsp.Model)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("scenario: task %s: no model", tsp.Name)
	}
	pl, err := segment.BuildLimits(m, plat, lim, segment.Greedy)
	if err != nil {
		return nil, err
	}
	deadlineMs := tsp.DeadlineMs
	if deadlineMs == 0 {
		deadlineMs = tsp.PeriodMs
	}
	tk := &task.Task{
		Name:     tsp.Name,
		Plan:     pl,
		Period:   sim.Duration(tsp.PeriodMs * float64(sim.Millisecond)), //lint:allow millitime -- config-parse boundary: validated float ms from the scenario file
		Deadline: sim.Duration(deadlineMs * float64(sim.Millisecond)),   //lint:allow millitime -- config-parse boundary: validated float ms from the scenario file
		Offset:   sim.Duration(tsp.OffsetMs * float64(sim.Millisecond)), //lint:allow millitime -- config-parse boundary: validated float ms from the scenario file
	}
	if tsp.Priority != nil {
		tk.Priority = *tsp.Priority
	}
	return tk, nil
}

// ParseTaskList parses the compact CLI syntax
// "model:period_ms[:deadline_ms]( , ...)" into task specs.
func ParseTaskList(spec string, seed int64) ([]TaskSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("scenario: empty task list")
	}
	var out []TaskSpec
	for i, item := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("scenario: bad task spec %q (want model:period_ms[:deadline_ms])", item)
		}
		period, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || period <= 0 {
			return nil, fmt.Errorf("scenario: bad period in %q", item)
		}
		deadline := period
		if len(parts) == 3 {
			if deadline, err = strconv.ParseFloat(parts[2], 64); err != nil || deadline <= 0 {
				return nil, fmt.Errorf("scenario: bad deadline in %q", item)
			}
		}
		out = append(out, TaskSpec{
			Name:       fmt.Sprintf("t%d-%s", i, parts[0]),
			Model:      parts[0],
			Seed:       seed,
			PeriodMs:   period,
			DeadlineMs: deadline,
		})
	}
	return out, nil
}
