package main

import (
	"context"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/corpus"
	"rtmdm/internal/cost"
	"rtmdm/internal/exec"
	"rtmdm/internal/expr"
	"rtmdm/internal/metrics"
	"rtmdm/internal/models"
	"rtmdm/internal/scenario"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
	"rtmdm/internal/workload"
)

// Attribution replays. The traced run times the benchmark's own calls
// into each layer's public functions on the inputs the workload used;
// program code carries no timers. Each replay records one span per
// layer call under a parent span, so the per-layer means and the self
// time of the parent fall out of the span aggregate.

// instrumentAll points every package-level instrument hook at reg
// (nil turns instrumentation off again).
func instrumentAll(reg *metrics.Registry) {
	workload.Instrument(reg)
	exec.Instrument(reg)
	analysis.Instrument(reg)
	expr.Instrument(reg)
	corpus.Instrument(reg)
}

// counter reads a counter or histogram count from a snapshot (0 when
// absent).
func counter(s metrics.Snapshot, name string) float64 {
	sm, ok := s.Get(name)
	if !ok {
		return 0
	}
	return float64(sm.Value)
}

// simEvents accumulates the simulator events fired by replayed exec.Run
// calls, read from the registry around each call.
type simEvents struct {
	reg    *metrics.Registry
	events float64
	runs   float64
}

func (e *simEvents) run(rec *recorder, parent int, req uint64, set *task.Set, plat cost.Platform, pol core.Policy, horizon sim.Duration) {
	before := counter(e.reg.Snapshot(), "sim.events_fired")
	id := rec.begin("exec.run", parent, req)
	_, err := exec.Run(set, plat, pol, horizon)
	rec.end(id)
	if err != nil {
		return
	}
	e.events += counter(e.reg.Snapshot(), "sim.events_fired") - before
	e.runs++
}

// replayTasks times models.Build and segment.BuildLimits for each task
// of an instantiated set, under the policy's limits at the set's size.
func replayTasks(rec *recorder, parent int, req uint64, specs []taskModel, plat cost.Platform, pol core.Policy) {
	lim := pol.Limits(plat, len(specs))
	for _, tm := range specs {
		id := rec.begin("models.build", parent, req)
		mod, err := models.Build(tm.model, tm.seed)
		rec.end(id)
		if err != nil {
			continue
		}
		id = rec.begin("segment.build", parent, req)
		_, _ = segment.BuildLimits(mod, plat, lim, segment.Greedy) // an infeasible split is timed like any other
		rec.end(id)
	}
}

// taskModel names one task's zoo model and weight seed.
type taskModel struct {
	model string
	seed  int64
}

// replayCold times the policy's cold schedulability test on a built set.
func replayCold(rec *recorder, parent int, req uint64, set *task.Set, plat cost.Platform, pol core.Policy) {
	test, err := analysis.ForPolicy(pol)
	if err != nil {
		return
	}
	id := rec.begin("analysis.cold", parent, req)
	test(set, plat)
	rec.end(id)
}

// replayScenario times the scenario path on raw scenario JSON: parse,
// canonical hash, build, per-task model and segment builds, the cold
// test, one fresh incremental evaluation, and the nominal simulation.
func replayScenario(ctx context.Context, rec *recorder, ev *simEvents, parent int, req uint64, raw []byte) {
	id := rec.begin("scenario.parse", parent, req)
	sc, err := scenario.Parse(raw)
	rec.end(id)
	if err != nil {
		return
	}
	canon := sc.Canonicalize()
	id = rec.begin("scenario.hash", parent, req)
	_, _ = scenario.CanonicalHash(canon) // parsed scenarios always hash
	rec.end(id)
	id = rec.begin("scenario.build", parent, req)
	set, plat, pol, err := canon.Build()
	rec.end(id)
	if err != nil {
		return
	}
	tms := make([]taskModel, 0, len(canon.Tasks))
	for _, t := range canon.Tasks {
		seed := t.Seed
		if seed == 0 {
			seed = 1
		}
		tms = append(tms, taskModel{t.Model, seed})
	}
	replayTasks(rec, parent, req, tms, plat, pol)
	replayCold(rec, parent, req, set, plat, pol)
	inc := analysis.NewIncrementalAnalyzer()
	id = rec.begin("analysis.incremental", parent, req)
	_, _, _ = inc.Evaluate(ctx, canon) // the verdict is checked by the workload, not here
	rec.end(id)
	ev.run(rec, parent, req, set, plat, pol, canon.Horizon())
}

// layerValues turns the replay spans into per-layer metric values.
func layerValues(st map[string]spanStat, ev *simEvents, v map[string]float64) {
	v["models.build_ms"] = st["models.build"].meanMs()
	v["segment.build_us"] = st["segment.build"].meanMs() * 1e3
	v["scenario.parse_us"] = st["scenario.parse"].meanMs() * 1e3
	v["scenario.hash_us"] = st["scenario.hash"].meanMs() * 1e3
	v["scenario.build_ms"] = st["scenario.build"].meanMs()
	v["analysis.cold_ms"] = st["analysis.cold"].meanMs()
	v["exec.run_ms"] = st["exec.run"].meanMs()
	if ev != nil && ev.events > 0 {
		v["sim.host_ns_per_event"] = float64(st["exec.run"].TotalNs) / ev.events
		if _, ok := v["sim.events_per_run"]; !ok {
			v["sim.events_per_run"] = ev.events / ev.runs
		}
	}
	if _, ok := v["analysis.incremental_us"]; !ok {
		v["analysis.incremental_us"] = st["analysis.incremental"].meanMs() * 1e3
	}
}
