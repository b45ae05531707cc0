// Command rtmdm-sim runs one multi-DNN scenario on the simulated MCU and
// reports per-task outcomes, the schedulability verdict, an optional ASCII
// timeline, a Perfetto-loadable trace export, and run-level metrics.
//
// Usage:
//
//	rtmdm-sim -tasks "ds-cnn:50,mobilenetv1-0.25:150,autoencoder:100" \
//	          -policy rt-mdm -horizon 600 [-platform stm32h743] \
//	          [-trace out.json] [-metrics] [-timeline] [-dump]
//	rtmdm-sim -config scenario.json [-timeline]
//
// Each task spec is model:period_ms[:deadline_ms]. JSON scenarios follow
// internal/scenario's schema. -trace writes the Chrome Trace Event Format
// consumed by ui.perfetto.dev (see docs/OBSERVABILITY.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/exec"
	"rtmdm/internal/fault"
	"rtmdm/internal/metrics"
	"rtmdm/internal/scenario"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
	"rtmdm/internal/trace"
)

func main() {
	var (
		taskSpec   = flag.String("tasks", "", "comma-separated model:period_ms[:deadline_ms]")
		configPath = flag.String("config", "", "JSON scenario file (overrides -tasks/-policy/-platform/-horizon)")
		polName    = flag.String("policy", "rt-mdm", "scheduling policy (see -policies)")
		policies   = flag.Bool("policies", false, "list policies and exit")
		platName   = flag.String("platform", "stm32h743", "platform preset")
		horizonMs  = flag.Int64("horizon", 1000, "simulation horizon in ms")
		seed       = flag.Int64("seed", 1, "model weight seed, recorded in the task specs (scheduling results do not depend on it)")
		dumpTrace  = flag.Bool("dump", false, "dump the full execution trace as text")
		traceJSON  = flag.String("trace", "", "write the trace in Trace Event Format (Perfetto/chrome://tracing) to this path")
		traceCSV   = flag.String("trace-csv", "", "write the trace as CSV to this path")
		showMetric = flag.Bool("metrics", false, "dump the run-level metrics snapshot as JSON")
		timeline   = flag.Bool("timeline", false, "render an ASCII Gantt timeline")
		tlWidth    = flag.Int("timeline-width", 120, "timeline width in columns")
		faultSpec  = flag.String("faults", "", "fault-injection spec, e.g. \"overrun=0.2,factor=2,xfer=0.01\" (overrides the scenario stanza)")
		faultSeed  = flag.Int64("fault-seed", 0, "override the fault-injection seed (0 keeps the spec's)")
		overrun    = flag.String("overrun", "", "overrun handling: continue, abort, or skip-next (overrides policy/scenario)")
	)
	flag.Parse()

	if *policies {
		for _, n := range core.PolicyNames() {
			fmt.Println(" ", n)
		}
		return
	}

	var (
		set      *task.Set
		plat     cost.Platform
		pol      core.Policy
		horizon  sim.Duration
		faultCfg *fault.Config
		err      error
	)
	switch {
	case *configPath != "":
		sc, err2 := scenario.Load(*configPath)
		if err2 != nil {
			fatal(err2)
		}
		set, plat, pol, err = sc.Build()
		if err != nil {
			fatal(err)
		}
		horizon = sc.Horizon()
		if sc.Faults != nil {
			cfg := sc.Faults.Config
			faultCfg = &cfg
		}
	case *taskSpec != "":
		specs, err2 := scenario.ParseTaskList(*taskSpec, *seed)
		if err2 != nil {
			fatal(err2)
		}
		sc := &scenario.Scenario{
			Platform:  *platName,
			Policy:    *polName,
			HorizonMs: float64(*horizonMs),
			Tasks:     specs,
		}
		set, plat, pol, err = sc.Build()
		if err != nil {
			// Provisioning and validation errors are fatal except for
			// deliberate over-provisioning experiments, where the message
			// suffices.
			fatal(err)
		}
		horizon = sc.Horizon()
	default:
		fmt.Fprintln(os.Stderr, "rtmdm-sim: pass -tasks or -config")
		os.Exit(2)
	}

	if *faultSpec != "" {
		cfg, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
		faultCfg = &cfg
	}
	var plan *fault.Plan
	if faultCfg != nil {
		if *faultSeed != 0 {
			faultCfg.Seed = *faultSeed
		}
		if plan, err = fault.New(*faultCfg, horizon); err != nil {
			fatal(err)
		}
	}
	if *overrun != "" {
		op, err := core.ParseOverrunPolicy(*overrun)
		if err != nil {
			fatal(err)
		}
		pol.Overrun = op
	}

	fmt.Printf("platform %s, policy %s, horizon %v\n", plat.Name, pol.Name, horizon)
	if plan != nil {
		fmt.Printf("fault injection active (seed %d, overrun handling %s)\n", faultCfg.Seed, pol.Overrun)
	}
	fmt.Printf("reference utilization: cpu %.3f, dma %.3f, serial %.3f\n\n",
		set.CPUUtilization(), set.DMAUtilization(), set.SerialUtilization())

	if test, err := analysis.ForPolicy(pol); err == nil {
		v := test(set, plat)
		fmt.Printf("offline analysis (%s): schedulable=%v", v.Test, v.Schedulable)
		if v.Reason != "" {
			fmt.Printf(" (%s)", v.Reason)
		}
		fmt.Println()
		for _, t := range set.ByPriority() {
			if r, ok := v.WCRT[t.Name]; ok {
				fmt.Printf("  %-24s prio %d  WCRT %-12v D %v\n", t.Name, t.Priority, r, t.Deadline)
			}
		}
	} else {
		fmt.Printf("offline analysis: %v\n", err)
	}

	var reg *metrics.Registry
	if *showMetric {
		reg = metrics.NewRegistry()
		exec.Instrument(reg)
	}
	r, err := exec.RunWithFaultsContext(context.Background(), set, plat, pol, horizon, plan, &trace.Trace{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nsimulation (%d trace events):\n", r.Trace.Len())
	fmt.Printf("  cpu busy %.1f%%, dma busy %.1f%%, sram peak %d B\n",
		100*r.CPUUtilization(), 100*r.DMAUtilization(), r.SRAMPeak)
	fmt.Printf("  flash read %.1f KiB, energy %.2f mJ, avg power %.1f mW\n",
		float64(r.FlashBytes)/1024, r.EnergyMicroJ/1000, r.AvgPowerMw)
	if plan != nil {
		fmt.Printf("  faults injected %d, jobs aborted %d, dma retries %d, releases suppressed %d\n",
			r.FaultsInjected, r.JobsAborted, r.DMARetries, r.ReleasesSuppressed)
	}
	for _, t := range set.ByPriority() {
		tm := r.Metrics.PerTask[t.Name]
		fmt.Printf("  %-24s jobs %3d/%3d  max %-12v p95 %-12v avg %-12v miss %.1f%%\n",
			t.Name, tm.Completed, tm.Released, tm.MaxResponse, tm.Percentile(95),
			tm.AvgResponse(), 100*tm.MissRatio())
	}
	if *timeline {
		// Show up to two periods of the slowest task (capped to horizon).
		var maxT sim.Duration
		for _, t := range set.Tasks {
			if t.Period > maxT {
				maxT = t.Period
			}
		}
		window := core.SatMulTime(maxT, 2)
		if window > horizon {
			window = horizon
		}
		fmt.Println()
		if err := (trace.Timeline{From: 0, To: window, Width: *tlWidth}).Render(os.Stdout, r.Trace, r.Infos); err != nil {
			fatal(err)
		}
	}
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fatal(err)
		}
		if err := trace.ExportJSON(f, r.Trace, r.Infos); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nPerfetto trace written to %s (%d events) — load it at https://ui.perfetto.dev\n",
			*traceJSON, r.Trace.Len())
	}
	if *traceCSV != "" {
		f, err := os.Create(*traceCSV)
		if err != nil {
			fatal(err)
		}
		if err := r.Trace.CSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace written to %s (%d events)\n", *traceCSV, r.Trace.Len())
	}
	if *dumpTrace {
		fmt.Println("\ntrace:")
		r.Trace.Dump(os.Stdout)
	}
	if reg != nil {
		fmt.Println("\nmetrics:")
		if err := reg.Snapshot().WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtmdm-sim:", err)
	os.Exit(1)
}
