package rtmdm_test

import (
	"fmt"
	"os"
	"strings"

	"rtmdm"
)

// caseStudy builds the three-DNN always-on sensing workload the paper's
// introduction motivates — a keyword spotter every 50 ms, a person
// detector every 150 ms and an acoustic anomaly detector every 100 ms —
// with every period multiplied by scale.
func caseStudy(plat rtmdm.Platform, pol rtmdm.Policy, scale float64) *rtmdm.TaskSet {
	p := func(ms float64) rtmdm.Duration {
		return rtmdm.Duration(ms * scale * float64(rtmdm.Millisecond))
	}
	set, err := rtmdm.NewSystem(plat, pol).
		AddTask("kws", "ds-cnn", p(50)).
		AddTask("persondet", "mobilenetv1-0.25", p(150)).
		AddTask("anomaly", "autoencoder", p(100)).
		Build()
	if err != nil {
		panic(err)
	}
	return set
}

// taskNamed returns the set's task with the given name.
func taskNamed(set *rtmdm.TaskSet, name string) *rtmdm.Task {
	for _, t := range set.Tasks {
		if t.Name == name {
			return t
		}
	}
	panic("no task " + name)
}

// ExampleNewSystem shows the canonical flow: assemble the case-study
// workload, obtain the offline schedulability guarantee, then watch it run
// in virtual time.
func ExampleNewSystem() {
	plat := rtmdm.DefaultPlatform()
	pol := rtmdm.RTMDM()
	set, err := rtmdm.NewSystem(plat, pol).
		AddTask("kws", "ds-cnn", 50*rtmdm.Millisecond).
		AddTask("persondet", "mobilenetv1-0.25", 150*rtmdm.Millisecond).
		AddTask("anomaly", "autoencoder", 100*rtmdm.Millisecond).
		Build()
	if err != nil {
		panic(err)
	}

	fmt.Printf("platform: %s (%s, %s)\n", plat.Name, plat.CPU.Name, plat.Mem.Name)
	fmt.Printf("policy:   %s (depth %d, δ %.1f ms)\n\n", pol.Name, pol.Depth,
		float64(pol.MaxSegNs)/1e6)

	// Offline guarantee: the RT-MDM response-time analysis.
	verdict, err := rtmdm.Analyze(set, plat, pol)
	if err != nil {
		panic(err)
	}
	fmt.Printf("offline verdict (%s): schedulable = %v\n", verdict.Test, verdict.Schedulable)
	for _, t := range set.ByPriority() {
		fmt.Printf("  %-10s prio %d  period %-8v WCRT bound %-10v (deadline %v)\n",
			t.Name, t.Priority, t.Period, verdict.WCRT[t.Name], t.Deadline)
	}

	// Runtime: one virtual second on the simulated MCU.
	res, err := rtmdm.Simulate(set, plat, pol, rtmdm.Second)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nsimulated 1 s of virtual time (%d trace events):\n", res.Trace.Len())
	fmt.Printf("  CPU busy %.1f%%  DMA busy %.1f%%  staged-SRAM peak %d B\n",
		100*res.CPUUtilization(), 100*res.DMAUtilization(), res.SRAMPeak)
	for _, t := range set.ByPriority() {
		tm := res.Metrics.PerTask[t.Name]
		fmt.Printf("  %-10s %3d jobs  max response %-10v avg %-10v misses %d\n",
			t.Name, tm.Completed, tm.MaxResponse, tm.AvgResponse(), tm.Misses)
	}
	if res.Metrics.AnyMiss() {
		fmt.Println("\nDEADLINE MISS — this should not happen for a set the analysis accepted")
	} else {
		fmt.Println("\nall deadlines met, as the analysis guaranteed")
	}
	// Output:
	// platform: stm32h743 (cortex-m7@480MHz, qspi-flash-slow)
	// policy:   rt-mdm (depth 2, δ 1.0 ms)
	//
	// offline verdict (rta-rtmdm-d2): schedulable = true
	//   kws        prio 0  period 50ms     WCRT bound 14.7888ms  (deadline 50ms)
	//   anomaly    prio 1  period 100ms    WCRT bound 25.3371ms  (deadline 100ms)
	//   persondet  prio 2  period 150ms    WCRT bound 97.9808ms  (deadline 150ms)
	//
	// simulated 1 s of virtual time (2826 trace events):
	//   CPU busy 42.6%  DMA busy 14.3%  staged-SRAM peak 60122 B
	//   kws         20 jobs  max response 10.5527ms  avg 10.4617ms  misses 0
	//   anomaly     10 jobs  max response 17.3142ms  avg 17.3135ms  misses 0
	//   persondet    7 jobs  max response 48.1603ms  avg 45.1848ms  misses 0
	//
	// all deadlines met, as the analysis guaranteed
}

// ExampleBuildModel runs a real int8 forward pass of a zoo model
// (synthetic weights, pseudo-random input) and checks it is deterministic.
func ExampleBuildModel() {
	m, err := rtmdm.BuildModel("ds-cnn", 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: input %v, %d layers, %.1f KiB parameters, %.2f M MACs\n",
		m.Name, m.Input, m.NumLayers(),
		float64(m.TotalParamBytes())/1024, float64(m.TotalMACs())/1e6)

	y := m.Forward(rtmdm.RandomInput(m, 7))
	fmt.Printf("\nforward pass: output %v\n", y.Shape)
	for i := 0; i < min(y.Shape.Elems(), 12); i++ {
		fmt.Printf("  out[%2d] = %4d  (≈ %+.4f)\n", i, y.Data[i], y.Quant.Dequant(y.Data[i]))
	}

	// The same input always yields the same output.
	y2 := m.Forward(rtmdm.RandomInput(m, 7))
	for i := range y.Data {
		if y.Data[i] != y2.Data[i] {
			panic("forward pass is not deterministic")
		}
	}
	fmt.Println("  (bit-identical across repeated runs)")
	// Output:
	// ds-cnn: input 49x10x1, 12 layers, 23.8 KiB parameters, 2.66 M MACs
	//
	// forward pass: output 1x1x12
	//   out[ 0] = -121  (≈ +0.0273)
	//   out[ 1] =  -94  (≈ +0.1328)
	//   out[ 2] = -102  (≈ +0.1016)
	//   out[ 3] = -105  (≈ +0.0898)
	//   out[ 4] = -102  (≈ +0.1016)
	//   out[ 5] = -117  (≈ +0.0430)
	//   out[ 6] =  -96  (≈ +0.1250)
	//   out[ 7] = -116  (≈ +0.0469)
	//   out[ 8] = -102  (≈ +0.1016)
	//   out[ 9] = -112  (≈ +0.0625)
	//   out[10] = -111  (≈ +0.0664)
	//   out[11] = -103  (≈ +0.0977)
	//   (bit-identical across repeated runs)
}

// ExampleExecutePlan shows the scheduling view of a model: its staged
// segment plan as one of three co-resident tasks under RT-MDM. Staged,
// segment-by-segment execution reproduces whole-model inference exactly —
// the property that licenses scheduling at segment granularity.
func ExampleExecutePlan() {
	m, err := rtmdm.BuildModel("ds-cnn", 1)
	if err != nil {
		panic(err)
	}
	plat := rtmdm.DefaultPlatform()
	pol := rtmdm.RTMDM()
	pl, err := rtmdm.SegmentModel(m, plat, pol, 3)
	if err != nil {
		panic(err)
	}
	x := rtmdm.RandomInput(m, 7)
	whole := m.Forward(x)
	staged, err := rtmdm.ExecutePlan(pl, x)
	if err != nil {
		panic(err)
	}
	for i := range whole.Data {
		if staged.Data[i] != whole.Data[i] {
			panic("staged execution diverged from whole-model inference")
		}
	}
	fmt.Printf("staged (segment-by-segment) execution: bit-identical across %d segments\n",
		pl.NumSegments())

	fmt.Printf("\nstaging plan on %s (one of 3 tasks, budget %d KiB, δ %.1f ms):\n",
		plat.Name, pl.BudgetBytes>>10, float64(pol.MaxSegNs)/1e6)
	fmt.Printf("  %d segments; largest load %d B, largest compute %.3f ms\n",
		pl.NumSegments(), pl.MaxLoadBytes(), float64(pl.MaxComputeNs())/1e6)
	fmt.Printf("  serial (load-then-compute) job length: %.3f ms\n", float64(pl.SerialNs())/1e6)
	fmt.Printf("  pipelined (double-buffered) job length: %.3f ms → %.2fx\n",
		float64(pl.PipelineNs(pol.Depth))/1e6,
		float64(pl.SerialNs())/float64(pl.PipelineNs(pol.Depth)))
	// Output:
	// staged (segment-by-segment) execution: bit-identical across 13 segments
	//
	// staging plan on stm32h743 (one of 3 tasks, budget 32 KiB, δ 1.0 ms):
	//   13 segments; largest load 2992 B, largest compute 1.000 ms
	//   serial (load-then-compute) job length: 11.004 ms
	//   pipelined (double-buffered) job length: 10.289 ms → 1.07x
}

// ExampleGenerateWorkload draws a random deployable task set and checks it
// offline.
func ExampleGenerateWorkload() {
	plat := rtmdm.DefaultPlatform()
	spec, err := rtmdm.GenerateWorkload(rtmdm.WorkloadParams{
		Seed: 42, N: 3, Util: 0.3, Platform: plat,
	})
	if err != nil {
		panic(err)
	}
	set, err := spec.Instantiate(plat, rtmdm.RTMDM())
	if err != nil {
		panic(err)
	}
	v, err := rtmdm.Analyze(set, plat, rtmdm.RTMDM())
	if err != nil {
		panic(err)
	}
	fmt.Println("tasks:", len(set.Tasks), "schedulable:", v.Schedulable)
	// Output:
	// tasks: 3 schedulable: true
}

// ExampleComparisonSet generates random multi-DNN workloads across a
// utilization sweep and compares the offline acceptance of the headline
// policies — a miniature of the paper's headline figure.
func ExampleComparisonSet() {
	plat := rtmdm.DefaultPlatform()
	policies := rtmdm.ComparisonSet()
	const setsPerPoint = 40
	const tasksPerSet = 4

	fmt.Printf("random %d-task sets on %s, %d sets per point\n\n", tasksPerSet, plat.Name, setsPerPoint)
	row := fmt.Sprintf("%-6s", "util")
	for _, p := range policies {
		row += fmt.Sprintf("  %-14s", p.Name)
	}
	fmt.Println(strings.TrimRight(row, " "))

	for _, u := range []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		row := fmt.Sprintf("%-6.1f", u)
		for _, pol := range policies {
			accepted := 0
			for k := 0; k < setsPerPoint; k++ {
				spec, err := rtmdm.GenerateWorkload(rtmdm.WorkloadParams{
					Seed:     int64(k)*7907 + int64(u*1000),
					N:        tasksPerSet,
					Util:     u,
					Platform: plat,
				})
				if err != nil {
					panic(err)
				}
				set, err := spec.Instantiate(plat, pol)
				if err != nil {
					continue
				}
				v, err := rtmdm.Analyze(set, plat, pol)
				if err == nil && v.Schedulable {
					accepted++
				}
			}
			row += fmt.Sprintf("  %-14s", fmt.Sprintf("%.0f%%", 100*float64(accepted)/setsPerPoint))
		}
		fmt.Println(strings.TrimRight(row, " "))
	}

	fmt.Println("\nreading: whole-job non-preemption collapses early (a single slow DNN")
	fmt.Println("job blocks every deadline beneath it); segment preemption recovers most")
	fmt.Println("sets; RT-MDM's prefetch pipeline adds the final margin by removing the")
	fmt.Println("external-memory stall time from every job's demand.")
	// Output:
	// random 4-task sets on stm32h743, 40 sets per point
	//
	// util    serial-npfp     serial-segfp    rt-mdm
	// 0.2     58%             100%            100%
	// 0.3     58%             100%            100%
	// 0.4     28%             100%            100%
	// 0.5     22%             82%             82%
	// 0.6     2%              78%             90%
	// 0.7     0%              50%             55%
	// 0.8     0%              8%              12%
	// 0.9     0%              0%              0%
	//
	// reading: whole-job non-preemption collapses early (a single slow DNN
	// job blocks every deadline beneath it); segment preemption recovers most
	// sets; RT-MDM's prefetch pipeline adds the final margin by removing the
	// external-memory stall time from every job's demand.
}

// ExampleAnalyze compares the case-study workload under every scheduling
// policy, at nominal load and then pushed into overload, showing where
// each baseline breaks and RT-MDM holds.
func ExampleAnalyze() {
	plat := rtmdm.DefaultPlatform()
	policies := []rtmdm.Policy{
		rtmdm.SerialNPFP(), rtmdm.SerialSegFP(),
		rtmdm.RTMDM(), rtmdm.RTMDMEDF(), rtmdm.RTMDMFIFODMA(),
	}
	// kwsMax[policy] holds the keyword spotter's worst simulated response
	// at each load.
	kwsMax := map[string][]rtmdm.Duration{}
	const squeeze = 0.55 // period multiplier: < 1 squeezes the load up
	for _, scale := range []float64{1, squeeze} {
		label := "nominal load"
		if scale != 1 {
			label = fmt.Sprintf("squeezed periods ×%.2f", scale)
		}
		u := caseStudy(plat, rtmdm.RTMDM(), scale).SerialUtilization()
		fmt.Printf("== %s (U ≈ %.2f) ==\n", label, u)
		fmt.Printf("%-16s %-8s %-12s %-12s %-12s %s\n",
			"policy", "verdict", "kws-max", "det-max", "anom-max", "misses")
		for _, pol := range policies {
			set := caseStudy(plat, pol, scale)
			verdict := "n/a"
			if v, err := rtmdm.Analyze(set, plat, pol); err == nil {
				verdict = fmt.Sprintf("%v", v.Schedulable)
			}
			res, err := rtmdm.Simulate(set, plat, pol, 900*rtmdm.Millisecond)
			if err != nil {
				panic(err)
			}
			misses := 0
			for _, tm := range res.Metrics.PerTask {
				misses += tm.Misses
			}
			get := func(name string) rtmdm.Duration {
				return res.Metrics.PerTask[name].MaxResponse
			}
			fmt.Printf("%-16s %-8s %-12v %-12v %-12v %d\n",
				pol.Name, verdict, get("kws"), get("persondet"), get("anomaly"), misses)
			kwsMax[pol.Name] = append(kwsMax[pol.Name], get("kws"))
		}
		fmt.Println()
	}
	vanilla := caseStudy(plat, rtmdm.SerialNPFP(), squeeze)
	fmt.Println("reading: under overload the whole-job non-preemptive baseline lets the")
	fmt.Printf("keyword spotter's response reach %v against its %v deadline\n",
		kwsMax["serial-npfp"][1], taskNamed(vanilla, "kws").Deadline)
	fmt.Printf("(a persondet job alone runs %v without preemption); RT-MDM's\n",
		rtmdm.Duration(taskNamed(vanilla, "persondet").Plan.SerialNs()))
	fmt.Println("segment preemption plus load/compute overlap keeps the urgent task's")
	fmt.Printf("response flat (%v → %v) while the offline analysis tracks\n",
		kwsMax["rt-mdm"][0], kwsMax["rt-mdm"][1])
	fmt.Println("exactly which configurations remain guaranteed.")
	// Output:
	// == nominal load (U ≈ 0.56) ==
	// policy           verdict  kws-max      det-max      anom-max     misses
	// serial-npfp      false    17.7078ms    56.7327ms    20.0907ms    0
	// serial-segfp     true     13.2484ms    67.6954ms    20.1083ms    0
	// rt-mdm           true     10.5527ms    48.1603ms    17.3142ms    0
	// rt-mdm-edf       false    10.5527ms    48.1603ms    17.3142ms    0
	// rt-mdm-fifodma   false    18.6417ms    49.4878ms    8.32134ms    0
	//
	// == squeezed periods ×0.55 (U ≈ 1.01) ==
	// policy           verdict  kws-max      det-max      anom-max     misses
	// serial-npfp      false    46.1332ms    64.1395ms    62.4068ms    18
	// serial-segfp     false    13.1281ms    110.787ms    22.2437ms    10
	// rt-mdm           false    11.3413ms    76.2652ms    18.1131ms    0
	// rt-mdm-edf       false    11.3062ms    68.9309ms    21.2848ms    0
	// rt-mdm-fifodma   false    22.0911ms    61.0737ms    21.2595ms    0
	//
	// reading: under overload the whole-job non-preemptive baseline lets the
	// keyword spotter's response reach 46.1332ms against its 27.5ms deadline
	// (a persondet job alone runs 36.6404ms without preemption); RT-MDM's
	// segment preemption plus load/compute overlap keeps the urgent task's
	// response flat (10.5527ms → 11.3413ms) while the offline analysis tracks
	// exactly which configurations remain guaranteed.
}

// ExampleBreakdown quantifies how much timing margin each scheduling
// policy leaves on the case-study workload, via the classic breakdown
// metric — the largest factor α by which every task's rate could be
// multiplied before the offline guarantee breaks.
func ExampleBreakdown() {
	plat := rtmdm.DefaultPlatform()
	fmt.Printf("breakdown factor α on %s (kws@50ms + persondet@150ms + anomaly@100ms)\n\n", plat.Name)
	fmt.Printf("%-16s %-10s %s\n", "policy", "α", "meaning")
	alpha := map[string]float64{}
	for _, pol := range []rtmdm.Policy{
		rtmdm.SerialNPFP(), rtmdm.SerialSegFP(), rtmdm.RTMDM(),
		rtmdm.RTMDMDepth(4), rtmdm.RTMDMFIFODMA(),
	} {
		a, err := rtmdm.Breakdown(caseStudy(plat, pol, 1), plat, pol, 0.01)
		if err != nil {
			panic(err)
		}
		alpha[pol.Name] = a
		meaning := "guaranteed only below the given rates"
		if a >= 1 {
			meaning = fmt.Sprintf("all rates could rise %.0f%% and stay guaranteed", 100*(a-1))
		}
		fmt.Printf("%-16s %-10.2f %s\n", pol.Name, a, meaning)
	}
	fmt.Println("\nreading: the margin each policy leaves is the budget a product team")
	fmt.Println("spends on faster sensing rates or extra models. The vanilla runtime")
	fmt.Println("cannot even guarantee the nominal rates (α < 1); RT-MDM guarantees")
	fmt.Printf("them with %.0f%% to spare on the same silicon — and segment preemption\n",
		100*(alpha["rt-mdm"]-1))
	fmt.Printf("alone (serial-segfp) already leaves %.0f%%.\n", 100*(alpha["serial-segfp"]-1))
	// Output:
	// breakdown factor α on stm32h743 (kws@50ms + persondet@150ms + anomaly@100ms)
	//
	// policy           α          meaning
	// serial-npfp      0.89       guaranteed only below the given rates
	// serial-segfp     1.35       all rates could rise 35% and stay guaranteed
	// rt-mdm           1.35       all rates could rise 35% and stay guaranteed
	// rt-mdm-d4        1.34       all rates could rise 34% and stay guaranteed
	// rt-mdm-fifodma   0.84       guaranteed only below the given rates
	//
	// reading: the margin each policy leaves is the budget a product team
	// spends on faster sensing rates or extra models. The vanilla runtime
	// cannot even guarantee the nominal rates (α < 1); RT-MDM guarantees
	// them with 35% to spare on the same silicon — and segment preemption
	// alone (serial-segfp) already leaves 35%.
}

// ExampleRTMDMPerTaskDepth spends prefetch depth only where it pays. A
// task's buffer window is analytically free at the top priority (it blocks
// nobody and earns the pipelined-demand credit) and pure blocking
// inventory anywhere else — so heterogeneous windows certify the case
// study with far less staging SRAM than any uniform depth.
func ExampleRTMDMPerTaskDepth() {
	plat := rtmdm.DefaultPlatform()
	// Hold the segmentation fixed (the depth-2 reference) so only the
	// window assignment differs.
	set := caseStudy(plat, rtmdm.RTMDM(), 1)

	fmt.Printf("prefetch-window assignments on %s (kws@50ms ≻ anomaly@100ms ≻ persondet@150ms)\n\n", plat.Name)
	fmt.Printf("%-26s %-22s %-14s %s\n", "policy", "windows (kws/anom/det)", "staging need", "worst kws bound")
	for _, cfg := range []struct {
		label string
		pol   rtmdm.Policy
	}{
		{"uniform depth 2", rtmdm.RTMDM()},
		{"uniform depth 4", rtmdm.RTMDMDepth(4)},
		{"tuned heterogeneous", rtmdm.RTMDMPerTaskDepth(map[string]int{
			"kws": 3, "anomaly": 1, "persondet": 1,
		})},
	} {
		v, err := rtmdm.Analyze(set, plat, cfg.pol)
		if err != nil {
			panic(err)
		}
		verdictStr := "REJECTED"
		if v.Schedulable {
			verdictStr = fmt.Sprintf("%.2f ms", float64(v.WCRT["kws"])/1e6)
		}
		var staging int64
		for _, t := range set.Tasks {
			staging += rtmdm.MaxBufferBytes(t, cfg.pol)
		}
		fmt.Printf("%-26s %d/%d/%d                  %4d KiB       %s\n",
			cfg.label,
			cfg.pol.DepthFor("kws"), cfg.pol.DepthFor("anomaly"), cfg.pol.DepthFor("persondet"),
			staging>>10, verdictStr)
	}

	fmt.Println("\nreading: the keyword spotter is the most urgent task, so its window is")
	fmt.Println("the only one that buys guaranteed latency — everyone else's window is")
	fmt.Println("inventory that can block it. Tuned windows keep the certificate while")
	fmt.Println("releasing staging SRAM back to activations (see EXPERIMENTS.md T24).")
	// Output:
	// prefetch-window assignments on stm32h743 (kws@50ms ≻ anomaly@100ms ≻ persondet@150ms)
	//
	// policy                     windows (kws/anom/det) staging need   worst kws bound
	// uniform depth 2            2/2/2                   105 KiB       14.79 ms
	// uniform depth 4            4/4/4                   210 KiB       16.93 ms
	// tuned heterogeneous        3/1/1                    58 KiB       13.59 ms
	//
	// reading: the keyword spotter is the most urgent task, so its window is
	// the only one that buys guaranteed latency — everyone else's window is
	// inventory that can block it. Tuned windows keep the certificate while
	// releasing staging SRAM back to activations (see EXPERIMENTS.md T24).
}

// ExampleExploreDesignSpace sizes the MCU for a product before committing
// silicon. The explorer sweeps the staging-SRAM partition against the
// RT-MDM software knobs (prefetch depth, preemption granularity δ, DMA
// chunking) for the case-study workload, reports the Pareto frontier
// between SRAM cost and guaranteed timing margin, and recommends the
// cheapest configuration that still leaves 10% of guaranteed rate
// headroom.
func ExampleExploreDesignSpace() {
	plat := rtmdm.DefaultPlatform()
	// Policy-independent, so every grid point re-segments the workload
	// under its own δ and staging budget.
	spec := rtmdm.WorkloadSpec{Tasks: []rtmdm.WorkloadTaskSpec{
		{Model: "ds-cnn", Seed: 1, Period: 50 * rtmdm.Millisecond, Deadline: 50 * rtmdm.Millisecond},
		{Model: "mobilenetv1-0.25", Seed: 1, Period: 150 * rtmdm.Millisecond, Deadline: 150 * rtmdm.Millisecond},
		{Model: "autoencoder", Seed: 1, Period: 100 * rtmdm.Millisecond, Deadline: 100 * rtmdm.Millisecond},
	}}
	res, err := rtmdm.ExploreDesignSpace(spec, plat, rtmdm.DefaultDesignKnobs(plat))
	if err != nil {
		panic(err)
	}

	fmt.Printf("design space of the case study on %s: %d configurations, %d schedulable\n\n",
		plat.Name, len(res.Points), res.Schedulable())
	fmt.Println("Pareto frontier (staging SRAM cost vs guaranteed margin α):")
	fmt.Printf("  %-12s %-6s %-8s %-8s %-6s %s\n",
		"staging", "depth", "δ(ms)", "chunk", "α", "worst-case slack")
	for _, p := range res.Frontier {
		chunk := "whole"
		if p.ChunkBytes > 0 {
			chunk = fmt.Sprintf("%dKiB", p.ChunkBytes>>10)
		}
		fmt.Printf("  %-12s %-6d %-8.2f %-8s %-6.2f %.2f ms\n",
			fmt.Sprintf("%d KiB", p.StagingBytes>>10), p.Depth,
			float64(p.GranularityNs)/1e6, chunk, p.Alpha, float64(p.SlackNs)/1e6)
	}

	best, ok := res.Recommend(1.10)
	if !ok {
		panic("no schedulable configuration")
	}
	fmt.Printf("\nrecommendation (cheapest with α ≥ 1.10): %d KiB staging, depth %d, δ %.2f ms\n",
		best.StagingBytes>>10, best.Depth, float64(best.GranularityNs)/1e6)
	fmt.Println("\nreading: every KiB moved into the staging partition is a KiB taken")
	fmt.Println("from activations, so the frontier is the exact menu a hardware/software")
	fmt.Printf("co-design meeting chooses from — here %d entry; no configuration on the\n", len(res.Frontier))
	fmt.Printf("grid guarantees more than α = %.2f — and the explorer prices each point\n",
		res.Frontier[len(res.Frontier)-1].Alpha)
	fmt.Println("with the same sound analysis that certifies the final deployment.")
	// Output:
	// design space of the case study on stm32h743: 96 configurations, 96 schedulable
	//
	// Pareto frontier (staging SRAM cost vs guaranteed margin α):
	//   staging      depth  δ(ms)    chunk    α      worst-case slack
	//   64 KiB       4      0.50     whole    1.34   36.10 ms
	//
	// recommendation (cheapest with α ≥ 1.10): 64 KiB staging, depth 4, δ 0.50 ms
	//
	// reading: every KiB moved into the staging partition is a KiB taken
	// from activations, so the frontier is the exact menu a hardware/software
	// co-design meeting chooses from — here 1 entry; no configuration on the
	// grid guarantees more than α = 1.34 — and the explorer prices each point
	// with the same sound analysis that certifies the final deployment.
}

// ExampleSimulate closes the loop: periodic sensor frames arrive, the
// virtual-time scheduler stages and computes segments, and each completed
// job runs the actual int8 inference through its staged plan, pairing real
// classifications with scheduling-accurate latencies.
func ExampleSimulate() {
	plat := rtmdm.DefaultPlatform()
	pol := rtmdm.RTMDM()

	m, err := rtmdm.BuildModel("ds-cnn", 1)
	if err != nil {
		panic(err)
	}
	plan, err := rtmdm.SegmentModel(m, plat, pol, 2)
	if err != nil {
		panic(err)
	}

	// Schedule the keyword spotter next to a person detector and simulate
	// a third of a second of sensing.
	set, err := rtmdm.NewSystem(plat, pol).
		AddTask("kws", "ds-cnn", 50*rtmdm.Millisecond).
		AddTask("det", "mobilenetv1-0.25", 150*rtmdm.Millisecond).
		Build()
	if err != nil {
		panic(err)
	}
	res, err := rtmdm.Simulate(set, plat, pol, 350*rtmdm.Millisecond)
	if err != nil {
		panic(err)
	}

	// For each completed kws job, classify that frame's samples through
	// the staged plan and pair the result with its virtual latency.
	tm := res.Metrics.PerTask["kws"]
	fmt.Printf("kws stream on %s under %s: %d frames classified\n\n",
		plat.Name, pol.Name, tm.Completed)
	fmt.Printf("%-6s %-12s %-8s %s\n", "frame", "latency", "class", "confidence")
	for k := 0; k < tm.Completed; k++ {
		out, err := rtmdm.ExecutePlan(plan, rtmdm.RandomInput(m, int64(k)))
		if err != nil {
			panic(err)
		}
		best, bestV := 0, int8(-128)
		for i, v := range out.Data {
			if v > bestV {
				best, bestV = i, v
			}
		}
		fmt.Printf("%-6d %-12v kw-%-5d %.2f\n", k, tm.Responses[k], best, out.Quant.Dequant(bestV))
	}
	met := "all met"
	if tm.Misses > 0 {
		met = fmt.Sprintf("%d missed", tm.Misses)
	}
	fmt.Printf("\nworst latency %v, p95 %v, deadline %v — %s\n",
		tm.MaxResponse, tm.Percentile(95), taskNamed(set, "kws").Deadline, met)
	fmt.Println("\nreading: latencies are virtual-time (scheduling-accurate) while the")
	fmt.Println("classifications come from the real int8 kernels executed through the")
	fmt.Println("same staged segment plan the scheduler managed — one consistent system.")
	// Output:
	// kws stream on stm32h743 under rt-mdm: 7 frames classified
	//
	// frame  latency      class    confidence
	// 0      10.3714ms    kw-6     0.12
	// 1      10.3702ms    kw-6     0.13
	// 2      10.3702ms    kw-1     0.13
	// 3      10.3714ms    kw-1     0.12
	// 4      10.3702ms    kw-1     0.12
	// 5      10.3702ms    kw-1     0.12
	// 6      10.3714ms    kw-1     0.12
	//
	// worst latency 10.3714ms, p95 10.3714ms, deadline 50ms — all met
	//
	// reading: latencies are virtual-time (scheduling-accurate) while the
	// classifications come from the real int8 kernels executed through the
	// same staged segment plan the scheduler managed — one consistent system.
}

// ExampleRenderTimeline shows what RT-MDM changes on the wire: ASCII Gantt
// charts of the same two-DNN workload under the serial non-preemptive
// baseline and under RT-MDM, one after the other.
func ExampleRenderTimeline() {
	plat := rtmdm.DefaultPlatform()
	var anomalyMax []rtmdm.Duration
	for _, pol := range []rtmdm.Policy{rtmdm.SerialNPFP(), rtmdm.RTMDM()} {
		set, err := rtmdm.NewSystem(plat, pol).
			AddTask("kws", "ds-cnn", 50*rtmdm.Millisecond).
			AddTask("anomaly", "autoencoder", 100*rtmdm.Millisecond).
			Build()
		if err != nil {
			panic(err)
		}
		res, err := rtmdm.Simulate(set, plat, pol, 300*rtmdm.Millisecond)
		if err != nil {
			panic(err)
		}
		fmt.Printf("== %s ==\n", pol.Name)
		if err := rtmdm.RenderTimeline(os.Stdout, res, 0, 100*rtmdm.Millisecond, 110); err != nil {
			panic(err)
		}
		kws := res.Metrics.PerTask["kws"]
		an := res.Metrics.PerTask["anomaly"]
		fmt.Printf("kws max response %v, anomaly max response %v\n\n", kws.MaxResponse, an.MaxResponse)
		anomalyMax = append(anomalyMax, an.MaxResponse)
	}
	fmt.Println("reading: under the serial baseline the CPU idles (dots) whenever the")
	fmt.Println("DMA streams parameters. Under RT-MDM the lowercase (DMA) lane runs")
	fmt.Println("*underneath* the uppercase (CPU) lane — loads hide behind computes —")
	fmt.Printf("so the anomaly detector's worst response falls from %v to %v,\n", anomalyMax[0], anomalyMax[1])
	fmt.Println("and preemption happens at segment boundaries.")
	// Output:
	// == serial-npfp ==
	// timeline 0ns .. 100ms (909.09us/col)
	// CPU     BBBBBBBBBBBBB.AA.AA..AA................................BBBBBBBBBBBBB..........................................
	// DMA     b...........aaaaaaaaaa.................................b.....................................................b
	// anomaly R=====================D......................................................................................R
	// kws     R===========D..........................................R===========D.........................................R
	// key     A=anomaly B=kws (uppercase compute, lowercase load; R release, D done, X miss, A abort)
	// kws max response 10.9751ms, anomaly max response 20.0907ms
	//
	// == rt-mdm ==
	// timeline 0ns .. 100ms (909.09us/col)
	// CPU     BBBBBBBBBBBAAAAAAAA....................................BBBBBBBBBBBB...........................................
	// DMA     bbbbbbbbbaaaaaaaaaa....................................bbbbbbbbbb............................................b
	// anomaly R=================D..........................................................................................R
	// kws     R==========D...........................................R==========D..........................................R
	// key     A=anomaly B=kws (uppercase compute, lowercase load; R release, D done, X miss, A abort)
	// kws max response 10.569ms, anomaly max response 17.1233ms
	//
	// reading: under the serial baseline the CPU idles (dots) whenever the
	// DMA streams parameters. Under RT-MDM the lowercase (DMA) lane runs
	// *underneath* the uppercase (CPU) lane — loads hide behind computes —
	// so the anomaly detector's worst response falls from 20.0907ms to 17.1233ms,
	// and preemption happens at segment boundaries.
}
