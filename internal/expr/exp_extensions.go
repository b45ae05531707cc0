package expr

import (
	"fmt"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/exec"
	"rtmdm/internal/models"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/workload"
)

func init() {
	register(Experiment{ID: "T13", Title: "Preemption granularity δ vs context-switch cost", Run: runT13})
	register(Experiment{ID: "F13", Title: "Platform comparison: deployability and schedulability across MCU classes", Run: runF13})
	register(Experiment{ID: "T15", Title: "Limited-preemption DMA: transfer chunk-size sweep", Run: runT15})
	register(Experiment{ID: "T16", Title: "Data-cache sensitivity of kernel costs and schedulability", Run: runT16})
	register(Experiment{ID: "T17", Title: "Energy accounting: the prefetch pipeline is energy-neutral", Run: runT17})
	register(Experiment{ID: "T18", Title: "Automated preemption-granularity tuning (design-space search)", Run: runT18})
	register(Experiment{ID: "F19", Title: "Constrained deadlines: schedulability vs deadline fraction", Run: runF19})
	register(Experiment{ID: "F20", Title: "Release jitter: schedulability vs arrival-delay bound", Run: runF20})
	register(Experiment{ID: "T21", Title: "Statistical robustness: headline ratios across independent seeds", Run: runT21})
	register(Experiment{ID: "T22", Title: "Segmentation policy ablation: greedy packing vs per-layer", Run: runT22})
}

// runT13 sweeps the preemption granularity against the context-switch cost:
// fine segments bound blocking but multiply switch overhead; coarse
// segments do the opposite. With realistic switch costs the optimum is
// interior.
func runT13(cfg Config) (*Table, error) {
	grans := []int64{250_000, 500_000, 1_000_000, 2_000_000, 4_000_000}
	switches := []int64{0, cfg.Platform.CPU.SwitchNs, 20_000, 50_000}
	cols := []string{"δ(ms)"}
	for _, sw := range switches {
		cols = append(cols, fmt.Sprintf("switch=%dus", sw/1000))
	}
	t := &Table{
		ID:      "T13",
		Title:   fmt.Sprintf("RT-MDM schedulability at U=0.6 vs preemption granularity (%d sets, %d tasks)", cfg.Sets, cfg.N),
		Columns: cols,
		Notes:   "finer δ bounds blocking but pays one context switch per segment; the sweet spot moves right as switching gets dearer",
	}
	for _, g := range grans {
		row := []string{fmt.Sprintf("%.2f", float64(g)/1e6)}
		for _, sw := range switches {
			plat := cfg.Platform.WithSwitchCost(sw)
			pol := core.RTMDM()
			pol.MaxSegNs = g
			frac, err := acceptFrac(cfg, plat, 0.6, cfg.N, pol)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(frac))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// runF13 compares MCU classes: can the motivating case study deploy and
// pass analysis at all, and what fraction of random sets each platform
// sustains.
func runF13(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "F13",
		Title: "MCU platform classes under RT-MDM (case study + random sets at U=0.5, n=3)",
		Columns: []string{"platform", "cpu", "flash(MB/s)", "SRAM(KiB)",
			"case-deploys", "case-sched", "case-misses", "rand-sched(U=0.5)"},
		Notes: "deploys = segmentation + SRAM provisioning succeed; the smallest part cannot even hold the workload's activations",
	}
	for _, plat := range cost.Platforms() {
		pol := core.RTMDM()
		deploys, sched, misses := "yes", "-", "-"
		set, err := CaseStudySet(plat, pol)
		if err == nil {
			err = core.Provision(set, plat, pol)
		}
		if err != nil {
			deploys = "no"
		} else {
			if test, terr := analysis.ForPolicy(pol); terr == nil {
				sched = fmt.Sprintf("%v", test(set, plat).Schedulable)
			}
			r, rerr := exec.Run(set, plat, pol, 600*sim.Millisecond)
			if rerr != nil {
				return nil, rerr
			}
			n := 0
			for _, tm := range r.Metrics.PerTask {
				n += tm.Misses
			}
			misses = fmt.Sprintf("%d", n)
		}
		rand := "-"
		if frac, err := acceptFracN(cfg, plat, 0.5, 3, pol); err == nil {
			rand = pct(frac)
		}
		t.AddRow(plat.Name, plat.CPU.Name,
			fmt.Sprintf("%d", plat.Mem.BandwidthBps>>20),
			fmt.Sprintf("%d", plat.SRAMBytes>>10),
			deploys, sched, misses, rand)
	}
	return t, nil
}

// acceptFracN is acceptFrac but tolerant of workload-generation failures on
// constrained platforms (counts them as rejections).
func acceptFracN(cfg Config, plat cost.Platform, util float64, n int, pol core.Policy) (float64, error) {
	acc := make([]bool, cfg.Sets)
	parallelEach(cfg.Sets, func(k int) {
		sp, err := genOneSpec(cfg, plat, util, n, int64(k))
		if err != nil {
			return // platform cannot host any feasible mix: rejection
		}
		acc[k], _, _ = accepted(sp, plat, pol)
	})
	ok := 0
	for _, a := range acc {
		if a {
			ok++
		}
	}
	return float64(ok) / float64(cfg.Sets), nil
}

// runT15 sweeps the DMA chunk size: smaller chunks bound the channel's
// non-preemptive region (less blocking for urgent loads) but pay one
// transfer setup per chunk (more total load time).
func runT15(cfg Config) (*Table, error) {
	chunks := []int64{0, 32 << 10, 8 << 10, 2 << 10, 512}
	t := &Table{
		ID:    "T15",
		Title: fmt.Sprintf("RT-MDM with chunked transfers (%d sets, %d tasks)", cfg.Sets, cfg.N),
		Columns: []string{"chunk", "sched(U=0.6)", "sched(U=0.8)",
			"kws-max(ms)", "kws-bound(ms)"},
		Notes: "chunk 0 = whole-segment transfers; kws columns from the case study (urgent task worst response)",
	}
	for _, c := range chunks {
		pol := core.RTMDM()
		if c > 0 {
			pol = core.RTMDMChunked(c)
		}
		s6, err := acceptFrac(cfg, cfg.Platform, 0.6, cfg.N, pol)
		if err != nil {
			return nil, err
		}
		s8, err := acceptFrac(cfg, cfg.Platform, 0.8, cfg.N, pol)
		if err != nil {
			return nil, err
		}
		set, err := CaseStudySet(cfg.Platform, pol)
		if err != nil {
			return nil, err
		}
		r, err := exec.Run(set, cfg.Platform, pol, 600*sim.Millisecond)
		if err != nil {
			return nil, err
		}
		bound := "-"
		if test, err := analysis.ForPolicy(pol); err == nil {
			if v := test(set, cfg.Platform); v.WCRT != nil {
				bound = ms(int64(v.WCRT["kws"]))
			}
		}
		label := "whole"
		if c > 0 {
			label = fmt.Sprintf("%dKiB", c>>10)
			if c < 1024 {
				label = fmt.Sprintf("%dB", c)
			}
		}
		t.AddRow(label, pct(s6), pct(s8),
			ms(int64(r.Metrics.PerTask["kws"].MaxResponse)), bound)
	}
	return t, nil
}

// runT16 sweeps the core's data-cache size: weight-streaming and oversized
// working sets stall the pipeline, stretching compute and shifting the
// compute/memory balance the whole framework schedules around.
func runT16(cfg Config) (*Table, error) {
	sizes := []int64{0, 4 << 10, 16 << 10, 64 << 10}
	cols := []string{"d-cache"}
	zoo := []string{"mobilenetv1-0.25", "resnet8", "autoencoder"}
	for _, m := range zoo {
		cols = append(cols, m+"(ms)")
	}
	cols = append(cols, "rt-mdm sched(U=0.6)")
	t := &Table{
		ID:      "T16",
		Title:   fmt.Sprintf("Compute time and schedulability vs D-cache size (%d sets, %d tasks)", cfg.Sets, cfg.N),
		Columns: cols,
		Notes:   "d-cache 0 idealizes zero-wait-state SRAM; small caches thrash conv weight re-traversals",
	}
	for _, size := range sizes {
		plat := cfg.Platform.WithDCache(size)
		label := "off"
		if size > 0 {
			label = fmt.Sprintf("%dKiB", size>>10)
		}
		row := []string{label}
		for _, name := range zoo {
			lat, err := singleJobResponse(plat, name, core.RTMDM())
			if err != nil {
				return nil, err
			}
			row = append(row, ms(lat))
		}
		frac, err := acceptFrac(cfg, plat, 0.6, cfg.N, core.RTMDM())
		if err != nil {
			return nil, err
		}
		row = append(row, pct(frac))
		t.AddRow(row...)
	}
	return t, nil
}

// runT17 accounts energy on the case study: the pipeline moves the same
// bytes and burns the same active cycles as the serial baselines, so the
// only differences are bookkeeping-level — prefetching buys schedulability
// for free in energy terms.
func runT17(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "T17",
		Title: fmt.Sprintf("Energy over 600 ms of the case study on %s", cfg.Platform.Name),
		Columns: []string{"policy", "flash(KiB)", "cpu-busy(ms)", "dma-busy(ms)",
			"energy(mJ)", "avg-power(mW)"},
		Notes: "identical flash traffic and compute across policies: overlap changes *when* work happens, not how much",
	}
	pols := append(core.ComparisonSet(), core.RTMDMEDF())
	for _, pol := range pols {
		set, err := CaseStudySet(cfg.Platform, pol)
		if err != nil {
			return nil, err
		}
		r, err := exec.Run(set, cfg.Platform, pol, 600*sim.Millisecond)
		if err != nil {
			return nil, err
		}
		t.AddRow(pol.Name,
			fmt.Sprintf("%.1f", float64(r.FlashBytes)/1024),
			ms(r.CPUBusyNs), ms(r.DMABusyNs),
			fmt.Sprintf("%.2f", r.EnergyMicroJ/1000),
			fmt.Sprintf("%.1f", r.AvgPowerMw))
	}
	return t, nil
}

// runT18 closes the design-automation loop: for each task set, search the
// preemption granularity δ that maximizes the analysis's breakdown factor,
// and compare acceptance against the fixed default.
func runT18(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "T18",
		Title:   fmt.Sprintf("Fixed vs per-set tuned δ under RT-MDM (%d sets, %d tasks)", cfg.Sets, cfg.N),
		Columns: []string{"util", "fixed-δ sched", "tuned-δ sched", "mean tuned δ(ms)", "mean α gain"},
		Notes:   "tuned = best δ from {0.25, 0.5, 1, 2, 4} ms by breakdown factor; gain = α(tuned)/α(fixed) over sets feasible under both",
	}
	grans := []int64{250_000, 500_000, 1_000_000, 2_000_000, 4_000_000}
	for _, u := range []float64{0.5, 0.6, 0.7, 0.8} {
		specs, err := genSpecs(cfg, u, cfg.N)
		if err != nil {
			return nil, err
		}
		type t18res struct {
			fixedAcc  bool
			bestAcc   bool
			bestDelta int64
			gain      float64
			hasGain   bool
		}
		results := make([]t18res, len(specs))
		parallelEach(len(specs), func(k int) {
			sp := specs[k]
			fixedPol := core.RTMDM()
			fixedAcc, _, fixedSet := accepted(sp, cfg.Platform, fixedPol)
			// Search δ by breakdown factor.
			bestAlpha, bestDelta, bestAcc := -1.0, int64(0), false
			for _, g := range grans {
				pol := core.RTMDM()
				pol.MaxSegNs = g
				acc, v, set := accepted(sp, cfg.Platform, pol)
				if set == nil || v == nil {
					continue // segmentation or SRAM provisioning failed at this δ
				}
				test, err := analysis.ForPolicy(pol)
				if err != nil {
					continue
				}
				alpha := analysis.BreakdownFactor(set, cfg.Platform, test, 0.05)
				// Prefer acceptance at nominal rates; break ties by α.
				better := (acc && !bestAcc) || (acc == bestAcc && alpha > bestAlpha)
				if better {
					bestAlpha, bestDelta, bestAcc = alpha, g, acc
				}
			}
			r := t18res{fixedAcc: fixedAcc, bestAcc: bestAcc, bestDelta: bestDelta}
			if fixedSet != nil && bestAlpha > 0 {
				test, _ := analysis.ForPolicy(fixedPol)
				if fixedAlpha := analysis.BreakdownFactor(fixedSet, cfg.Platform, test, 0.05); fixedAlpha > 0 {
					r.gain = bestAlpha / fixedAlpha
					r.hasGain = true
				}
			}
			results[k] = r
		})
		fixedOK, tunedOK := 0, 0
		var deltaSum, gainSum float64
		gainN := 0
		for _, r := range results {
			if r.fixedAcc {
				fixedOK++
			}
			if r.bestAcc {
				tunedOK++
			}
			if r.bestDelta > 0 {
				deltaSum += float64(r.bestDelta) / 1e6
			}
			if r.hasGain {
				gainSum += r.gain
				gainN++
			}
		}
		n := float64(len(specs))
		gain := "-"
		if gainN > 0 {
			gain = f2(gainSum / float64(gainN))
		}
		t.AddRow(f2(u), pct(float64(fixedOK)/n), pct(float64(tunedOK)/n),
			f2(deltaSum/n), gain)
	}
	return t, nil
}

// runF19 sweeps constrained deadlines (D = frac·T): tighter deadlines cut
// the laxity every policy lives on, and expose how much of RT-MDM's margin
// survives.
func runF19(cfg Config) (*Table, error) {
	pols := core.ComparisonSet()
	cols := []string{"deadline-frac"}
	for _, p := range pols {
		cols = append(cols, p.Name)
	}
	t := &Table{
		ID:      "F19",
		Title:   fmt.Sprintf("Schedulability at U=0.5 vs deadline fraction (%d sets, %d tasks)", cfg.Sets, cfg.N),
		Columns: cols,
		Notes:   "D = frac·T with rate-monotonic priorities (density rises as frac falls)",
	}
	for _, frac := range []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5} {
		frac := frac
		row := []string{f2(frac)}
		for _, pol := range pols {
			pol := pol
			acc := make([]bool, cfg.Sets)
			errs := make([]error, cfg.Sets)
			parallelEach(cfg.Sets, func(k int) {
				sp, err := workload.Generate(workload.Params{
					Seed:         cfg.Seed + int64(k)*7907 + int64(frac*1000),
					N:            cfg.N,
					Util:         0.5,
					Platform:     cfg.Platform,
					DeadlineFrac: frac,
				})
				if err != nil {
					errs[k] = err
					return
				}
				acc[k], _, _ = accepted(sp, cfg.Platform, pol)
			})
			ok := 0
			for k := range acc {
				if errs[k] != nil {
					return nil, errs[k]
				}
				if acc[k] {
					ok++
				}
			}
			row = append(row, pct(float64(ok)/float64(cfg.Sets)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// runF20 sweeps bounded release jitter (sensor pipelines rarely tick
// perfectly): the analyses charge wider interference windows and the
// executor delays arrivals pseudo-randomly.
func runF20(cfg Config) (*Table, error) {
	pols := core.ComparisonSet()
	cols := []string{"jitter/T"}
	for _, p := range pols {
		cols = append(cols, p.Name)
	}
	cols = append(cols, "rt-mdm sim-missing")
	t := &Table{
		ID:      "F20",
		Title:   fmt.Sprintf("Schedulability at U=0.5 vs release jitter (%d sets, %d tasks)", cfg.Sets, cfg.N),
		Columns: cols,
		Notes:   "jitter widens every interference window by J_h; the executor delays arrivals deterministically per job",
	}
	for _, frac := range []float64{0, 0.1, 0.2, 0.3, 0.5} {
		frac := frac
		row := []string{f2(frac)}
		specs := make([]workload.SetSpec, cfg.Sets)
		genErrs := make([]error, cfg.Sets)
		parallelEach(cfg.Sets, func(k int) {
			specs[k], genErrs[k] = workload.Generate(workload.Params{
				Seed:       cfg.Seed + int64(k)*7907 + int64(frac*1000),
				N:          cfg.N,
				Util:       0.5,
				Platform:   cfg.Platform,
				JitterFrac: frac,
			})
		})
		for _, err := range genErrs {
			if err != nil {
				return nil, err
			}
		}
		for _, pol := range pols {
			pol := pol
			acc := make([]bool, len(specs))
			parallelEach(len(specs), func(k int) {
				acc[k], _, _ = accepted(specs[k], cfg.Platform, pol)
			})
			ok := 0
			for _, a := range acc {
				if a {
					ok++
				}
			}
			row = append(row, pct(float64(ok)/float64(len(specs))))
		}
		// Empirical column for RT-MDM under jittered arrivals.
		pol := core.RTMDM()
		missed := make([]bool, len(specs))
		errs := make([]error, len(specs))
		parallelEach(len(specs), func(k int) {
			s, err := specs[k].Instantiate(cfg.Platform, pol)
			if err != nil {
				missed[k] = true
				return
			}
			r, err := exec.Run(s, cfg.Platform, pol, simHorizon(s, cfg.MaxHorizon))
			if err != nil {
				errs[k] = err
				return
			}
			missed[k] = r.Metrics.AnyMiss()
		})
		miss := 0
		for k := range missed {
			if errs[k] != nil {
				return nil, errs[k]
			}
			if missed[k] {
				miss++
			}
		}
		row = append(row, pct(float64(miss)/float64(len(specs))))
		t.AddRow(row...)
	}
	return t, nil
}

// runT21 repeats the headline measurement under independent random seeds
// and reports the spread, guarding the conclusions against seed luck.
func runT21(cfg Config) (*Table, error) {
	seeds := []int64{cfg.Seed, cfg.Seed + 101, cfg.Seed + 202}
	pols := core.ComparisonSet()
	cols := []string{"util"}
	for _, p := range pols {
		cols = append(cols, p.Name+" min..max")
	}
	t := &Table{
		ID:      "T21",
		Title:   fmt.Sprintf("Acceptance spread over %d independent seeds (%d sets each, %d tasks)", len(seeds), cfg.Sets, cfg.N),
		Columns: cols,
		Notes:   "per-policy acceptance range across seed replications at each utilization",
	}
	for _, u := range []float64{0.4, 0.6, 0.8} {
		row := []string{f2(u)}
		for _, pol := range pols {
			lo, hi := 101.0, -1.0
			for _, seed := range seeds {
				c2 := cfg
				c2.Seed = seed
				frac, err := acceptFrac(c2, cfg.Platform, u, cfg.N, pol)
				if err != nil {
					return nil, err
				}
				pcts := 100 * frac
				if pcts < lo {
					lo = pcts
				}
				if pcts > hi {
					hi = pcts
				}
			}
			row = append(row, fmt.Sprintf("%.1f..%.1f%%", lo, hi))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// runT22 compares the greedy packer against naive per-layer segmentation
// on the zoo: packing amortizes transfer setups and shortens serial
// demand, while per-layer maximizes preemption points.
func runT22(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "T22",
		Title: "Greedy packing vs per-layer segmentation (RT-MDM limits, 1 of 3 tasks)",
		Columns: []string{"model", "greedy-segs", "perlayer-segs",
			"greedy-serial(ms)", "perlayer-serial(ms)", "greedy-maxC(ms)", "perlayer-maxC(ms)"},
		Notes: "per-layer pays one DMA setup per weighted layer; greedy packs to the budget and still respects δ",
	}
	lim := core.RTMDM().Limits(cfg.Platform, 3)
	for _, name := range models.Names() {
		m, err := models.Reference(name)
		if err != nil {
			return nil, err
		}
		g, err := segment.BuildLimits(m, cfg.Platform, lim, segment.Greedy)
		if err != nil {
			return nil, err
		}
		pl, err := segment.BuildLimits(m, cfg.Platform, lim, segment.PerLayer)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			fmt.Sprintf("%d", g.NumSegments()), fmt.Sprintf("%d", pl.NumSegments()),
			ms(g.SerialNs()), ms(pl.SerialNs()),
			ms(g.MaxComputeNs()), ms(pl.MaxComputeNs()))
	}
	return t, nil
}
