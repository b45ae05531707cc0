package expr

import (
	"fmt"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/dse"
)

func init() {
	register(Experiment{ID: "T24", Title: "Heterogeneous prefetch windows: per-task depth tuning at fixed segmentation", Run: runT24})
}

// runT24 isolates the prefetch-window knob: every variant runs on the SAME
// depth-2 segmentation (unlike T9, which re-segments per depth), so the
// only difference is how far each task's DMA may run ahead — and how much
// staging SRAM its window pins. A brute-force tuner (dse.TuneWindows)
// searches {1,2,3,4}ⁿ per set and reports two optima over the accepted
// assignments: the CHEAPEST (least staging SRAM — the economy story: the
// same guarantee at a fraction of the partition) and the SLACK-MAXIMAL one
// (the gradient story: the top-priority task deepens for free since its
// window blocks nobody, while lower tasks stay shallow because their
// staged inventory is exactly what blocks everyone above them).
func runT24(cfg Config) (*Table, error) {
	t := &Table{
		ID: "T24",
		Title: fmt.Sprintf("Per-task prefetch depths vs uniform windows (%d sets, %d tasks, fixed depth-2 segmentation)",
			cfg.Sets, cfg.N),
		Columns: []string{"util", "uniform-d2 sched", "uniform-d4 sched", "tuned sched",
			"cheapest staging(KiB)", "d2 staging(KiB)", "slack-opt depth(top)", "slack-opt depth(bottom)"},
		Notes: "tuned = any accepted point of {1..4}ⁿ windows on the same plans; cheapest = least-staging accepted assignment; slack-opt = the accepted assignment maximizing worst-case slack (ties → less staging)",
	}
	base, d4 := core.RTMDM(), core.RTMDMDepth(4)
	uniformTest, err := analysis.ForPolicy(base)
	if err != nil {
		return nil, err
	}
	d4Test, err := analysis.ForPolicy(d4)
	if err != nil {
		return nil, err
	}
	for _, u := range []float64{0.5, 0.6, 0.7, 0.8} {
		specs, err := genSpecs(cfg, u, cfg.N)
		if err != nil {
			return nil, err
		}
		type t24res struct {
			deployed bool
			d2OK     bool
			d4OK     bool
			tuned    bool
			d2Stage  float64
			top, bot float64
			cheap    float64
		}
		results := make([]t24res, len(specs))
		parallelEach(len(specs), func(k int) {
			set, err := specs[k].Instantiate(cfg.Platform, base)
			if err != nil || core.Provision(set, cfg.Platform, base) != nil {
				return
			}
			r := t24res{deployed: true}
			r.d2OK = uniformTest(set, cfg.Platform).Schedulable
			var d2Stage int64
			for _, tk := range set.Tasks {
				d2Stage += core.MaxBufferBytes(tk, base)
			}
			r.d2Stage = float64(d2Stage) / 1024
			r.d4OK = core.Provision(set, cfg.Platform, d4) == nil && d4Test(set, cfg.Platform).Schedulable
			if cheapest, slackOpt, ok := dse.TuneWindows(set, cfg.Platform, core.RTMDMPerTaskDepth); ok {
				r.tuned = true
				byPrio := set.ByPriority()
				r.top = float64(slackOpt.Windows[byPrio[0].Name])
				r.bot = float64(slackOpt.Windows[byPrio[len(byPrio)-1].Name])
				r.cheap = float64(cheapest.StagingBytes) / 1024
			}
			results[k] = r
		})
		var d2OK, d4OK, tunedOK int
		var topSum, botSum, cheapSum, d2StagingSum float64
		tunedN := 0
		for _, r := range results {
			if !r.deployed {
				continue
			}
			if r.d2OK {
				d2OK++
			}
			d2StagingSum += r.d2Stage
			if r.d4OK {
				d4OK++
			}
			if !r.tuned {
				continue
			}
			tunedOK++
			tunedN++
			topSum += r.top
			botSum += r.bot
			cheapSum += r.cheap
		}
		n := float64(len(specs))
		top, bot, cheap := "-", "-", "-"
		if tunedN > 0 {
			top = f2(topSum / float64(tunedN))
			bot = f2(botSum / float64(tunedN))
			cheap = fmt.Sprintf("%.0f", cheapSum/float64(tunedN))
		}
		t.AddRow(f2(u), pct(float64(d2OK)/n), pct(float64(d4OK)/n), pct(float64(tunedOK)/n),
			cheap, fmt.Sprintf("%.0f", d2StagingSum/n), top, bot)
	}
	return t, nil
}
