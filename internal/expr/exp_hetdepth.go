package expr

import (
	"fmt"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
)

func init() {
	register(Experiment{ID: "T24", Title: "Heterogeneous prefetch windows: per-task depth tuning at fixed segmentation", Run: runT24})
}

// runT24 isolates the prefetch-window knob: every variant runs on the SAME
// depth-2 segmentation (unlike T9, which re-segments per depth), so the
// only difference is how far each task's DMA may run ahead — and how much
// staging SRAM its window pins. A brute-force tuner searches {1,2,3,4}ⁿ
// per set and reports two optima over the accepted assignments: the
// CHEAPEST (least staging SRAM — the economy story: the same guarantee at
// a fraction of the partition) and the SLACK-MAXIMAL one (the gradient
// story: the top-priority task deepens for free since its window blocks
// nobody, while lower tasks stay shallow because their staged inventory
// is exactly what blocks everyone above them).
func runT24(cfg Config) (*Table, error) {
	t := &Table{
		ID: "T24",
		Title: fmt.Sprintf("Per-task prefetch depths vs uniform windows (%d sets, %d tasks, fixed depth-2 segmentation)",
			cfg.Sets, cfg.N),
		Columns: []string{"util", "uniform-d2 sched", "uniform-d4 sched", "tuned sched",
			"cheapest staging(KiB)", "d2 staging(KiB)", "slack-opt depth(top)", "slack-opt depth(bottom)"},
		Notes: "tuned = any accepted point of {1..4}ⁿ windows on the same plans; cheapest = least-staging accepted assignment; slack-opt = the accepted assignment maximizing worst-case slack (ties → less staging)",
	}
	base := core.RTMDM()
	uniformTest, err := analysis.ForPolicy(base)
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
			r.d2Stage = float64(stagingNeed(set, uniformDepths(set, 2))) / 1024
			r.d4OK = acceptedAtDepths(set, cfg.Platform, uniformDepths(set, 4))
			if cheapest, slackOpt, ok := tuneDepths(set, cfg.Platform); ok {
				r.tuned = true
				byPrio := set.ByPriority()
				r.top = float64(slackOpt[byPrio[0].Name])
				r.bot = float64(slackOpt[byPrio[len(byPrio)-1].Name])
				r.cheap = float64(stagingNeed(set, cheapest)) / 1024
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

func uniformDepths(s *task.Set, d int) map[string]int {
	out := make(map[string]int, len(s.Tasks))
	for _, tk := range s.Tasks {
		out[tk.Name] = d
	}
	return out
}

// stagingNeed is the SRAM the given window assignment pins: each task's
// depth buffers of its largest segment.
func stagingNeed(s *task.Set, depths map[string]int) int64 {
	var need int64
	for _, tk := range s.Tasks {
		d := depths[tk.Name]
		if d > tk.NumSegments() {
			d = tk.NumSegments()
		}
		need += int64(d) * tk.Plan.MaxLoadBytes()
	}
	return need
}

func acceptedAtDepths(s *task.Set, plat cost.Platform, depths map[string]int) bool {
	v, ok := perTaskDepthVerdict(s, plat, depths)
	return ok && v.Schedulable
}

// perTaskDepthVerdict runs the analysis of RT-MDM at the given per-task
// windows; ok is false when the windows cannot be provisioned.
func perTaskDepthVerdict(s *task.Set, plat cost.Platform, depths map[string]int) (v analysis.Verdict, ok bool) {
	pol := core.RTMDMPerTaskDepth(depths)
	if core.Provision(s, plat, pol) != nil {
		return v, false
	}
	test, err := analysis.ForPolicy(pol)
	if err != nil {
		return v, false
	}
	return test(s, plat), true
}

// tuneDepths brute-forces window assignments over {1,2,3,4}ⁿ and returns
// two accepted optima: the cheapest in staging SRAM (slack breaking ties)
// and the slack-maximal one (staging breaking ties). ok is false when no
// assignment is accepted.
func tuneDepths(s *task.Set, plat cost.Platform) (cheapest, slackOpt map[string]int, ok bool) {
	names := make([]string, len(s.Tasks))
	for i, tk := range s.Tasks {
		names[i] = tk.Name
	}
	candidates := []int{1, 2, 3, 4}
	var cheapStaging, slackOptStaging int64
	var cheapSlack, bestSlack sim.Duration
	assign := make([]int, len(names))
	var walk func(int)
	walk = func(i int) {
		if i == len(names) {
			depths := make(map[string]int, len(names))
			for k, n := range names {
				depths[n] = assign[k]
			}
			v, provisioned := perTaskDepthVerdict(s, plat, depths)
			if !provisioned || !v.Schedulable {
				return
			}
			staging := stagingNeed(s, depths)
			slack := sim.Duration(1<<63 - 1)
			for _, tk := range s.Tasks {
				if d := tk.Deadline - v.WCRT[tk.Name]; d < slack {
					slack = d
				}
			}
			if cheapest == nil || staging < cheapStaging ||
				(staging == cheapStaging && slack > cheapSlack) {
				cheapest, cheapStaging, cheapSlack = depths, staging, slack
			}
			if slackOpt == nil || slack > bestSlack ||
				(slack == bestSlack && staging < slackOptStaging) {
				slackOpt, bestSlack, slackOptStaging = depths, slack, staging
			}
			return
		}
		for _, d := range candidates {
			assign[i] = d
			walk(i + 1)
		}
	}
	walk(0)
	return cheapest, slackOpt, cheapest != nil
}
