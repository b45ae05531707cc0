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
	"rtmdm/internal/task"
)

func init() {
	register(Experiment{ID: "F10", Title: "Case study: keyword spotting + person detection + anomaly detection", Run: runF10})
}

// caseStudyTasks is the three-DNN always-on sensing workload motivating the
// paper: a keyword spotter every 50 ms, a person detector every 150 ms, and
// an acoustic anomaly detector every 100 ms.
var caseStudyTasks = []struct {
	name   string
	model  string
	period sim.Duration
}{
	{"kws", "ds-cnn", 50 * sim.Millisecond},
	{"persondet", "mobilenetv1-0.25", 150 * sim.Millisecond},
	{"anomaly", "autoencoder", 100 * sim.Millisecond},
}

// CaseStudySet instantiates the case-study workload for one policy.
func CaseStudySet(plat cost.Platform, pol core.Policy) (*task.Set, error) {
	lim := pol.Limits(plat, len(caseStudyTasks))
	var ts []*task.Task
	for _, ct := range caseStudyTasks {
		m, err := models.Reference(ct.model)
		if err != nil {
			return nil, err
		}
		pl, err := segment.BuildLimits(m, plat, lim, segment.Greedy)
		if err != nil {
			return nil, err
		}
		ts = append(ts, &task.Task{
			Name: ct.name, Plan: pl, Period: ct.period, Deadline: ct.period,
		})
	}
	s := task.NewSet(ts...)
	s.AssignRM()
	return s, nil
}

func runF10(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "F10",
		Title: fmt.Sprintf("Case study on %s: kws@50ms + persondet@150ms + anomaly@100ms", cfg.Platform.Name),
		Columns: []string{"policy", "task", "bound(ms)", "max-resp(ms)", "p95(ms)", "avg-resp(ms)",
			"miss-ratio", "cpu-util", "dma-util"},
		Notes: "bound '-' where no sound analysis exists for the policy",
	}
	pols := append(core.ComparisonSet(), core.RTMDMEDF(), core.RTMDMFIFODMA())
	horizon := 2 * 300 * sim.Millisecond // two hyperperiods
	blocks := make([][][]string, len(pols))
	errs := make([]error, len(pols))
	parallelEach(len(pols), func(pi int) {
		pol := pols[pi]
		s, err := CaseStudySet(cfg.Platform, pol)
		if err != nil {
			errs[pi] = err
			return
		}
		bounds := map[string]sim.Duration{}
		if test, err := analysis.ForPolicy(pol); err == nil {
			if v := test(s, cfg.Platform); v.WCRT != nil {
				for k, b := range v.WCRT {
					bounds[k] = b
				}
			}
		}
		r, err := exec.Run(s, cfg.Platform, pol, horizon)
		if err != nil {
			errs[pi] = err
			return
		}
		for _, ct := range caseStudyTasks {
			tm := r.Metrics.PerTask[ct.name]
			bcell := "-"
			if b, ok := bounds[ct.name]; ok {
				bcell = ms(int64(b))
			}
			blocks[pi] = append(blocks[pi], []string{pol.Name, ct.name, bcell,
				ms(int64(tm.MaxResponse)), ms(int64(tm.Percentile(95))), ms(int64(tm.AvgResponse())),
				pct(tm.MissRatio()),
				f2(r.CPUUtilization()), f2(r.DMAUtilization())})
		}
	})
	for pi, block := range blocks {
		if errs[pi] != nil {
			return nil, errs[pi]
		}
		for _, row := range block {
			t.AddRow(row...)
		}
	}
	return t, nil
}
