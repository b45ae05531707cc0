package expr

import (
	"fmt"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/exec"
	"rtmdm/internal/models"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
)

func init() {
	register(Experiment{ID: "T1", Title: "Model zoo inventory and segmentation on the default platform", Run: runT1})
	register(Experiment{ID: "F2", Title: "Single-DNN latency: serial load-then-compute vs RT-MDM prefetch pipeline", Run: runF2})
	register(Experiment{ID: "F3", Title: "Pipeline speedup vs external-memory bandwidth (crossover sweep)", Run: runF3})
}

func runT1(cfg Config) (*Table, error) {
	plat := cfg.Platform
	budget := core.SegmentBudget(plat, 3, core.RTMDM())
	t := &Table{
		ID:    "T1",
		Title: fmt.Sprintf("Model zoo on %s (staging budget %d KiB/segment)", plat.Name, budget>>10),
		Columns: []string{"model", "params(KiB)", "MACs(M)", "act-peak(KiB)", "layers",
			"segments", "load(ms)", "compute(ms)", "serial(ms)", "pipelined(ms)", "speedup"},
		Notes: "reconstructed experiment; pipelined = depth-2 double buffering",
	}
	catalog := models.Catalog()
	rows := make([][]string, len(catalog))
	errs := make([]error, len(catalog))
	parallelEach(len(catalog), func(i int) {
		info := catalog[i]
		m, err := models.Reference(info.Name)
		if err != nil {
			errs[i] = err
			return
		}
		pl, err := segment.Build(m, plat, budget, segment.Greedy)
		if err != nil {
			errs[i] = err
			return
		}
		serial := pl.SerialNs()
		pipe := pl.PipelineNs(2)
		rows[i] = []string{
			info.Name,
			fmt.Sprintf("%.1f", float64(m.TotalParamBytes())/1024),
			fmt.Sprintf("%.2f", float64(m.TotalMACs())/1e6),
			fmt.Sprintf("%.1f", float64(m.PeakActivationBytes())/1024),
			fmt.Sprintf("%d", m.NumLayers()),
			fmt.Sprintf("%d", pl.NumSegments()),
			ms(pl.TotalLoadNs()),
			ms(pl.TotalComputeNs()),
			ms(serial),
			ms(pipe),
			f2(float64(serial) / float64(pipe)),
		}
	})
	for i, row := range rows {
		if errs[i] != nil {
			return nil, errs[i]
		}
		t.AddRow(row...)
	}
	return t, nil
}

// singleJobResponse simulates one isolated inference of the model under a
// policy and returns the observed response time in ns.
func singleJobResponse(plat cost.Platform, model string, pol core.Policy) (int64, error) {
	m, err := models.Reference(model)
	if err != nil {
		return 0, err
	}
	pl, err := segment.BuildLimits(m, plat, pol.Limits(plat, 1), segment.Greedy)
	if err != nil {
		return 0, err
	}
	tk := &task.Task{Name: model, Plan: pl, Period: sim.Second, Deadline: sim.Second}
	s := task.NewSet(tk)
	r, err := exec.Run(s, plat, pol, sim.Second)
	if err != nil {
		return 0, err
	}
	tm := r.Metrics.PerTask[model]
	if tm.Completed == 0 {
		return 0, fmt.Errorf("expr: %s under %s never completed", model, pol.Name)
	}
	return int64(tm.MaxResponse), nil
}

func runF2(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "F2",
		Title: fmt.Sprintf("Isolated inference latency on %s (simulated)", cfg.Platform.Name),
		Columns: []string{"model", "serial(ms)", "rt-mdm(ms)", "speedup",
			"analytic-pipe(ms)", "bound"},
		Notes: "serial = load-then-compute baseline; bound = by which resource the pipeline saturates",
	}
	catalog := models.Catalog()
	rows := make([][]string, len(catalog))
	errs := make([]error, len(catalog))
	parallelEach(len(catalog), func(i int) {
		info := catalog[i]
		serial, err := singleJobResponse(cfg.Platform, info.Name, core.SerialNPFP())
		if err != nil {
			errs[i] = err
			return
		}
		pipe, err := singleJobResponse(cfg.Platform, info.Name, core.RTMDM())
		if err != nil {
			errs[i] = err
			return
		}
		m, err := models.Reference(info.Name)
		if err != nil {
			errs[i] = err
			return
		}
		pl, err := segment.BuildLimits(m, cfg.Platform, core.RTMDM().Limits(cfg.Platform, 1), segment.Greedy)
		if err != nil {
			errs[i] = err
			return
		}
		bound := "compute"
		if pl.TotalLoadNs() > pl.TotalComputeNs() {
			bound = "memory"
		}
		rows[i] = []string{info.Name, ms(serial), ms(pipe),
			f2(float64(serial) / float64(pipe)), ms(pl.PipelineNs(2)), bound}
	})
	for i, row := range rows {
		if errs[i] != nil {
			return nil, errs[i]
		}
		t.AddRow(row...)
	}
	return t, nil
}

func runF3(cfg Config) (*Table, error) {
	bws := []int64{16 << 20, 32 << 20, 64 << 20, 128 << 20, 256 << 20}
	names := models.Names()
	cols := []string{"bandwidth(MB/s)"}
	cols = append(cols, names...)
	t := &Table{
		ID:      "F3",
		Title:   "Pipeline speedup (serial / RT-MDM latency) vs external-memory bandwidth",
		Columns: cols,
		Notes: "each model peaks where load ≈ compute: compute-bound models gain as bandwidth drops, " +
			"load-bound models as it rises; ≈1 when either resource dominates outright",
	}
	for _, bw := range bws {
		plat := cfg.Platform.WithBandwidth(bw)
		row := []string{fmt.Sprintf("%d", bw>>20)}
		cells := make([]string, len(names))
		errs := make([]error, len(names))
		parallelEach(len(names), func(i int) {
			serial, err := singleJobResponse(plat, names[i], core.SerialNPFP())
			if err != nil {
				errs[i] = err
				return
			}
			pipe, err := singleJobResponse(plat, names[i], core.RTMDM())
			if err != nil {
				errs[i] = err
				return
			}
			cells[i] = f2(float64(serial) / float64(pipe))
		})
		for i, c := range cells {
			if errs[i] != nil {
				return nil, errs[i]
			}
			row = append(row, c)
		}
		t.AddRow(row...)
	}
	return t, nil
}
