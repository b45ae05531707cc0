package expr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/exec"
	"rtmdm/internal/metrics"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
	"rtmdm/internal/workload"
)

func init() {
	register(Experiment{ID: "F4", Title: "Schedulability ratio vs utilization (offline analyses)", Run: runF4})
	register(Experiment{ID: "F5", Title: "Empirical deadline-miss ratio vs utilization (simulation)", Run: runF5})
	register(Experiment{ID: "F6", Title: "Schedulability vs staging SRAM budget", Run: runF6})
	register(Experiment{ID: "F7", Title: "Schedulability vs number of DNN tasks", Run: runF7})
	register(Experiment{ID: "F12", Title: "EDF extension: RT-MDM-FP vs RT-MDM-EDF schedulability", Run: runF12})
}

// sweepUtils is the utilization axis of the headline experiments.
var sweepUtils = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// genOneSpec draws one task-set spec for an explicit platform.
func genOneSpec(cfg Config, plat cost.Platform, util float64, n int, k int64) (workload.SetSpec, error) {
	return workload.Generate(workload.Params{
		Seed:     cfg.Seed + k*7907 + int64(util*1000)*13 + int64(n),
		N:        n,
		Util:     util,
		Platform: plat,
	})
}

// genSpecs draws cfg.Sets task-set specs at one utilization point. Each
// spec is a pure function of its seed, so the draws parallelize into
// pre-sized slots without changing any output.
func genSpecs(cfg Config, util float64, n int) ([]workload.SetSpec, error) {
	specs := make([]workload.SetSpec, cfg.Sets)
	errs := make([]error, cfg.Sets)
	parallelEach(cfg.Sets, func(k int) {
		specs[k], errs[k] = genOneSpec(cfg, cfg.Platform, util, n, int64(k))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// acceptResult is one memoized offline-pipeline outcome. The verdict and
// task set are shared across all callers with the same inputs; both are
// read-only by contract (every analysis and the executor treat sets as
// immutable, and BreakdownFactor copies before scaling).
type acceptResult struct {
	acc bool
	v   *analysis.Verdict
	s   *task.Set
}

// acceptCache memoizes accepted() on (spec, platform, policy) keys.
// The offline pipeline is deterministic in those inputs, so sweep points
// that revisit a configuration — F4/F6/F7 share specs at U=0.6, T18 re-runs
// the default δ, benchmarks iterate whole experiments — skip segmentation,
// provisioning and analysis entirely.
var acceptCache sync.Map // acceptKey → acceptResult

type acceptKey struct {
	spec workload.SpecKey
	plat cost.PlatformKey
	pol  core.PolicyKey
}

// cacheIns carries the harness's cache-effectiveness counters (nil metrics
// when instrumentation is off). rtmdm-bench -metrics snapshots the registry
// around each experiment, so the diffs read as per-experiment hit/miss.
type cacheIns struct {
	hits   *metrics.Counter
	misses *metrics.Counter
}

var instr atomic.Pointer[cacheIns]

func init() { instr.Store(&cacheIns{}) }

// Instrument wires the harness's offline-pipeline cache to the registry;
// Instrument(nil) disables instrumentation.
func Instrument(r *metrics.Registry) {
	if r == nil {
		instr.Store(&cacheIns{})
		return
	}
	instr.Store(&cacheIns{
		hits:   r.Counter("expr.accept_cache_hits", "lookups", "offline-pipeline results served from the accept cache"),
		misses: r.Counter("expr.accept_cache_misses", "lookups", "offline-pipeline runs that had to compute"),
	})
}

// accepted runs a policy's offline pipeline on one spec: instantiate,
// provision, analyze. Any stage failing means "not schedulable offline".
// Results are memoized; callers must treat the returned verdict and set as
// read-only.
func accepted(sp workload.SetSpec, plat cost.Platform, pol core.Policy) (bool, *analysis.Verdict, *task.Set) {
	key := acceptKey{spec: sp.Key(), plat: plat.Key(), pol: pol.Key()}
	if r, ok := acceptCache.Load(key); ok {
		instr.Load().hits.Add(1)
		ar := r.(acceptResult)
		return ar.acc, ar.v, ar.s
	}
	instr.Load().misses.Add(1)
	acc, v, s := acceptedUncached(sp, plat, pol)
	acceptCache.Store(key, acceptResult{acc: acc, v: v, s: s})
	return acc, v, s
}

func acceptedUncached(sp workload.SetSpec, plat cost.Platform, pol core.Policy) (bool, *analysis.Verdict, *task.Set) {
	s, err := sp.Instantiate(plat, pol)
	if err != nil {
		return false, nil, nil
	}
	if err := core.Provision(s, plat, pol); err != nil {
		return false, nil, s
	}
	test, err := analysis.ForPolicy(pol)
	if err != nil {
		return false, nil, s
	}
	v := test(s, plat)
	return v.Schedulable, &v, s
}

func schedRatioRow(cfg Config, util float64, n int, pols []core.Policy) ([]string, error) {
	specs, err := genSpecs(cfg, util, n)
	if err != nil {
		return nil, err
	}
	row := []string{f2(util)}
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
	return row, nil
}

func runF4(cfg Config) (*Table, error) {
	pols := core.ComparisonSet()
	cols := []string{"util"}
	for _, p := range pols {
		cols = append(cols, p.Name)
	}
	t := &Table{
		ID:      "F4",
		Title:   fmt.Sprintf("Fraction of %d random %d-task sets deemed schedulable (offline)", cfg.Sets, cfg.N),
		Columns: cols,
		Notes:   "reconstructed headline figure; utilization = serial demand / period at the reference segmentation",
	}
	for _, u := range sweepUtils {
		row, err := schedRatioRow(cfg, u, cfg.N, pols)
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	return t, nil
}

// simHorizon picks the empirical window for a set.
func simHorizon(s *task.Set, cap sim.Duration) sim.Duration {
	var maxT sim.Duration
	for _, tk := range s.Tasks {
		if tk.Period > maxT {
			maxT = tk.Period
		}
	}
	h := core.SatMulTime(maxT, 20)
	if h > cap {
		h = cap
	}
	if hp := s.Hyperperiod(cap); hp < h {
		h = hp
	}
	return h
}

func runF5(cfg Config) (*Table, error) {
	pols := core.ComparisonSet()
	cols := []string{"util"}
	for _, p := range pols {
		cols = append(cols, p.Name+" sets-missing", p.Name+" job-miss")
	}
	t := &Table{
		ID:      "F5",
		Title:   fmt.Sprintf("Empirical misses over %d random %d-task sets (synchronous release)", cfg.Sets, cfg.N),
		Columns: cols,
		Notes:   "sets-missing = fraction of sets with ≥1 miss; job-miss = mean per-set job miss ratio",
	}
	for _, u := range sweepUtils {
		specs, err := genSpecs(cfg, u, cfg.N)
		if err != nil {
			return nil, err
		}
		row := []string{f2(u)}
		for _, pol := range pols {
			pol := pol
			type res struct {
				miss bool
				jobs float64
				err  error
			}
			results := make([]res, len(specs))
			parallelEach(len(specs), func(k int) {
				s, err := specs[k].Instantiate(cfg.Platform, pol)
				if err != nil {
					results[k] = res{miss: true, jobs: 1} // undeployable counts as failing
					return
				}
				r, err := exec.Run(s, cfg.Platform, pol, simHorizon(s, cfg.MaxHorizon))
				if err != nil {
					results[k] = res{err: err}
					return
				}
				results[k] = res{miss: r.Metrics.AnyMiss(), jobs: r.Metrics.TotalMissRatio()}
			})
			missSets, missJobs := 0, 0.0
			for _, rr := range results {
				if rr.err != nil {
					return nil, rr.err
				}
				if rr.miss {
					missSets++
				}
				missJobs += rr.jobs
			}
			n := float64(len(specs))
			row = append(row, pct(float64(missSets)/n), pct(missJobs/n))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func runF6(cfg Config) (*Table, error) {
	bufs := []int64{32 << 10, 64 << 10, 128 << 10, 192 << 10, 256 << 10, 384 << 10}
	const util = 0.6
	pols := []core.Policy{core.SerialSegFP(), core.RTMDM()}
	cols := []string{"staging-SRAM(KiB)"}
	for _, p := range pols {
		cols = append(cols, p.Name)
	}
	t := &Table{
		ID:      "F6",
		Title:   fmt.Sprintf("Schedulability at U=%.1f vs staging/activation SRAM partition (%d sets, %d tasks)", util, cfg.Sets, cfg.N),
		Columns: cols,
		Notes: "the 512 KiB SRAM is partitioned between staging buffers and activations: too little staging " +
			"means fine segments and transfer setups, too much starves preempted jobs' parked activations; " +
			"the shared-buffer serial baseline additionally suffers long non-preemptive transfers at large budgets",
	}
	specs, err := genSpecs(cfg, util, cfg.N)
	if err != nil {
		return nil, err
	}
	for _, buf := range bufs {
		plat := cfg.Platform.WithWeightBuf(buf)
		row := []string{fmt.Sprintf("%d", buf>>10)}
		for _, pol := range pols {
			pol := pol
			acc := make([]bool, len(specs))
			parallelEach(len(specs), func(k int) {
				acc[k], _, _ = accepted(specs[k], plat, pol)
			})
			ok := 0
			for _, a := range acc {
				if a {
					ok++
				}
			}
			row = append(row, pct(float64(ok)/float64(len(specs))))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func runF7(cfg Config) (*Table, error) {
	ns := []int{2, 3, 4, 6, 8}
	const util = 0.6
	pols := core.ComparisonSet()
	cols := []string{"tasks"}
	for _, p := range pols {
		cols = append(cols, p.Name)
	}
	t := &Table{
		ID:      "F7",
		Title:   fmt.Sprintf("Schedulability at U=%.1f vs task-set size (%d sets)", util, cfg.Sets),
		Columns: cols,
		Notes:   "RT-MDM splits staging SRAM per task, so larger sets pay finer segmentation",
	}
	for _, n := range ns {
		row, err := schedRatioRow(cfg, util, n, pols)
		if err != nil {
			return nil, err
		}
		row[0] = fmt.Sprintf("%d", n)
		t.AddRow(row...)
	}
	return t, nil
}

func runF12(cfg Config) (*Table, error) {
	pols := []core.Policy{core.RTMDM(), core.RTMDMEDF()}
	cols := []string{"util"}
	for _, p := range pols {
		cols = append(cols, p.Name+" sched", p.Name+" sim-missing")
	}
	t := &Table{
		ID:      "F12",
		Title:   fmt.Sprintf("Fixed-priority vs EDF variant of RT-MDM (%d sets, %d tasks)", cfg.Sets, cfg.N),
		Columns: cols,
		Notes: "sched = offline acceptance; sim-missing = sets with ≥1 empirical miss. " +
			"The EDF runtime matches FP, but its suspension-oblivious demand test is weaker than the FP RTA",
	}
	for _, u := range sweepUtils {
		specs, err := genSpecs(cfg, u, cfg.N)
		if err != nil {
			return nil, err
		}
		row := []string{f2(u)}
		for _, pol := range pols {
			pol := pol
			type res struct {
				acc  bool
				miss bool
				err  error
			}
			results := make([]res, len(specs))
			parallelEach(len(specs), func(k int) {
				acc, _, s := accepted(specs[k], cfg.Platform, pol)
				if s == nil {
					results[k] = res{acc: acc, miss: true}
					return
				}
				r, err := exec.Run(s, cfg.Platform, pol, simHorizon(s, cfg.MaxHorizon))
				if err != nil {
					results[k] = res{err: err}
					return
				}
				results[k] = res{acc: acc, miss: r.Metrics.AnyMiss()}
			})
			ok, missSets := 0, 0
			for _, rr := range results {
				if rr.err != nil {
					return nil, rr.err
				}
				if rr.acc {
					ok++
				}
				if rr.miss {
					missSets++
				}
			}
			n := float64(len(specs))
			row = append(row, pct(float64(ok)/n), pct(float64(missSets)/n))
		}
		t.AddRow(row...)
	}
	return t, nil
}
