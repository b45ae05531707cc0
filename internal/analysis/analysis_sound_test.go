package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/exec"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
)

// randomSet builds a deterministic pseudo-random synthetic task set with n
// tasks on platform p. Utilizations span the schedulability boundary so
// verdicts come out mixed.
func randomSet(p cost.Platform, seed int64, n int) *task.Set {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	var ts []*task.Task
	for i := 0; i < n; i++ {
		nseg := rng.Intn(4) + 1
		var specs []segSpec
		for k := 0; k < nseg; k++ {
			specs = append(specs, segSpec{
				bytes:   int64(rng.Intn(2500)),
				compute: int64(rng.Intn(2500) + 50),
			})
		}
		period := sim.Duration(rng.Intn(40_000) + 8_000)
		ts = append(ts, mkTask(p, fmt.Sprintf("t%d", i), period, i, specs...))
	}
	s := task.NewSet(ts...)
	s.AssignRM()
	return s
}

// withOffsets returns a copy of the set with pseudo-random release offsets.
// Analytical verdicts are offset-independent, so they must hold for any
// offset pattern.
func withOffsets(s *task.Set, seed int64) *task.Set {
	rng := rand.New(rand.NewSource(seed))
	var out []*task.Task
	for _, t := range s.Tasks {
		c := *t
		c.Offset = sim.Duration(rng.Intn(int(t.Period)))
		out = append(out, &c)
	}
	return task.NewSet(out...)
}

// withJitter returns a copy whose tasks carry maximal-entropy release
// jitter up to frac·T. Verdicts computed on the jittered set must hold for
// the executor's pseudo-random arrival delays.
func withJitter(s *task.Set, frac float64) *task.Set {
	var out []*task.Task
	for _, t := range s.Tasks {
		c := *t
		c.Jitter = sim.Duration(float64(t.Period) * frac)
		out = append(out, &c)
	}
	return task.NewSet(out...)
}

// PT-7: analysis soundness against the executor. Any task set an analysis
// deems schedulable must complete every job by its deadline in simulation —
// under synchronous release and under random offsets, with and without bus
// contention.
func TestPropertyAnalysisSoundAgainstExecutor(t *testing.T) {
	// Every policy is checked against the test ForPolicy resolves it to,
	// which is the test production runs for it.
	//
	// Heterogeneous per-task prefetch windows (extension T24): the same
	// soundness obligation with every task on its own depth — randomSet
	// names tasks t0..t4, so the map covers any generated size.
	hetPol := core.RTMDMPerTaskDepth(map[string]int{"t0": 3, "t1": 1, "t2": 4, "t3": 2, "t4": 3})
	hetEDF := hetPol
	hetEDF.EDF = true
	type pair struct {
		pol  core.Policy
		test func(*task.Set, cost.Platform) Verdict
	}
	var pairs []pair
	for _, pol := range []core.Policy{
		core.RTMDM(), core.RTMDMDepth(3), core.RTMDMDepth(4), core.RTMDMChunked(700),
		core.RTMDMFIFODMA(), core.SerialSegFP(), core.SerialNPFP(), core.RTMDMEDF(),
		hetPol, hetEDF,
	} {
		pairs = append(pairs, pair{pol, policyTest(t, pol)})
	}
	plats := []cost.Platform{testPlat()}
	con := testPlat()
	con.Bus = cost.Contention{CPUNum: 4, CPUDen: 5, DMANum: 4, DMADen: 5}
	plats = append(plats, con)
	sw := testPlat()
	sw.CPU.SwitchNs = 300 // context-switch overhead variant
	plats = append(plats, sw)

	trials := 60
	if testing.Short() {
		trials = 15
	}
	accepted := 0
	for trial := 0; trial < trials; trial++ {
		for pi, plat := range plats {
			base := randomSet(plat, int64(trial*10+pi), 2+trial%3)
			s := base
			if trial%3 == 1 {
				// Every third trial analyzes and runs a jittered variant:
				// the verdict must account for the executor's release
				// delays via the analyses' jitter terms.
				s = withJitter(base, 0.2)
			}
			for _, pr := range pairs {
				v := pr.test(s, plat)
				if !v.Schedulable {
					continue
				}
				accepted++
				horizon := s.Hyperperiod(1 * sim.Millisecond)
				if horizon < 300*sim.Microsecond {
					horizon = 300 * sim.Microsecond
				}
				for variant, ss := range map[string]*task.Set{
					"sync":    s,
					"offsets": withOffsets(s, int64(trial)),
				} {
					r, err := exec.Run(ss, plat, pr.pol, horizon)
					if err != nil {
						t.Fatalf("trial %d %s %s: %v", trial, pr.pol.Name, variant, err)
					}
					if r.Metrics.AnyMiss() {
						for name, tm := range r.Metrics.PerTask {
							t.Logf("  %s: rel=%d done=%d miss=%d maxResp=%v wcrt=%v",
								name, tm.Released, tm.Completed, tm.Misses,
								tm.MaxResponse, v.WCRT[name])
						}
						t.Fatalf("trial %d plat %d %s (%s, %s): analysis said schedulable but simulation missed",
							trial, pi, pr.pol.Name, v.Test, variant)
					}
					// WCRT bounds must also dominate observed responses.
					if v.WCRT != nil {
						for name, tm := range r.Metrics.PerTask {
							if bound, ok := v.WCRT[name]; ok && tm.MaxResponse > bound {
								t.Fatalf("trial %d %s %s: task %s observed %v > bound %v",
									trial, pr.pol.Name, variant, name, tm.MaxResponse, bound)
							}
						}
					}
				}
			}
		}
	}
	if accepted < trials/3 {
		t.Fatalf("only %d accepted verdicts across %d trials — workload too hard to exercise soundness", accepted, trials)
	}
}

// The analyses must also not be vacuous: across random sets each test
// accepts some and rejects some.
func TestAnalysesAreNotVacuous(t *testing.T) {
	p := testPlat()
	tests := map[string]func(*task.Set, cost.Platform) Verdict{
		"rtmdm": policyTest(t, core.RTMDM()),
		"segfp": policyTest(t, core.SerialSegFP()),
		"npfp":  policyTest(t, core.SerialNPFP()),
		"edf":   policyTest(t, core.RTMDMEDF()),
	}
	acc := map[string]int{}
	rej := map[string]int{}
	for trial := 0; trial < 80; trial++ {
		s := randomSet(p, int64(trial), 3)
		for name, test := range tests {
			if test(s, p).Schedulable {
				acc[name]++
			} else {
				rej[name]++
			}
		}
	}
	for name := range tests {
		if acc[name] == 0 || rej[name] == 0 {
			t.Errorf("%s is vacuous: accepted %d rejected %d", name, acc[name], rej[name])
		}
	}
	// Dominance shape: RT-MDM accepts at least as many as the NP baseline.
	if acc["rtmdm"] < acc["npfp"] {
		t.Errorf("RT-MDM accepted %d < NP baseline %d", acc["rtmdm"], acc["npfp"])
	}
}

// TestOverlapDegradationRegression is the distilled counterexample that
// falsified the earlier pipeline-credit RTA for non-top tasks (stress
// trial 1440 shape): the higher-priority job's full prefetch window gates
// the lower job's staging even while the lower job computes, so the lower
// job's own computes hide none of its remaining loads and it degrades to
// its serial chain interleaved with the interferer. The current analysis
// must accept the set and its serial-based lower bound must dominate the
// observed response.
func TestOverlapDegradationRegression(t *testing.T) {
	p := testPlat()
	lo := &task.Task{Name: "lo", Plan: mkPlan(p,
		segSpec{1000, 3000}, segSpec{1000, 3000}, segSpec{1000, 3000}),
		Period: 50_000, Deadline: 50_000, Priority: 1}
	hi := &task.Task{Name: "hi", Plan: mkPlan(p,
		segSpec{500, 5000}, segSpec{500, 5000}, segSpec{500, 5000}),
		Period: 50_000, Deadline: 50_000, Offset: 500, Priority: 0}
	s := task.NewSet(lo, hi)

	v := policyTest(t, core.RTMDM())(s, p)
	if !v.Schedulable {
		t.Fatalf("verdict negative: %s", v.Reason)
	}
	r, err := exec.Run(s, p, core.RTMDM(), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	obs := r.Metrics.PerTask["lo"].MaxResponse
	// The degradation is total here: lo's response is its serial chain
	// (12 µs) plus hi's entire two-resource demand (16.5 µs) minus only
	// the pre-release slice of lo's first compute (3.5 µs).
	if obs != 25_000 {
		t.Fatalf("lo observed %v, want 25000 (scenario drifted)", obs)
	}
	// lo's pipelined makespan is 10 µs; a bound of pipe + hi's ΣC+ΣL with
	// one interfering job would be 26.5 µs — barely above this instance,
	// which is why only the randomized stress caught the general case.
	// The serial-based bound must cover it with the fixpoint's window
	// count.
	if bound := v.WCRT["lo"]; obs > bound {
		t.Fatalf("lo observed %v exceeds bound %v", obs, bound)
	}
	if hiObs := r.Metrics.PerTask["hi"].MaxResponse; hiObs > v.WCRT["hi"] {
		t.Fatalf("hi observed %v exceeds bound %v", hiObs, v.WCRT["hi"])
	}
	if ratio := r.Metrics.TotalMissRatio(); ratio != 0 {
		t.Fatalf("accepted set missed deadlines (ratio %v)", ratio)
	}
}

// TestPropertyAnalysisMonotone pins two structural invariants of every
// fixed-priority test: bounds never improve when (a) the platform gets
// harsher (more bus contention, costlier context switches) or (b) a new
// highest-priority interferer is added. A violation would mean some term
// credits interference or derating as a benefit — historically the kind
// of sign error that survives spot checks.
func TestPropertyAnalysisMonotone(t *testing.T) {
	tests := []struct {
		name string
		run  func(*task.Set, cost.Platform) Verdict
	}{
		{"rtmdm", policyTest(t, core.RTMDM())},
		{"rtmdm-d3", policyTest(t, core.RTMDMDepth(3))},
		{"chunked", policyTest(t, core.RTMDMChunked(500))},
		{"segfp", policyTest(t, core.SerialSegFP())},
		{"npfp", policyTest(t, core.SerialNPFP())},
		{"fifo", policyTest(t, core.RTMDMFIFODMA())},
	}
	plat := testPlat()
	harsh := testPlat()
	harsh.Bus = cost.Contention{CPUNum: 3, CPUDen: 4, DMANum: 3, DMADen: 4}
	harsh.CPU.SwitchNs += 150

	for trial := 0; trial < 80; trial++ {
		s := randomSet(plat, int64(trial)*104729+5, 2+trial%3)
		// The interferer: shorter period than anything randomSet emits,
		// so rate-monotonic assignment puts it on top and leaves the
		// existing relative order untouched.
		intf := mkTask(plat, "aintf", 4000, 0, segSpec{300, 400})
		grown := task.NewSet(append([]*task.Task{intf}, s.Tasks...)...)
		grown.AssignRM()

		for _, tc := range tests {
			base := tc.run(s, plat)
			for variant, v := range map[string]Verdict{
				"harsher-platform": tc.run(s, harsh),
				"added-interferer": tc.run(grown, plat),
			} {
				if !base.Schedulable {
					continue // nothing to compare: base bounds are partial
				}
				if v.Schedulable {
					for _, tk := range s.Tasks {
						if v.WCRT[tk.Name] < base.WCRT[tk.Name] {
							t.Fatalf("trial %d %s/%s: task %s bound improved %v -> %v",
								trial, tc.name, variant, tk.Name,
								base.WCRT[tk.Name], v.WCRT[tk.Name])
						}
					}
				}
			}
			// Monotone verdicts: a set the analysis rejects must stay
			// rejected on the harsher platform.
			if !base.Schedulable && tc.run(s, harsh).Schedulable {
				t.Fatalf("trial %d %s: rejected set accepted under harsher platform", trial, tc.name)
			}
		}
	}
}

// TestHeterogeneousDepthAnalysisRelations pins the directional effects of
// per-task windows on the bounds: deepening a LOWER task's window can only
// raise the top task's bound (more staged inventory to block with), while
// deepening the TOP task's own window can only lower its bound (deeper
// pipeline, same blocking).
func TestHeterogeneousDepthAnalysisRelations(t *testing.T) {
	plat := testPlat()
	hi := mkTask(plat, "hi", 20_000, 0,
		segSpec{800, 900}, segSpec{800, 900}, segSpec{800, 900})
	lo := mkTask(plat, "lo", 60_000, 1,
		segSpec{1500, 1200}, segSpec{1500, 1200}, segSpec{1500, 1200}, segSpec{1500, 1200})
	s := task.NewSet(hi, lo)

	depths := func(h, l int) core.Policy {
		return core.RTMDMPerTaskDepth(map[string]int{"hi": h, "lo": l})
	}
	het := func(h, l int) Verdict { return policyTest(t, depths(h, l))(s, plat) }
	uniform := policyTest(t, core.RTMDM())(s, plat)
	if !uniform.Schedulable {
		t.Fatalf("baseline unschedulable: %s", uniform.Reason)
	}
	deepLo := het(2, 4)
	if deepLo.WCRT["hi"] < uniform.WCRT["hi"] {
		t.Fatalf("deeper lower window lowered hi bound: %v < %v",
			deepLo.WCRT["hi"], uniform.WCRT["hi"])
	}
	deepHi := het(4, 2)
	if deepHi.WCRT["hi"] > uniform.WCRT["hi"] {
		t.Fatalf("deeper own window raised hi bound: %v > %v",
			deepHi.WCRT["hi"], uniform.WCRT["hi"])
	}
	// The het analysis at uniform depths must agree exactly with the
	// uniform analysis.
	same := het(2, 2)
	for name, want := range uniform.WCRT {
		if same.WCRT[name] != want {
			t.Fatalf("uniform-depth het analysis diverged on %s: %v != %v",
				name, same.WCRT[name], want)
		}
	}
	// EDF counterpart: uniform-depth agreement.
	hetEDF := depths(2, 2)
	hetEDF.EDF = true
	eu := policyTest(t, core.RTMDMEDF())(s, plat)
	eh := policyTest(t, hetEDF)(s, plat)
	if eu.Schedulable != eh.Schedulable {
		t.Fatalf("EDF het/uniform verdicts diverge: %v vs %v", eu.Schedulable, eh.Schedulable)
	}
}
