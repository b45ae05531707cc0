package rtmdm

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/corpus"
	"rtmdm/internal/cost"
	"rtmdm/internal/models"
	"rtmdm/internal/scenario"
	"rtmdm/internal/segment"
	"rtmdm/internal/task"
	"rtmdm/internal/workload"
)

// TestSimulateAllocBudget pins the steady-state allocation count of a full
// case-study simulation so the slab-based event kernel cannot silently
// regress back to per-event heap traffic. The budget has ~20% slack over
// the measured steady state (≈13.6k allocs: jobs, trace events and metric
// buckets — the simulation kernel itself is zero-alloc, see
// internal/sim/slab_test.go). The pre-slab baseline was ≈19.2k allocs/op.
func TestSimulateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is wall-time sensitive; skipped in -short")
	}
	plat := DefaultPlatform()
	pol := RTMDM()
	set, err := NewSystem(plat, pol).
		AddTask("kws", "ds-cnn", 50*Millisecond).
		AddTask("det", "mobilenetv1-0.25", 150*Millisecond).
		AddTask("anomaly", "autoencoder", 100*Millisecond).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the engine pool and the offline caches before measuring.
	if _, err := Simulate(set, plat, pol, Second); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Simulate(set, plat, pol, Second); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 16500
	if allocs > budget {
		t.Fatalf("Simulate steady state: %.0f allocs/op, budget %d", allocs, budget)
	}
}

// TestCorpusCheckAllocBudget pins the steady-state allocation count of
// the differential oracle across a warm 8-instance slice of the smoke
// corpus, so per-check regeneration of models or segmentation plans (the
// caches internal/workload memoizes) cannot silently regress the sweep's
// throughput. Individual checks vary with the drawn scenario (simulation
// length dominates), so the budget covers the whole slice with ~20% slack
// over the measured ≈44.4k.
func TestCorpusCheckAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is wall-time sensitive; skipped in -short")
	}
	spec := corpus.SmokeSpec()
	spec.Count = 8
	gen, err := corpus.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	o := corpus.NewOracle(gen)
	ctx := context.Background()
	sweep := func() {
		for i := 0; i < gen.Count(); i++ {
			if out := o.Check(ctx, i); out.Class == corpus.ClassViolation {
				t.Fatalf("index %d: %v", i, out.Violations)
			}
		}
	}
	sweep() // warm the model/segmentation/spec caches
	allocs := testing.AllocsPerRun(5, sweep)
	const budget = 53000
	if allocs > budget {
		t.Fatalf("corpus check steady state: %.0f allocs per 8-check sweep, budget %d", allocs, budget)
	}
}

// TestScenarioBuildBytesBudget pins the heap bytes one scenario build
// allocates, averaged over the first 64 smoke-corpus scenarios, so zoo
// tasks keep segmenting the shared models.Reference instance instead of
// generating int8 weights per task seed (≈10× the bytes). Measured
// ≈34 KB/op on a 2-vCPU Xeon.
func TestScenarioBuildBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is wall-time sensitive; skipped in -short")
	}
	gen, err := corpus.NewGenerator(corpus.SmokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	scs := make([]*scenario.Scenario, n)
	for i := range scs {
		it, err := gen.At(i)
		if err != nil {
			t.Fatal(err)
		}
		scs[i] = it.Scenario
	}
	build := func() {
		for _, sc := range scs {
			if _, _, _, err := sc.Build(); err != nil {
				t.Fatal(err)
			}
		}
	}
	build() // build the shared model instances before measuring
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / n
	const budget = 64 << 10
	if perOp > budget {
		t.Fatalf("scenario.Build: %.0f B/op over the first %d smoke scenarios, budget %d", perOp, n, budget)
	}
}

// admitCommitted builds the n-task committed set of the admission
// benchmarks: descending periods, so every committed task has real
// higher-priority interference and the warm path has bounds worth
// reusing.
func admitCommitted(n int) []scenario.TaskSpec {
	specs := make([]scenario.TaskSpec, n)
	for i := range specs {
		specs[i] = scenario.TaskSpec{
			Name:     fmt.Sprintf("t%02d", i),
			Model:    "tinymlp",
			PeriodMs: 200 - 5*float64(i),
		}
	}
	return specs
}

// admitCandidate is committed + one probe task, canonicalized the way
// the admission server hands candidates to the evaluator.
func admitCandidate(committed []scenario.TaskSpec) *scenario.Scenario {
	probe := scenario.TaskSpec{Name: "probe", Model: "tinymlp", PeriodMs: 40}
	return (&scenario.Scenario{
		Policy: "rt-mdm",
		Tasks:  append(append([]scenario.TaskSpec(nil), committed...), probe),
	}).Canonicalize()
}

// warmedAnalyzer returns an IncrementalAnalyzer with the committed set
// evaluated and committed — the state a server node holds when a probe
// arrives.
func warmedAnalyzer(tb testing.TB, committed []scenario.TaskSpec) *analysis.IncrementalAnalyzer {
	tb.Helper()
	base := (&scenario.Scenario{Policy: "rt-mdm",
		Tasks: append([]scenario.TaskSpec(nil), committed...)}).Canonicalize()
	inc := analysis.NewIncrementalAnalyzer()
	v, _, err := inc.Evaluate(context.Background(), base)
	if err != nil {
		tb.Fatal(err)
	}
	if !v.Schedulable {
		tb.Fatalf("committed set unschedulable: %s", v.Reason)
	}
	inc.Commit(base)
	return inc
}

// BenchmarkAdmitCold32 is the admission hot path without warm state: a
// full cold evaluation (segmentation of the shared zoo models, terms,
// fixpoints) of a 33-task candidate, as the server ran before the
// incremental analyzer.
func BenchmarkAdmitCold32(b *testing.B) {
	cand := admitCandidate(admitCommitted(32))
	ctx := context.Background()
	if _, err := analysis.EvaluateScenario(ctx, cand); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.EvaluateScenario(ctx, cand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitWarm32 is the same decision served by the incremental
// analyzer. Under rt-mdm the candidate's set size differs from the
// committed size, so fixpoint warm starts are refused (the prefetch
// segment budget is n-dependent; see docs/ANALYSIS.md §9) and the win
// is term caching: segmentation and term derivation per task. See
// docs/PERFORMANCE.md §2b for recorded numbers.
func BenchmarkAdmitWarm32(b *testing.B) {
	committed := admitCommitted(32)
	inc := warmedAnalyzer(b, committed)
	cand := admitCandidate(committed)
	ctx := context.Background()
	// First evaluation builds terms at the candidate's set size; the
	// steady state must serve every task from the cache.
	if _, _, err := inc.Evaluate(ctx, cand); err != nil {
		b.Fatal(err)
	}
	if _, st, err := inc.Evaluate(ctx, cand); err != nil {
		b.Fatal(err)
	} else if st.TasksReused != len(committed)+1 {
		b.Fatalf("term cache did not engage: %+v", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inc.Evaluate(ctx, cand); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAdmitWarmAllocBudget pins the steady-state allocation count of a
// warm admission evaluation so term caching cannot silently regress back
// to per-request task building. Budget has ~40% slack over the measured
// steady state (≈412 allocs/op: per-evaluation clones, priority sort,
// fixpoint bookkeeping). The cold path runs ≈1.7k allocs/op at ≈1.7× the
// wall time, spent on segmentation and analysis terms; models come from
// the shared models.Reference instances, so no weights are generated.
func TestAdmitWarmAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is wall-time sensitive; skipped in -short")
	}
	committed := admitCommitted(32)
	inc := warmedAnalyzer(t, committed)
	cand := admitCandidate(committed)
	ctx := context.Background()
	// Warm the term cache at the candidate's set size before measuring.
	if _, _, err := inc.Evaluate(ctx, cand); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := inc.Evaluate(ctx, cand); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 600
	if allocs > budget {
		t.Fatalf("warm admit steady state: %.0f allocs/op, budget %d", allocs, budget)
	}
}

// layerSet is the fixed 4-task set of the layer budgets and benchmarks
// below: a seeded draw on the default platform, instantiated for rt-mdm.
func layerSet(tb testing.TB) (workload.SetSpec, *task.Set) {
	tb.Helper()
	sp, err := workload.Generate(workload.Params{Seed: 3, N: 4, Util: 0.5, Platform: cost.STM32H743})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sp.Instantiate(cost.STM32H743, core.RTMDM())
	if err != nil {
		tb.Fatal(err)
	}
	return sp, s
}

// TestPipelineNsWithAllocs pins the pipeline recurrence the analyses run
// in every fixpoint base (and BreakdownFactor's bisection runs per step)
// at zero allocations: its completion state is a depth-sized ring on the
// stack, not two per-segment arrays.
func TestPipelineNsWithAllocs(t *testing.T) {
	m, err := models.Reference("mobilenetv1-0.25")
	if err != nil {
		t.Fatal(err)
	}
	plat := cost.STM32H743
	pl, err := segment.BuildLimits(m, plat, segment.Limits{Bytes: plat.WeightBufBytes / 8, ComputeNs: 500_000}, segment.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 2, 4} {
		allocs := testing.AllocsPerRun(100, func() {
			pl.PipelineNsWith(depth, 1_000, 2_500, 10, 9, 10, 9)
		})
		if allocs != 0 {
			t.Fatalf("PipelineNsWith depth %d over %d segments: %.0f allocs/op, budget 0", depth, pl.NumSegments(), allocs)
		}
	}
}

// TestInstantiateWarmAllocBudget pins a warm SetSpec.Instantiate (every
// plan a cache hit): the platform key is computed once per set and plan
// lookups build no strings. Budget ~20% over the measured steady state
// (12 allocs/op: the tasks, their names, the set and the platform key;
// 131 when every lookup formatted the platform with fmt).
func TestInstantiateWarmAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is wall-time sensitive; skipped in -short")
	}
	sp, _ := layerSet(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sp.Instantiate(cost.STM32H743, core.RTMDM()); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 14
	if allocs > budget {
		t.Fatalf("warm Instantiate of %d tasks: %.0f allocs/op, budget %d", len(sp.Tasks), allocs, budget)
	}
}

// TestRTMDMRTAAllocBudget pins one cold RT-MDM response-time analysis of
// the fixed 4-task set, run through the test analysis.ForPolicy resolves
// core.RTMDM() to: terms share one segC backing array and the pipeline
// recurrence allocates nothing. Budget ~20% over the measured
// steady state (10 allocs/op; 50 with per-task segC slices, a reflective
// sort swapper and per-call pipeline arrays).
func TestRTMDMRTAAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is wall-time sensitive; skipped in -short")
	}
	_, s := layerSet(t)
	test, err := analysis.ForPolicy(core.RTMDM())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		test(s, cost.STM32H743)
	})
	const budget = 12
	if allocs > budget {
		t.Fatalf("RT-MDM RTA on %d tasks: %.0f allocs/op, budget %d", len(s.Tasks), allocs, budget)
	}
}

// BenchmarkInstantiateWarm is the segmentation-and-cost layer on the
// sweep path: one warm SetSpec.Instantiate of the fixed 4-task spec, every
// plan served by the plan cache.
func BenchmarkInstantiateWarm(b *testing.B) {
	sp, _ := layerSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Instantiate(cost.STM32H743, core.RTMDM()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBreakdownFactor is the analysis-terms layer: a full breakdown
// bisection of the fixed 4-task set under the RT-MDM analysis, which
// rebuilds terms and pipeline demands at every step.
func BenchmarkBreakdownFactor(b *testing.B) {
	_, s := layerSet(b)
	test, err := analysis.ForPolicy(core.RTMDM())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.BreakdownFactor(s, cost.STM32H743, test, 0.01)
	}
}
