package exec

import (
	"context"
	"math/rand"
	"testing"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/fault"
	"rtmdm/internal/models"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
	"rtmdm/internal/trace"
)

// testPlat moves 1 byte per ns with 100 ns DMA setup and executes CPU work
// 1:1, with no bus contention — every scenario below has exact arithmetic.
func testPlat() cost.Platform {
	return cost.Platform{
		Name:           "test",
		CPU:            cost.CPUProfile{Name: "cpu", Hz: 1_000_000_000, DefaultMACsPerCycle: 1},
		Mem:            cost.MemProfile{Name: "mem", BandwidthBps: 1_000_000_000, SetupNs: 0},
		SRAMBytes:      1 << 20,
		WeightBufBytes: 1 << 19,
		Bus:            cost.NoContention(),
	}
}

type segSpec struct {
	bytes   int64
	compute int64
}

func mkPlan(p cost.Platform, specs ...segSpec) *segment.Plan {
	pl := &segment.Plan{Platform: p, BudgetBytes: 1 << 19}
	for i, s := range specs {
		pl.Segments = append(pl.Segments, segment.Segment{
			Index:     i,
			Parts:     []segment.Part{{Node: i, Num: 1, Den: 1}},
			LoadBytes: s.bytes,
			ComputeNs: s.compute,
			LoadNs:    p.Mem.TransferNs(s.bytes),
		})
	}
	return pl
}

func mkTask(p cost.Platform, name string, period, deadline, offset sim.Duration, prio int, specs ...segSpec) *task.Task {
	return &task.Task{
		Name: name, Plan: mkPlan(p, specs...),
		Period: period, Deadline: deadline, Offset: offset, Priority: prio,
	}
}

func jobDoneAt(t *testing.T, r *Result, taskName string, job int) sim.Time {
	t.Helper()
	for _, e := range r.Trace.Events {
		if e.Kind == trace.JobDone && e.Task == taskName && e.Job == job {
			return e.At
		}
	}
	t.Fatalf("no JobDone for %s#%d", taskName, job)
	return 0
}

func TestSerialSingleTaskExactTiming(t *testing.T) {
	p := testPlat()
	tk := mkTask(p, "a", sim.Second, sim.Second, 0, 0,
		segSpec{900, 1000}, segSpec{900, 1000})
	s := task.NewSet(tk)
	r, err := runRec(s, p, core.SerialSegFP(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Serial: (900+1000)+(900+1000) = 3800.
	if got := jobDoneAt(t, r, "a", 0); got != 3800 {
		t.Fatalf("serial completion at %v, want 3800", got)
	}
	if r.Metrics.PerTask["a"].MaxResponse != 3800 {
		t.Fatalf("max response %v", r.Metrics.PerTask["a"].MaxResponse)
	}
}

func TestRTMDMSingleTaskPipelinesLoads(t *testing.T) {
	p := testPlat()
	tk := mkTask(p, "a", sim.Second, sim.Second, 0, 0,
		segSpec{900, 1000}, segSpec{900, 1000})
	s := task.NewSet(tk)
	r, err := runRec(s, p, core.RTMDM(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline depth 2: load1 0-900, comp1 900-1900 ∥ load2 900-1800,
	// comp2 1900-2900.
	if got := jobDoneAt(t, r, "a", 0); got != 2900 {
		t.Fatalf("pipelined completion at %v, want 2900", got)
	}
	// Must equal the task's analytical pipelined WCET.
	if got, want := r.Metrics.PerTask["a"].MaxResponse, tk.PipelineWCET(2); got != want {
		t.Fatalf("response %v != PipelineWCET %v", got, want)
	}
}

func TestSegmentBoundaryPreemption(t *testing.T) {
	p := testPlat()
	low := mkTask(p, "low", sim.Second, sim.Second, 0, 1,
		segSpec{900, 2000}, segSpec{900, 2000})
	high := mkTask(p, "high", sim.Second, sim.Second, 1500, 0,
		segSpec{400, 1000})
	s := task.NewSet(low, high)
	r, err := runRec(s, p, core.RTMDM(), 20*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// low: load1 0-900, comp1 900-2900; prefetch load2 900-1800.
	// high released 1500: DMA free at 1800 → load 1800-2200.
	// CPU frees at 2900 (non-preemptive segment) → high comp 2900-3900.
	// low comp2 3900-5900.
	if got := jobDoneAt(t, r, "high", 0); got != 3900 {
		t.Fatalf("high done at %v, want 3900", got)
	}
	if got := jobDoneAt(t, r, "low", 0); got != 5900 {
		t.Fatalf("low done at %v, want 5900", got)
	}
	// High's blocking was bounded by one segment of low (2000 ns), far
	// below low's whole job.
	if resp := r.Metrics.PerTask["high"].MaxResponse; resp != 2400 {
		t.Fatalf("high response %v, want 2400", resp)
	}
}

func TestJobLevelNonPreemptionBlocksWholeJob(t *testing.T) {
	p := testPlat()
	low := mkTask(p, "low", sim.Second, sim.Second, 0, 1,
		segSpec{900, 2000}, segSpec{900, 2000})
	high := mkTask(p, "high", sim.Second, sim.Second, 1500, 0,
		segSpec{400, 1000})
	s := task.NewSet(low, high)
	r, err := runRec(s, p, core.SerialNPFP(), 20*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Serial NP low job: 900+2000+900+2000 = 5800 (loads serialize).
	if got := jobDoneAt(t, r, "low", 0); got != 5800 {
		t.Fatalf("low done at %v, want 5800", got)
	}
	// high waits for the whole low job: load 5800-6200, comp 6200-7200.
	if got := jobDoneAt(t, r, "high", 0); got != 7200 {
		t.Fatalf("high done at %v, want 7200", got)
	}
}

func TestEDFOrdersByAbsoluteDeadline(t *testing.T) {
	p := testPlat()
	// a has the better static priority but the later deadline.
	a := mkTask(p, "a", sim.Second, sim.Second, 0, 0, segSpec{100, 1000})
	b := mkTask(p, "b", 500*sim.Millisecond, 5*sim.Microsecond, 0, 1, segSpec{100, 1000})
	s := task.NewSet(a, b)

	r, err := runRec(s, p, core.RTMDMEDF(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if jobDoneAt(t, r, "b", 0) > jobDoneAt(t, r, "a", 0) {
		t.Fatal("EDF did not favor the earlier deadline")
	}

	r, err = runRec(s, p, core.RTMDM(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if jobDoneAt(t, r, "a", 0) > jobDoneAt(t, r, "b", 0) {
		t.Fatal("FP did not favor the higher static priority")
	}
}

func TestOverloadRecordsMisses(t *testing.T) {
	p := testPlat()
	// WCET 2000+900=2900 per job but deadline 2000.
	tk := mkTask(p, "a", 3*sim.Microsecond, 2*sim.Microsecond, 0, 0,
		segSpec{900, 2000})
	s := task.NewSet(tk)
	r, err := Run(s, p, core.SerialSegFP(), 30*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Metrics.AnyMiss() {
		t.Fatal("overloaded task missed no deadlines")
	}
	if r.Metrics.PerTask["a"].MissRatio() == 0 {
		t.Fatal("zero miss ratio under overload")
	}
}

func TestBacklogExecutesJobsInOrder(t *testing.T) {
	p := testPlat()
	// Period 2 µs, WCET ≈ 2.9 µs: a backlog builds; jobs must still
	// complete in release order (checked by invariants) and all complete
	// eventually counts stay consistent.
	tk := mkTask(p, "a", 2*sim.Microsecond, 2*sim.Microsecond, 0, 0,
		segSpec{900, 2000})
	s := task.NewSet(tk)
	r, err := runRec(s, p, core.RTMDM(), 40*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	tm := r.Metrics.PerTask["a"]
	if tm.Released < 10 {
		t.Fatalf("released %d", tm.Released)
	}
	if tm.Completed == 0 {
		t.Fatal("no jobs completed under backlog")
	}
	// Completions in the trace must be ordered by job index.
	last := -1
	for _, e := range r.Trace.Events {
		if e.Kind == trace.JobDone {
			if e.Job != last+1 {
				t.Fatalf("job %d done after %d", e.Job, last)
			}
			last = e.Job
		}
	}
}

func TestZeroByteSegmentsStageInstantly(t *testing.T) {
	p := testPlat()
	tk := mkTask(p, "a", sim.Second, sim.Second, 0, 0,
		segSpec{0, 500}, segSpec{900, 1000}, segSpec{0, 250})
	s := task.NewSet(tk)
	r, err := runRec(s, p, core.RTMDM(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// seg0 stages free at t0, computes 0-500; seg1 load 0-900 (parallel),
	// comp 900-1900; seg2 free, comp 1900-2150.
	if got := jobDoneAt(t, r, "a", 0); got != 2150 {
		t.Fatalf("done at %v, want 2150", got)
	}
}

func TestSRAMStarvationDegradesGracefully(t *testing.T) {
	p := testPlat()
	p.WeightBufBytes = 500 // smaller than the 900-byte segment
	tk := mkTask(p, "a", 10*sim.Microsecond, 10*sim.Microsecond, 0, 0,
		segSpec{900, 1000})
	s := task.NewSet(tk)
	r, err := Run(s, p, core.RTMDM(), 50*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	tm := r.Metrics.PerTask["a"]
	if tm.Completed != 0 {
		t.Fatal("job completed despite unfittable segment")
	}
	if tm.Misses == 0 {
		t.Fatal("starved task recorded no misses")
	}
}

func TestDMAPriorityVsFIFOArbitration(t *testing.T) {
	p := testPlat()
	// Three tasks race for the DMA at t=0. Under priority arbitration the
	// highest-priority job loads first; under FIFO the earliest release
	// (tie → name) wins. All release at 0, so FIFO tie-break is by name:
	// "a" first even though it has the lowest priority.
	a := mkTask(p, "a", sim.Second, sim.Second, 0, 2, segSpec{1000, 100})
	b := mkTask(p, "b", sim.Second, sim.Second, 0, 1, segSpec{1000, 100})
	c := mkTask(p, "c", sim.Second, sim.Second, 0, 0, segSpec{1000, 100})
	s := task.NewSet(a, b, c)

	firstLoad := func(pol core.Policy) string {
		r, err := runRec(s, p, pol, 10*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range r.Trace.Events {
			if e.Kind == trace.LoadStart && e.Bytes > 0 {
				return e.Task
			}
		}
		return ""
	}
	if got := firstLoad(core.RTMDM()); got != "c" {
		t.Fatalf("priority arbitration loaded %q first, want c", got)
	}
	if got := firstLoad(core.RTMDMFIFODMA()); got != "a" {
		t.Fatalf("FIFO arbitration loaded %q first, want a", got)
	}
}

func TestDepthLimitsPrefetchDistance(t *testing.T) {
	p := testPlat()
	// Loads are instant relative to computes; with depth 4 the DMA may
	// run up to 4 segments ahead, with depth 2 only 2.
	specs := []segSpec{{100, 10000}, {100, 10000}, {100, 10000}, {100, 10000}, {100, 10000}}
	tk := mkTask(p, "a", sim.Second, sim.Second, 0, 0, specs...)
	s := task.NewSet(tk)

	maxAhead := func(pol core.Policy) int {
		r, err := runRec(s, p, pol, 10*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		loads, comps := 0, 0
		ahead := 0
		for _, e := range r.Trace.Events {
			switch e.Kind {
			case trace.LoadEnd:
				loads++
			case trace.ComputeEnd:
				comps++
			}
			if d := loads - comps; d > ahead {
				ahead = d
			}
		}
		return ahead
	}
	if got := maxAhead(core.RTMDM()); got != 2 {
		t.Fatalf("depth-2 max prefetch distance = %d", got)
	}
	if got := maxAhead(core.RTMDMDepth(4)); got != 4 {
		t.Fatalf("depth-4 max prefetch distance = %d", got)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	p := testPlat()
	tk := mkTask(p, "a", 10*sim.Microsecond, 10*sim.Microsecond, 0, 0,
		segSpec{900, 1000})
	s := task.NewSet(tk)
	r, err := Run(s, p, core.RTMDM(), 100*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// 10 jobs × 1000 ns compute = 10000 ns over 100000 ns = 0.1.
	if got := r.CPUUtilization(); got < 0.09 || got > 0.11 {
		t.Fatalf("CPU utilization %v, want ≈ 0.1", got)
	}
	if got := r.DMAUtilization(); got < 0.08 || got > 0.10 {
		t.Fatalf("DMA utilization %v, want ≈ 0.09", got)
	}
	if r.SRAMPeak != 900 {
		t.Fatalf("SRAM peak %d, want 900", r.SRAMPeak)
	}
}

func TestBusContentionStretchesExecution(t *testing.T) {
	p := testPlat()
	p.Bus = cost.Contention{CPUNum: 1, CPUDen: 2, DMANum: 1, DMADen: 2}
	tk := mkTask(p, "a", sim.Second, sim.Second, 0, 0,
		segSpec{1000, 1000}, segSpec{1000, 1000})
	s := task.NewSet(tk)
	r, err := runRec(s, p, core.RTMDM(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	noC, err := runRec(s, testPlat(), core.RTMDM(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if jobDoneAt(t, r, "a", 0) <= jobDoneAt(t, noC, "a", 0) {
		t.Fatal("bus contention did not stretch the pipelined job")
	}
}

func TestRunInputValidation(t *testing.T) {
	p := testPlat()
	tk := mkTask(p, "a", sim.Second, sim.Second, 0, 0, segSpec{100, 100})
	s := task.NewSet(tk)
	if _, err := Run(s, p, core.RTMDM(), 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := Run(task.NewSet(), p, core.RTMDM(), sim.Second); err == nil {
		t.Fatal("empty set accepted")
	}
	bad := core.RTMDM()
	bad.Depth = 0
	if _, err := Run(s, p, bad, sim.Second); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestSwitchCostChargedOnJobChange(t *testing.T) {
	p := testPlat()
	p.CPU.SwitchNs = 100
	// Two single-segment tasks released together; the second compute pays
	// a switch, and so does the first (cold start).
	a := mkTask(p, "a", sim.Second, sim.Second, 0, 0, segSpec{100, 1000})
	b := mkTask(p, "b", sim.Second, sim.Second, 0, 1, segSpec{100, 1000})
	s := task.NewSet(a, b)
	r, err := runRec(s, p, core.RTMDM(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// a: load 0-100, compute 100-1200 (1000 + 100 switch).
	if got := jobDoneAt(t, r, "a", 0); got != 1200 {
		t.Fatalf("a done at %v, want 1200", got)
	}
	// b: load 100-200 (prefetched), compute 1200-2300 (switch again).
	if got := jobDoneAt(t, r, "b", 0); got != 2300 {
		t.Fatalf("b done at %v, want 2300", got)
	}
}

func TestNoSwitchCostWithinOneJob(t *testing.T) {
	p := testPlat()
	p.CPU.SwitchNs = 100
	// Back-to-back segments of the same job pay the switch only once.
	a := mkTask(p, "a", sim.Second, sim.Second, 0, 0,
		segSpec{100, 1000}, segSpec{100, 1000})
	s := task.NewSet(a)
	r, err := runRec(s, p, core.RTMDM(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// load1 0-100, comp1 100-1200 (switch), comp2 1200-2200 (no switch;
	// load2 prefetched during comp1).
	if got := jobDoneAt(t, r, "a", 0); got != 2200 {
		t.Fatalf("done at %v, want 2200", got)
	}
}

// Integration: the model zoo under every policy, with invariants (checked
// inside Run) and cross-policy sanity.
func TestZooIntegrationAllPolicies(t *testing.T) {
	plat := cost.STM32H743
	mk := func(pol core.Policy) *task.Set {
		budget := core.SegmentBudget(plat, 3, pol)
		names := []string{"ds-cnn", "lenet5", "autoencoder"}
		periods := []sim.Duration{100 * sim.Millisecond, 150 * sim.Millisecond, 200 * sim.Millisecond}
		var ts []*task.Task
		for i, n := range names {
			m, err := models.Build(n, 7)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := segment.Build(m, plat, budget, segment.Greedy)
			if err != nil {
				t.Fatal(err)
			}
			ts = append(ts, &task.Task{Name: n, Plan: pl, Period: periods[i],
				Deadline: periods[i], Priority: i})
		}
		return task.NewSet(ts...)
	}

	results := map[string]*Result{}
	pols := append(core.ComparisonSet(), core.RTMDMEDF(), core.RTMDMFIFODMA())
	for _, pol := range pols {
		s := mk(pol)
		if err := core.Provision(s, plat, pol); err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		r, err := runRec(s, plat, pol, 600*sim.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		results[pol.Name] = r
		for name, tm := range r.Metrics.PerTask {
			if tm.Released == 0 {
				t.Fatalf("%s: task %s never released", pol.Name, name)
			}
		}
		if r.Metrics.AnyMiss() {
			t.Fatalf("%s: unexpected miss at low utilization", pol.Name)
		}
	}
	// Structural difference: RT-MDM overlaps loads with computes; the
	// serial baselines never start a transfer while the CPU is computing.
	overlaps := func(r *Result) bool {
		computing := false
		for _, e := range r.Trace.Events {
			switch e.Kind {
			case trace.ComputeStart:
				computing = true
			case trace.ComputeEnd:
				computing = false
			case trace.LoadStart:
				if computing && e.Bytes > 0 {
					return true
				}
			}
		}
		return false
	}
	if !overlaps(results["rt-mdm"]) {
		t.Fatal("RT-MDM never overlapped a load with a compute")
	}
	if overlaps(results["serial-npfp"]) || overlaps(results["serial-segfp"]) {
		t.Fatal("a serial baseline overlapped load with compute")
	}
	// The load-bound autoencoder completes its (synchronously-released,
	// lowest-priority) first job no later under RT-MDM than under the
	// fully serial NP baseline: overlap shortens the busy period.
	ae := "autoencoder"
	if results["rt-mdm"].Metrics.PerTask[ae].MaxResponse >
		results["serial-npfp"].Metrics.PerTask[ae].MaxResponse {
		t.Fatal("RT-MDM did not help the load-bound lowest-priority task")
	}
}

// Property: randomized synthetic task sets run clean (invariants hold, no
// internal errors) under every policy.
func TestPropertyRandomTaskSetsRunClean(t *testing.T) {
	p := testPlat()
	pols := []core.Policy{
		core.RTMDM(), core.RTMDMEDF(), core.RTMDMDepth(3),
		core.SerialNPFP(), core.SerialSegFP(), core.RTMDMFIFODMA(),
	}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(3) + 2
		var ts []*task.Task
		for i := 0; i < n; i++ {
			nseg := rng.Intn(5) + 1
			var specs []segSpec
			for k := 0; k < nseg; k++ {
				specs = append(specs, segSpec{
					bytes:   int64(rng.Intn(2000)), // may be 0
					compute: int64(rng.Intn(3000) + 100),
				})
			}
			period := sim.Duration(rng.Intn(20000) + 5000)
			ts = append(ts, mkTask(p, string(rune('a'+i)), period, period,
				sim.Duration(rng.Intn(3000)), i, specs...))
		}
		s := task.NewSet(ts...)
		for _, pol := range pols {
			if _, err := Run(s, p, pol, 200*sim.Microsecond); err != nil {
				t.Fatalf("trial %d policy %s: %v", trial, pol.Name, err)
			}
		}
	}
}

// Determinism: identical inputs produce bit-identical traces, regardless of
// Go runtime scheduling — the property that makes a GC'd language viable
// for real-time reproduction.
func TestRunIsDeterministic(t *testing.T) {
	plat := cost.STM32H743
	mk := func() *task.Set {
		m1, _ := models.Build("ds-cnn", 3)
		m2, _ := models.Build("autoencoder", 3)
		lim := core.RTMDM().Limits(plat, 2)
		p1, err := segment.BuildLimits(m1, plat, lim, segment.Greedy)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := segment.BuildLimits(m2, plat, lim, segment.Greedy)
		if err != nil {
			t.Fatal(err)
		}
		return task.NewSet(
			&task.Task{Name: "a", Plan: p1, Period: 40 * sim.Millisecond, Deadline: 40 * sim.Millisecond, Priority: 0},
			&task.Task{Name: "b", Plan: p2, Period: 70 * sim.Millisecond, Deadline: 70 * sim.Millisecond, Priority: 1},
		)
	}
	r1, err := runRec(mk(), plat, core.RTMDM(), 300*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runRec(mk(), plat, core.RTMDM(), 300*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Trace.Events) != len(r2.Trace.Events) {
		t.Fatalf("trace lengths differ: %d vs %d", len(r1.Trace.Events), len(r2.Trace.Events))
	}
	for i := range r1.Trace.Events {
		if r1.Trace.Events[i] != r2.Trace.Events[i] {
			t.Fatalf("traces diverge at event %d: %v vs %v",
				i, r1.Trace.Events[i], r2.Trace.Events[i])
		}
	}
	if r1.CPUBusyNs != r2.CPUBusyNs || r1.SRAMPeak != r2.SRAMPeak {
		t.Fatal("aggregate metrics diverge")
	}
}

func TestChunkedTransfersExactTiming(t *testing.T) {
	p := testPlat() // 1 B/ns, zero setup → chunking splits cleanly
	p.Mem.SetupNs = 50
	tk := mkTask(p, "a", sim.Second, sim.Second, 0, 0, segSpec{2500, 1000})
	s := task.NewSet(tk)
	pol := core.RTMDMChunked(1000)
	r, err := runRec(s, p, pol, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// 3 chunks: (50+1000)+(50+1000)+(50+500) = 2650, then compute 1000.
	if got := jobDoneAt(t, r, "a", 0); got != 3650 {
		t.Fatalf("chunked job done at %v, want 3650", got)
	}
	// The trace must show three load start/end pairs for segment 0.
	starts := 0
	for _, e := range r.Trace.Events {
		if e.Kind == trace.LoadStart && e.Bytes > 0 {
			starts++
		}
	}
	if starts != 3 {
		t.Fatalf("chunked loads = %d, want 3", starts)
	}
}

func TestChunkingBoundsUrgentWait(t *testing.T) {
	p := testPlat()
	// A huge lower-priority transfer is in flight when the urgent job
	// releases. Whole-segment: the urgent load waits for all 10000 ns;
	// 1000-byte chunks: it waits at most one chunk.
	low := mkTask(p, "low", sim.Second, sim.Second, 0, 1, segSpec{10000, 500})
	high := mkTask(p, "high", sim.Second, sim.Second, 500, 0, segSpec{400, 300})
	s := task.NewSet(low, high)

	whole, err := Run(s, p, core.RTMDM(), 50*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := Run(s, p, core.RTMDMChunked(1000), 50*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	w := whole.Metrics.PerTask["high"].MaxResponse
	c := chunked.Metrics.PerTask["high"].MaxResponse
	// Whole: low's transfer runs 0-10000 np; high loads 10000-10400 while
	// low's (staged) np compute takes the CPU 10000-10500; high computes
	// 10500-10800 → response 10300. Chunked: the in-flight chunk ends at
	// 1000; high loads 1000-1400 and computes immediately → 1200.
	if w != 10300 {
		t.Fatalf("whole-segment response %v, want 10300", w)
	}
	if c != 1200 {
		t.Fatalf("chunked response %v, want 1200", c)
	}
}

// PT-8: for an isolated task with no contention and no switch cost, the
// executor's first response equals the analytic pipeline makespan exactly,
// for any random segment chain and any depth.
func TestPropertyExecutorMatchesPipelineRecurrence(t *testing.T) {
	p := testPlat()
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 555))
		nseg := rng.Intn(7) + 1
		var specs []segSpec
		for k := 0; k < nseg; k++ {
			specs = append(specs, segSpec{
				bytes:   int64(rng.Intn(3000)),
				compute: int64(rng.Intn(3000) + 1),
			})
		}
		depth := rng.Intn(3) + 1
		tk := mkTask(p, "a", sim.Second, sim.Second, 0, 0, specs...)
		pol := core.RTMDMDepth(depth)
		pol.MaxSegNs = 0
		r, err := Run(task.NewSet(tk), p, pol, 50*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		got := int64(r.Metrics.PerTask["a"].MaxResponse)
		want := tk.Plan.PipelineNs(depth)
		if got != want {
			t.Fatalf("trial %d depth %d: executor %d != recurrence %d (segments %v)",
				trial, depth, got, want, specs)
		}
	}
}

func TestEnergyAccounting(t *testing.T) {
	p := testPlat()
	p.Energy = cost.EnergyProfile{CPUActiveMw: 100, IdleMw: 10, DMAActiveMw: 20, FlashReadNjPerByte: 2}
	tk := mkTask(p, "a", 10*sim.Microsecond, 10*sim.Microsecond, 0, 0,
		segSpec{900, 1000})
	s := task.NewSet(tk)
	r, err := Run(s, p, core.RTMDM(), 100*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// 10 jobs × 900 B flash reads.
	if r.FlashBytes != 9000 {
		t.Fatalf("FlashBytes = %d, want 9000", r.FlashBytes)
	}
	want := p.Energy.EnergyMicroJ(int64(r.Horizon), r.CPUBusyNs, r.DMABusyNs, r.FlashBytes)
	if r.EnergyMicroJ != want {
		t.Fatalf("EnergyMicroJ = %v, want %v", r.EnergyMicroJ, want)
	}
	if r.AvgPowerMw <= 10 {
		t.Fatalf("AvgPowerMw = %v, want > idle floor", r.AvgPowerMw)
	}
	// Same workload with zero releases costs only the idle floor.
	empty := mkTask(p, "b", sim.Second, sim.Second, 90*sim.Microsecond, 0, segSpec{1, 1})
	r2, err := Run(task.NewSet(empty), p, core.RTMDM(), 50*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if r2.FlashBytes != 0 {
		t.Fatal("unreleased task read flash")
	}
}

func TestEnergyComparableAcrossPolicies(t *testing.T) {
	// Same completed work → flash bytes identical across policies; energy
	// differs only via busy-time bookkeeping (identical here) — so RT-MDM
	// pays no energy premium for its overlap.
	plat := cost.STM32H743
	mk := func(pol core.Policy) *Result {
		m, _ := models.Build("autoencoder", 3)
		pl, err := segment.BuildLimits(m, plat, pol.Limits(plat, 1), segment.Greedy)
		if err != nil {
			t.Fatal(err)
		}
		tk := &task.Task{Name: "a", Plan: pl, Period: 50 * sim.Millisecond, Deadline: 50 * sim.Millisecond}
		r, err := Run(task.NewSet(tk), plat, pol, 200*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial := mk(core.SerialNPFP())
	rtmdm := mk(core.RTMDM())
	if serial.FlashBytes != rtmdm.FlashBytes {
		t.Fatalf("flash bytes differ: %d vs %d", serial.FlashBytes, rtmdm.FlashBytes)
	}
	ratio := rtmdm.EnergyMicroJ / serial.EnergyMicroJ
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("energy ratio %v, want ≈ 1 (overlap is energy-neutral)", ratio)
	}
}

// For an isolated task, deeper prefetch buffers never slow completion.
func TestPropertySingleTaskDepthMonotone(t *testing.T) {
	p := testPlat()
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 777))
		nseg := rng.Intn(6) + 2
		var specs []segSpec
		for k := 0; k < nseg; k++ {
			specs = append(specs, segSpec{
				bytes:   int64(rng.Intn(3000) + 1),
				compute: int64(rng.Intn(3000) + 1),
			})
		}
		tk := mkTask(p, "a", sim.Second, sim.Second, 0, 0, specs...)
		prev := sim.Duration(1 << 62)
		for _, d := range []int{1, 2, 3, 4} {
			pol := core.RTMDMDepth(d)
			pol.MaxSegNs = 0
			r, err := Run(task.NewSet(tk), p, pol, 100*sim.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			resp := r.Metrics.PerTask["a"].MaxResponse
			if resp > prev {
				t.Fatalf("trial %d: depth %d slower (%v) than depth %d (%v)",
					trial, d, resp, d-1, prev)
			}
			prev = resp
		}
	}
}

func TestDeadlineMissEventsEmitted(t *testing.T) {
	p := testPlat()
	tk := mkTask(p, "a", 3*sim.Microsecond, 2*sim.Microsecond, 0, 0,
		segSpec{900, 2000})
	s := task.NewSet(tk)
	r, err := runRec(s, p, core.SerialSegFP(), 30*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for _, e := range r.Trace.Events {
		if e.Kind == trace.DeadlineMiss {
			misses++
			// The miss instant is exactly the job's absolute deadline.
			want := sim.Time(e.Job)*3000 + 2000
			if e.At != want {
				t.Fatalf("miss for job %d at %v, want %v", e.Job, e.At, want)
			}
		}
	}
	if misses == 0 {
		t.Fatal("overload produced no explicit miss events")
	}
	if misses != r.Metrics.PerTask["a"].Misses {
		t.Fatalf("explicit events %d != metric misses %d", misses, r.Metrics.PerTask["a"].Misses)
	}
}

func TestCompletionAtExactDeadlineIsNotAMiss(t *testing.T) {
	p := testPlat()
	// Job completes at exactly t = 1900 (900 load + 1000 compute);
	// deadline exactly 1900.
	tk := mkTask(p, "a", 10*sim.Microsecond, 1900, 0, 0, segSpec{900, 1000})
	s := task.NewSet(tk)
	r, err := runRec(s, p, core.RTMDM(), 30*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := jobDoneAt(t, r, "a", 0); got != 1900 {
		t.Fatalf("job done at %v, want exactly 1900", got)
	}
	for _, e := range r.Trace.Events {
		if e.Kind == trace.DeadlineMiss && e.Job == 0 {
			t.Fatal("completion at exactly the deadline counted as a miss")
		}
	}
	if r.Metrics.PerTask["a"].Misses != 0 {
		t.Fatal("metrics recorded a miss for an on-time job")
	}
}

func TestReleaseJitterWindowAndDeterminism(t *testing.T) {
	p := testPlat()
	tk := mkTask(p, "a", 10*sim.Microsecond, 9*sim.Microsecond, 0, 0, segSpec{100, 100})
	tk.Jitter = 3 * sim.Microsecond
	run := func() []sim.Time {
		r, err := runRec(task.NewSet(tk), p, core.RTMDM(), 100*sim.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		var rel []sim.Time
		for _, e := range r.Trace.Events {
			if e.Kind == trace.Release {
				rel = append(rel, e.At)
			}
		}
		return rel
	}
	a := run()
	b := run()
	if len(a) < 8 {
		t.Fatalf("only %d releases", len(a))
	}
	jittered := false
	for k, at := range a {
		nominal := sim.Time(k) * 10000
		if at < nominal || at > nominal+3000 {
			t.Fatalf("release %d at %v outside [%v, %v]", k, at, nominal, nominal+3000)
		}
		if at != nominal {
			jittered = true
		}
		if b[k] != at {
			t.Fatal("jittered releases not deterministic")
		}
	}
	if !jittered {
		t.Fatal("no release was actually jittered")
	}
}

func TestResultUtilizationZeroHorizon(t *testing.T) {
	r := &Result{}
	if r.CPUUtilization() != 0 || r.DMAUtilization() != 0 {
		t.Fatal("zero-horizon utilizations not zero")
	}
}

// TestGateFreezesLowerLoadsWhileUrgentWindowFull pins the strict gate
// semantics the RTA's serial-demand argument depends on (docs/ANALYSIS.md
// §4): while a more urgent job still has DMA demand, a lower job cannot
// stage — even when the urgent job's prefetch window is full and the DMA
// idles, and even while the lower job itself computes. Granting the idle
// channel to the lower job here ("gap stealing") would let it rebuild
// staged inventory inside the urgent job's busy window and void the
// inventory-bounded CPU blocking term.
func TestGateFreezesLowerLoadsWhileUrgentWindowFull(t *testing.T) {
	p := testPlat()
	lo := mkTask(p, "lo", 50_000, 50_000, 0, 1,
		segSpec{1000, 3000}, segSpec{1000, 3000}, segSpec{1000, 3000})
	hi := mkTask(p, "hi", 50_000, 50_000, 500, 0,
		segSpec{500, 5000}, segSpec{500, 5000}, segSpec{500, 5000})
	s := task.NewSet(lo, hi)
	r, err := runRec(s, p, core.RTMDM(), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	// lo load1 0-1000, lo comp1 1000-4000. hi (released 500) takes the
	// gate at 1000: load1 1000-1500, load2 1500-2000 — window full (depth
	// 2, slots free at compute END), one load left, so the DMA must idle
	// over (2000, 9000) although lo's next segment is ready to stage. hi
	// comp1 (4000-9000) ending frees a slot: hi load3 9000-9500 exhausts
	// hi's demand, and only then may lo stage again: load2 9500-10500,
	// load3 10500-11500.
	var loLoadStarts []sim.Time
	for _, e := range r.Trace.Events {
		if e.Kind == trace.LoadStart && e.At > 2000 && e.At < 9000 {
			t.Fatalf("transfer started at %v inside the gated window (2000,9000): %v", e.At, e)
		}
		if e.Kind == trace.LoadStart && e.Task == "lo" && e.Job == 0 {
			loLoadStarts = append(loLoadStarts, e.At)
		}
	}
	want := []sim.Time{0, 9500, 10_500}
	if len(loLoadStarts) != len(want) {
		t.Fatalf("lo load starts %v, want %v", loLoadStarts, want)
	}
	for i := range want {
		if loLoadStarts[i] != want[i] {
			t.Fatalf("lo load starts %v, want %v", loLoadStarts, want)
		}
	}
	// The exposure is real: lo's own comp1 (1000-4000) hid none of its
	// remaining loads, so lo finishes at 25000 — its serial chain under
	// hi's interference — and the serial-based bound must cover it.
	if got := jobDoneAt(t, r, "lo", 0); got != 25_000 {
		t.Fatalf("lo done at %v, want 25000", got)
	}
	if got := jobDoneAt(t, r, "hi", 0); got != 19_000 {
		t.Fatalf("hi done at %v, want 19000", got)
	}
}

// TestPerTaskDepthWindows pins heterogeneous prefetch windows (extension
// T24): each task's DMA may run exactly its own depth ahead, so a
// deep-window task reaches its deeper pipelined makespan while a depth-1
// task in the same run serializes.
func TestPerTaskDepthWindows(t *testing.T) {
	p := testPlat()
	// Three equal segments: depth 1 → 5700, depth 2 → 4800, depth 3 → 4700.
	specs := []segSpec{{900, 1000}, {900, 1000}, {900, 1000}}
	mk := func(name string, prio int) *task.Task {
		return mkTask(p, name, 40_000, 40_000, 0, prio, specs...)
	}
	pol := core.RTMDMPerTaskDepth(map[string]int{"solo": 3})
	r, err := Run(task.NewSet(mk("solo", 0)), p, pol, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	want := mk("solo", 0).PipelineWCET(3)
	if got := r.Metrics.PerTask["solo"].MaxResponse; got != want {
		t.Fatalf("depth-3 override: response %v, want PipelineWCET(3) %v", got, want)
	}

	pol = core.RTMDMPerTaskDepth(map[string]int{"solo": 1})
	r, err = Run(task.NewSet(mk("solo", 0)), p, pol, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	want = mk("solo", 0).PipelineWCET(1)
	if got := r.Metrics.PerTask["solo"].MaxResponse; got != want {
		t.Fatalf("depth-1 override: response %v, want serial %v", got, want)
	}

	// Unnamed tasks fall back to the base depth 2.
	pol = core.RTMDMPerTaskDepth(map[string]int{"other": 4})
	r, err = Run(task.NewSet(mk("solo", 0)), p, pol, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	want = mk("solo", 0).PipelineWCET(2)
	if got := r.Metrics.PerTask["solo"].MaxResponse; got != want {
		t.Fatalf("fallback depth: response %v, want PipelineWCET(2) %v", got, want)
	}
}

// runRec is Run with the events recorded, for tests that inspect them.
func runRec(set *task.Set, plat cost.Platform, pol core.Policy, horizon sim.Duration) (*Result, error) {
	return runFaultsRec(set, plat, pol, horizon, nil)
}

// runFaultsRec is RunWithFaults with the events recorded.
func runFaultsRec(set *task.Set, plat cost.Platform, pol core.Policy, horizon sim.Duration, plan *fault.Plan) (*Result, error) {
	return RunWithFaultsContext(context.Background(), set, plat, pol, horizon, plan, &trace.Trace{})
}

// runCtxRec is RunContext with the events recorded.
func runCtxRec(ctx context.Context, set *task.Set, plat cost.Platform, pol core.Policy, horizon sim.Duration) (*Result, error) {
	return RunWithFaultsContext(ctx, set, plat, pol, horizon, nil, &trace.Trace{})
}
