package dse

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
	"rtmdm/internal/workload"
)

func testSpec(t *testing.T, n int, util float64) workload.SetSpec {
	t.Helper()
	sp, err := workload.Generate(workload.Params{
		Seed: 42, N: n, Util: util, Platform: cost.STM32H743,
	})
	if err != nil {
		t.Fatalf("workload generation: %v", err)
	}
	return sp
}

func smallKnobs() Knobs {
	return Knobs{
		StagingBytes:  []int64{128 << 10, 192 << 10},
		Depths:        []int{2},
		GranularityNs: []int64{500_000, 1_000_000},
		ChunkBytes:    []int64{0},
	}
}

func TestDefaultKnobsValidate(t *testing.T) {
	for _, p := range cost.Platforms() {
		k := DefaultKnobs(p)
		if err := k.validate(p); err != nil {
			t.Errorf("%s: default knobs invalid: %v", p.Name, err)
		}
	}
}

func TestKnobsValidationRejectsBadAxes(t *testing.T) {
	plat := cost.STM32H743
	cases := []Knobs{
		{},
		{StagingBytes: []int64{0}, Depths: []int{2}, GranularityNs: []int64{1}, ChunkBytes: []int64{0}},
		{StagingBytes: []int64{plat.SRAMBytes}, Depths: []int{2}, GranularityNs: []int64{1}, ChunkBytes: []int64{0}},
		{StagingBytes: []int64{1024}, Depths: []int{1}, GranularityNs: []int64{1}, ChunkBytes: []int64{0}},
		{StagingBytes: []int64{1024}, Depths: []int{2}, GranularityNs: []int64{0}, ChunkBytes: []int64{0}},
		{StagingBytes: []int64{1024}, Depths: []int{2}, GranularityNs: []int64{1}, ChunkBytes: []int64{-1}},
	}
	for i, k := range cases {
		if err := k.validate(plat); err == nil {
			t.Errorf("case %d: invalid knobs accepted", i)
		}
	}
}

func TestExploreEnumeratesFullGridDeterministically(t *testing.T) {
	sp := testSpec(t, 2, 0.3)
	k := smallKnobs()
	r1, err := Explore(sp, cost.STM32H743, k)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 1 * 2 * 1; len(r1.Points) != want {
		t.Fatalf("grid size %d, want %d", len(r1.Points), want)
	}
	// Axis order: staging major, then depth, granularity, chunk.
	if r1.Points[0].StagingBytes != 128<<10 || r1.Points[2].StagingBytes != 192<<10 {
		t.Fatalf("grid not in axis order: %+v", r1.Points)
	}
	if r1.Points[0].GranularityNs != 500_000 || r1.Points[1].GranularityNs != 1_000_000 {
		t.Fatalf("granularity axis out of order: %+v", r1.Points[:2])
	}
	r2, err := Explore(sp, cost.STM32H743, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("exploration is not deterministic")
	}
}

func TestExploreSchedulablePointsAreConsistent(t *testing.T) {
	sp := testSpec(t, 3, 0.4)
	r, err := Explore(sp, cost.STM32H743, DefaultKnobs(cost.STM32H743))
	if err != nil {
		t.Fatal(err)
	}
	if r.Schedulable() == 0 {
		t.Fatal("no schedulable point at U=0.4 on the reference platform")
	}
	for _, p := range r.Points {
		if p.Schedulable && !p.Feasible {
			t.Fatalf("schedulable but infeasible point: %+v", p)
		}
		if !p.Feasible && p.Reason == "" {
			t.Fatalf("infeasible point without reason: %+v", p)
		}
		if p.Schedulable {
			// Schedulable at nominal rates ⇒ breakdown factor ≥ ~1
			// (up to the binary search tolerance).
			if p.Alpha < 0.97 {
				t.Fatalf("schedulable point with alpha %.3f: %+v", p.Alpha, p)
			}
			if p.SlackNs < 0 {
				t.Fatalf("schedulable point with negative slack: %+v", p)
			}
		} else if p.Alpha != 0 {
			t.Fatalf("unschedulable point with alpha %.3f: %+v", p.Alpha, p)
		}
	}
}

func TestFrontierIsParetoOptimalAndCovering(t *testing.T) {
	sp := testSpec(t, 3, 0.4)
	r, err := Explore(sp, cost.STM32H743, DefaultKnobs(cost.STM32H743))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Frontier) == 0 {
		t.Fatal("empty frontier with schedulable points present")
	}
	for i, f := range r.Frontier {
		for _, q := range r.Points {
			if f.dominatedBy(q) {
				t.Fatalf("frontier point %+v dominated by %+v", f, q)
			}
		}
		if i > 0 {
			prev := r.Frontier[i-1]
			if f.StagingBytes <= prev.StagingBytes || f.Alpha <= prev.Alpha {
				t.Fatalf("frontier not strictly improving: %+v then %+v", prev, f)
			}
		}
	}
	// Coverage: every schedulable point is matched or beaten by a frontier
	// point that costs no more.
	for _, p := range r.Points {
		if !p.Schedulable {
			continue
		}
		covered := false
		for _, f := range r.Frontier {
			if f.StagingBytes <= p.StagingBytes && f.Alpha >= p.Alpha {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("schedulable point not covered by frontier: %+v", p)
		}
	}
}

func TestRecommendPicksCheapestMeetingTarget(t *testing.T) {
	r := &Result{Frontier: []Point{
		{StagingBytes: 64 << 10, Alpha: 1.05, Schedulable: true},
		{StagingBytes: 128 << 10, Alpha: 1.20, Schedulable: true},
		{StagingBytes: 256 << 10, Alpha: 1.40, Schedulable: true},
	}}
	if p, ok := r.Recommend(1.0); !ok || p.StagingBytes != 64<<10 {
		t.Fatalf("want cheapest point, got %+v ok=%v", p, ok)
	}
	if p, ok := r.Recommend(1.15); !ok || p.StagingBytes != 128<<10 {
		t.Fatalf("want first point meeting 1.15, got %+v ok=%v", p, ok)
	}
	// Unreachable target: fall back to the highest-margin point.
	if p, ok := r.Recommend(9.9); !ok || p.StagingBytes != 256<<10 {
		t.Fatalf("want max-margin fallback, got %+v ok=%v", p, ok)
	}
	empty := &Result{}
	if _, ok := empty.Recommend(1.0); ok {
		t.Fatal("recommendation from empty frontier")
	}
}

func TestExploreReportsInfeasibleReasons(t *testing.T) {
	sp := testSpec(t, 3, 0.4)
	k := Knobs{
		// Nearly the whole SRAM: activation provisioning must starve.
		StagingBytes:  []int64{cost.STM32H743.SRAMBytes - 1024},
		Depths:        []int{2},
		GranularityNs: []int64{1_000_000},
		ChunkBytes:    []int64{0},
	}
	r, err := Explore(sp, cost.STM32H743, k)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Points[0]
	if p.Feasible || p.Schedulable {
		t.Fatalf("activation-starved staging accepted: %+v", p)
	}
	if p.Reason == "" {
		t.Fatal("no failure reason recorded")
	}
	if len(r.Frontier) != 0 {
		t.Fatalf("frontier from infeasible grid: %+v", r.Frontier)
	}
}

// TestExplorePanicRecovery injects an evaluator that panics on one grid
// point of a pathological knob grid: Explore must still complete, the
// poisoned point must come back infeasible with the panic recorded as its
// Reason, and every sibling point must evaluate normally.
func TestExplorePanicRecovery(t *testing.T) {
	sp := testSpec(t, 2, 0.3)
	orig := evalPoint
	defer func() { evalPoint = orig }()
	evalPoint = func(spec workload.SetSpec, plat cost.Platform, pt Point) Point {
		if pt.StagingBytes == 192<<10 && pt.GranularityNs == 500_000 {
			panic("pathological grid point")
		}
		return orig(spec, plat, pt)
	}
	r, err := Explore(sp, cost.STM32H743, smallKnobs())
	if err != nil {
		t.Fatalf("explore died on a panicking point: %v", err)
	}
	if want := 2 * 1 * 2 * 1; len(r.Points) != want {
		t.Fatalf("grid size %d, want %d", len(r.Points), want)
	}
	poisoned := 0
	for _, p := range r.Points {
		if p.StagingBytes == 192<<10 && p.GranularityNs == 500_000 {
			poisoned++
			if p.Feasible || p.Schedulable || p.Alpha != 0 {
				t.Fatalf("panicked point not marked infeasible: %+v", p)
			}
			if p.Reason != "panic: pathological grid point" {
				t.Fatalf("panic not recorded as reason: %q", p.Reason)
			}
			continue
		}
		if !p.Feasible && p.Reason == "" {
			t.Fatalf("sibling point lost its evaluation: %+v", p)
		}
	}
	if poisoned != 1 {
		t.Fatalf("poisoned points %d, want 1", poisoned)
	}
	// The frontier must be built from the surviving points only.
	for _, f := range r.Frontier {
		if f.Reason != "" {
			t.Fatalf("panicked point on the frontier: %+v", f)
		}
	}
}

func TestExploreRejectsEmptySpec(t *testing.T) {
	if _, err := Explore(workload.SetSpec{}, cost.STM32H743, smallKnobs()); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// TestPropertyFrontierInvariants drives the frontier extraction with
// random point clouds: the result must be an antichain under domination,
// sorted strictly on both axes, and must cover every schedulable point.
func TestPropertyFrontierInvariants(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vs []reflect.Value, rng *rand.Rand) {
			n := rng.Intn(40)
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Point{
					StagingBytes: int64(1+rng.Intn(8)) << 14,
					Alpha:        1 + rng.Float64(),
					Schedulable:  rng.Intn(3) > 0,
				}
				if !pts[i].Schedulable {
					pts[i].Alpha = 0
				}
			}
			vs[0] = reflect.ValueOf(pts)
		},
	}
	prop := func(pts []Point) bool {
		front := frontier(pts)
		for i, f := range front {
			if !f.Schedulable {
				return false
			}
			if i > 0 && (f.StagingBytes <= front[i-1].StagingBytes || f.Alpha <= front[i-1].Alpha) {
				return false
			}
			for _, q := range pts {
				if f.dominatedBy(q) {
					return false
				}
			}
		}
		for _, p := range pts {
			if !p.Schedulable {
				continue
			}
			covered := false
			for _, f := range front {
				if f.StagingBytes <= p.StagingBytes && f.Alpha >= p.Alpha {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPointPolicyRoundTrip(t *testing.T) {
	p := Point{Depth: 3, GranularityNs: 750_000, ChunkBytes: 4096}
	pol := p.Policy()
	if pol.Depth != 3 || pol.MaxSegNs != 750_000 || pol.ChunkBytes != 4096 {
		t.Fatalf("policy %+v does not reflect point %+v", pol, p)
	}
	if err := pol.Validate(); err != nil {
		t.Fatalf("reconstructed policy invalid: %v", err)
	}
}

func TestTunedPointsJoinTheGrid(t *testing.T) {
	sp := testSpec(t, 3, 0.4)
	k := smallKnobs()
	k.TunePerTaskDepth = true
	r, err := Explore(sp, cost.STM32H743, k)
	if err != nil {
		t.Fatal(err)
	}
	// 2 staging × (1 depth × 2 δ × 1 chunk uniform + 2 δ × 1 chunk tuned).
	if want := 2 * (2 + 2); len(r.Points) != want {
		t.Fatalf("grid size %d, want %d", len(r.Points), want)
	}
	tuned := 0
	for _, p := range r.Points {
		if p.TaskDepths == nil {
			continue
		}
		tuned++
		if !p.Schedulable {
			continue
		}
		if len(p.TaskDepths) != 3 {
			t.Fatalf("tuned point with %d windows for 3 tasks: %+v", len(p.TaskDepths), p)
		}
		maxD := 0
		for _, d := range p.TaskDepths {
			if d < 1 || d > 4 {
				t.Fatalf("window %d outside {1..4}: %+v", d, p)
			}
			if d > maxD {
				maxD = d
			}
		}
		if p.Depth != maxD {
			t.Fatalf("Depth %d != deepest window %d", p.Depth, maxD)
		}
		pol := p.Policy()
		if err := pol.Validate(); err != nil {
			t.Fatalf("tuned policy invalid: %v", err)
		}
		if pol.TaskDepth == nil {
			t.Fatal("tuned point reconstructs a uniform policy")
		}
		if p.Alpha < 0.97 {
			t.Fatalf("schedulable tuned point with alpha %.3f", p.Alpha)
		}
	}
	if tuned != 4 {
		t.Fatalf("tuned points %d, want 4", tuned)
	}
	// A tuned point must never be beaten by the uniform point of the same
	// staging/δ/chunk cell on slack: its lattice contains every uniform
	// depth of that cell that provisions.
	for _, p := range r.Points {
		if p.TaskDepths == nil || !p.Schedulable {
			continue
		}
		for _, q := range r.Points {
			if q.TaskDepths != nil || !q.Schedulable {
				continue
			}
			if q.StagingBytes == p.StagingBytes && q.GranularityNs == p.GranularityNs &&
				q.ChunkBytes == p.ChunkBytes && q.SlackNs > p.SlackNs {
				t.Fatalf("uniform point out-slacks tuned sibling: %+v vs %+v", q, p)
			}
		}
	}
}

// caseStudy is the three-DNN case study: keyword spotting every 50 ms,
// person detection every 150 ms, anomaly detection every 100 ms.
func caseStudy() workload.SetSpec {
	return workload.SetSpec{Tasks: []workload.TaskSpec{
		{Model: "ds-cnn", Seed: 1, Period: 50 * sim.Millisecond, Deadline: 50 * sim.Millisecond},
		{Model: "mobilenetv1-0.25", Seed: 1, Period: 150 * sim.Millisecond, Deadline: 150 * sim.Millisecond},
		{Model: "autoencoder", Seed: 1, Period: 100 * sim.Millisecond, Deadline: 100 * sim.Millisecond},
	}}
}

// uniformPlan is a synthetic plan of n identical segments.
func uniformPlan(plat cost.Platform, n int, loadBytes, computeNs int64) *segment.Plan {
	pl := &segment.Plan{Platform: plat, BudgetBytes: plat.WeightBufBytes}
	for i := 0; i < n; i++ {
		pl.Segments = append(pl.Segments, segment.Segment{
			Index: i, Parts: []segment.Part{{Node: i, Num: 1, Den: 1}},
			LoadBytes: loadBytes, ComputeNs: computeNs, LoadNs: plat.Mem.TransferNs(loadBytes),
		})
	}
	return pl
}

// TestTuneWindowsPinned pins both optima of the per-task window search
// (windows, staging, slack) to values recorded before the search was
// shared between T24 and the explorer.
func TestTuneWindowsPinned(t *testing.T) {
	plat := cost.STM32H743
	instantiate := func(sp workload.SetSpec) *task.Set {
		s, err := sp.Instantiate(plat, core.RTMDM())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	gen, err := workload.Generate(workload.Params{Seed: 3, N: 4, Util: 0.6, Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	// b holds no weights: its window pins no staging, yet its inventory
	// blocks a, so only the cheapest optimum's slack tie-break keeps b at
	// depth 1.
	synth := cost.Platform{
		Name:           "synthetic",
		CPU:            cost.CPUProfile{Name: "cpu", Hz: 1_000_000_000, DefaultMACsPerCycle: 1},
		Mem:            cost.MemProfile{Name: "mem", BandwidthBps: 1_000_000_000},
		SRAMBytes:      1 << 20,
		WeightBufBytes: 1 << 19,
		Bus:            cost.NoContention(),
	}
	zeroWeight := task.NewSet(
		&task.Task{Name: "a", Plan: uniformPlan(synth, 4, 1000, 1000), Period: 20_000, Deadline: 20_000, Priority: 0},
		&task.Task{Name: "b", Plan: uniformPlan(synth, 3, 0, 2000), Period: 40_000, Deadline: 40_000, Priority: 1},
	)
	type optimum struct {
		windows map[string]int
		staging int64
		slack   sim.Duration
	}
	for _, c := range []struct {
		name               string
		set                *task.Set
		plat               cost.Platform
		cheapest, slackOpt optimum
	}{
		{"case-study", instantiate(caseStudy()), plat,
			optimum{map[string]int{"t0-ds-cnn": 1, "t1-mobilenetv1-0.25": 1, "t2-autoencoder": 1}, 53859, 35617115},
			optimum{map[string]int{"t0-ds-cnn": 2, "t1-mobilenetv1-0.25": 1, "t2-autoencoder": 1}, 56851, 36410749}},
		{"generated-4", instantiate(gen), plat,
			optimum{map[string]int{"t0-resnet8": 1, "t1-autoencoder": 1, "t2-mobilenetv1-0.25": 1, "t3-lenet5": 1}, 71805, 1546975},
			optimum{map[string]int{"t0-resnet8": 1, "t1-autoencoder": 1, "t2-mobilenetv1-0.25": 1, "t3-lenet5": 3}, 120285, 3220685}},
		{"zero-weight", zeroWeight, synth,
			optimum{map[string]int{"a": 1, "b": 1}, 1000, 10_000},
			optimum{map[string]int{"a": 2, "b": 1}, 2000, 13_000}},
	} {
		cheapest, slackOpt, ok := TuneWindows(c.set, c.plat, core.RTMDMPerTaskDepth)
		if !ok {
			t.Fatalf("%s: no accepted assignment", c.name)
		}
		for _, g := range []struct {
			label string
			got   optimum
			want  optimum
		}{
			{"cheapest", optimum{cheapest.Windows, cheapest.StagingBytes, cheapest.Slack}, c.cheapest},
			{"slack-optimal", optimum{slackOpt.Windows, slackOpt.StagingBytes, slackOpt.Slack}, c.slackOpt},
		} {
			if !reflect.DeepEqual(g.got, g.want) {
				t.Errorf("%s %s: got %+v, want %+v", c.name, g.label, g.got, g.want)
			}
		}
	}

	// The explorer's tuned point carries the slack-optimal windows of the
	// same search under its own δ and chunking.
	k := Knobs{StagingBytes: []int64{plat.WeightBufBytes}, Depths: []int{2},
		GranularityNs: []int64{1_000_000}, ChunkBytes: []int64{0}, TunePerTaskDepth: true}
	r, err := Explore(caseStudy(), plat, k)
	if err != nil {
		t.Fatal(err)
	}
	tuned := r.Points[len(r.Points)-1]
	want := map[string]int{"t0-ds-cnn": 2, "t1-mobilenetv1-0.25": 1, "t2-autoencoder": 1}
	if !reflect.DeepEqual(tuned.TaskDepths, want) || tuned.SlackNs != 36410749 {
		t.Errorf("tuned point windows %v slack %d, want %v slack 36410749", tuned.TaskDepths, tuned.SlackNs, want)
	}
}
