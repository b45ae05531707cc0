package trace

import (
	"strings"
	"testing"

	"rtmdm/internal/sim"
)

func ti(name string, period, deadline sim.Duration, segs int) TaskInfo {
	return TaskInfo{Name: name, Period: period, Deadline: deadline, Segments: segs}
}

// goodTrace builds a minimal consistent trace: task a, 2 jobs, 2 segments,
// period 100, deadline 100.
func goodTrace() *Trace {
	tr := &Trace{}
	add := func(at sim.Time, k Kind, job, seg int) {
		var bytes int64
		if k == LoadStart || k == LoadEnd {
			bytes = 100
		}
		tr.Add(Event{At: at, Kind: k, Task: "a", Job: job, Segment: seg, Bytes: bytes})
	}
	// Job 0.
	add(0, Release, 0, -1)
	add(0, LoadStart, 0, 0)
	add(10, LoadEnd, 0, 0)
	add(10, ComputeStart, 0, 0)
	add(10, LoadStart, 0, 1) // prefetch next segment during compute
	add(20, LoadEnd, 0, 1)
	add(30, ComputeEnd, 0, 0)
	add(30, ComputeStart, 0, 1)
	add(50, ComputeEnd, 0, 1)
	add(50, JobDone, 0, -1)
	// Job 1.
	add(100, Release, 1, -1)
	add(100, LoadStart, 1, 0)
	add(110, LoadEnd, 1, 0)
	add(110, ComputeStart, 1, 0)
	add(130, ComputeEnd, 1, 0)
	add(130, LoadStart, 1, 1)
	add(140, LoadEnd, 1, 1)
	add(140, ComputeStart, 1, 1)
	add(160, ComputeEnd, 1, 1)
	add(160, JobDone, 1, -1)
	return tr
}

func TestInvariantsPassOnGoodTrace(t *testing.T) {
	tr := goodTrace()
	if err := tr.CheckInvariants([]TaskInfo{ti("a", 100, 100, 2)}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsOnGoodTrace(t *testing.T) {
	tr := goodTrace()
	m := tr.Analyze([]TaskInfo{ti("a", 100, 100, 2)}, 200)
	tm := m.PerTask["a"]
	if tm.Released != 2 || tm.Completed != 2 || tm.Misses != 0 {
		t.Fatalf("metrics: %+v", *tm)
	}
	if tm.MaxResponse != 60 {
		t.Fatalf("max response = %v, want 60", tm.MaxResponse)
	}
	if tm.AvgResponse() != 55 {
		t.Fatalf("avg response = %v, want 55", tm.AvgResponse())
	}
	if tm.MaxLateness != -40 {
		t.Fatalf("max lateness = %v, want -40", tm.MaxLateness)
	}
	if m.AnyMiss() {
		t.Fatal("AnyMiss on clean trace")
	}
	if m.TotalMissRatio() != 0 {
		t.Fatal("nonzero miss ratio on clean trace")
	}
}

func TestExplicitDeadlineMissCounted(t *testing.T) {
	tr := &Trace{}
	tr.Add(Event{At: 0, Kind: Release, Task: "a", Job: 0, Segment: -1})
	tr.Add(Event{At: 100, Kind: DeadlineMiss, Task: "a", Job: 0, Segment: -1})
	m := tr.Analyze([]TaskInfo{ti("a", 100, 100, 1)}, 200)
	if m.PerTask["a"].Misses != 1 {
		t.Fatal("explicit miss not counted")
	}
	if !m.AnyMiss() {
		t.Fatal("AnyMiss false")
	}
	if got := m.PerTask["a"].MissRatio(); got != 1.0 {
		t.Fatalf("miss ratio = %v", got)
	}
}

func TestUnfinishedJobPastDeadlineCountsAsMiss(t *testing.T) {
	tr := &Trace{}
	tr.Add(Event{At: 0, Kind: Release, Task: "a", Job: 0, Segment: -1})
	m := tr.Analyze([]TaskInfo{ti("a", 100, 50, 1)}, 200)
	tm := m.PerTask["a"]
	if tm.Unfinished != 1 || tm.Misses != 1 {
		t.Fatalf("unfinished-past-deadline: %+v", *tm)
	}
}

func TestUnfinishedJobBeforeDeadlineIsNotAMiss(t *testing.T) {
	tr := &Trace{}
	tr.Add(Event{At: 150, Kind: Release, Task: "a", Job: 0, Segment: -1})
	// Deadline at 150+100=250 > horizon 200: job still pending, no miss.
	// (Release offset must match: use Offset=150.)
	infos := []TaskInfo{{Name: "a", Period: 100, Deadline: 100, Offset: 150, Segments: 1}}
	m := tr.Analyze(infos, 200)
	tm := m.PerTask["a"]
	if tm.Misses != 0 || tm.Unfinished != 1 {
		t.Fatalf("pending job wrongly counted: %+v", *tm)
	}
}

func TestInvariantCPUOverlapDetected(t *testing.T) {
	tr := &Trace{}
	infos := []TaskInfo{ti("a", 100, 100, 1), ti("b", 100, 100, 1)}
	tr.Add(Event{At: 0, Kind: Release, Task: "a", Job: 0, Segment: -1})
	tr.Add(Event{At: 0, Kind: Release, Task: "b", Job: 0, Segment: -1})
	for _, tk := range []string{"a", "b"} {
		tr.Add(Event{At: 0, Kind: LoadStart, Task: tk, Job: 0, Segment: 0})
		tr.Add(Event{At: 0, Kind: LoadEnd, Task: tk, Job: 0, Segment: 0})
	}
	// Zero-byte loads are instantaneous: both may "overlap" legally.
	tr.Add(Event{At: 0, Kind: ComputeStart, Task: "a", Job: 0, Segment: 0})
	tr.Add(Event{At: 1, Kind: ComputeStart, Task: "b", Job: 0, Segment: 0})
	err := checkBoth(t, tr, infos)
	if err == nil || !strings.Contains(err.Error(), "CPU overlap") {
		t.Fatalf("want CPU overlap error, got %v", err)
	}
}

func TestInvariantDMAOverlapDetected(t *testing.T) {
	tr := &Trace{}
	infos := []TaskInfo{ti("a", 100, 100, 2)}
	tr.Add(Event{At: 0, Kind: Release, Task: "a", Job: 0, Segment: -1})
	tr.Add(Event{At: 0, Kind: LoadStart, Task: "a", Job: 0, Segment: 0, Bytes: 10})
	tr.Add(Event{At: 1, Kind: LoadStart, Task: "a", Job: 0, Segment: 1, Bytes: 10})
	err := checkBoth(t, tr, infos)
	if err == nil || !strings.Contains(err.Error(), "DMA overlap") {
		t.Fatalf("want DMA overlap error, got %v", err)
	}
}

func TestInvariantComputeBeforeLoadDetected(t *testing.T) {
	tr := &Trace{}
	infos := []TaskInfo{ti("a", 100, 100, 1)}
	tr.Add(Event{At: 0, Kind: Release, Task: "a", Job: 0, Segment: -1})
	tr.Add(Event{At: 0, Kind: ComputeStart, Task: "a", Job: 0, Segment: 0})
	err := checkBoth(t, tr, infos)
	if err == nil || !strings.Contains(err.Error(), "before its load") {
		t.Fatalf("want load-before-compute error, got %v", err)
	}
}

func TestInvariantSegmentOrderDetected(t *testing.T) {
	tr := &Trace{}
	infos := []TaskInfo{ti("a", 100, 100, 2)}
	tr.Add(Event{At: 0, Kind: Release, Task: "a", Job: 0, Segment: -1})
	tr.Add(Event{At: 0, Kind: LoadStart, Task: "a", Job: 0, Segment: 1})
	tr.Add(Event{At: 1, Kind: LoadEnd, Task: "a", Job: 0, Segment: 1})
	tr.Add(Event{At: 1, Kind: ComputeStart, Task: "a", Job: 0, Segment: 1})
	err := checkBoth(t, tr, infos)
	if err == nil || !strings.Contains(err.Error(), "first computed segment") {
		t.Fatalf("want segment order error, got %v", err)
	}
}

func TestInvariantNonPeriodicReleaseDetected(t *testing.T) {
	tr := &Trace{}
	infos := []TaskInfo{ti("a", 100, 100, 1)}
	tr.Add(Event{At: 3, Kind: Release, Task: "a", Job: 0, Segment: -1})
	err := checkBoth(t, tr, infos)
	if err == nil || !strings.Contains(err.Error(), "released at") {
		t.Fatalf("want periodic release error, got %v", err)
	}
}

func TestInvariantJobDoneMustMatchLastSegment(t *testing.T) {
	tr := &Trace{}
	infos := []TaskInfo{ti("a", 100, 100, 2)}
	tr.Add(Event{At: 0, Kind: Release, Task: "a", Job: 0, Segment: -1})
	tr.Add(Event{At: 0, Kind: LoadStart, Task: "a", Job: 0, Segment: 0})
	tr.Add(Event{At: 1, Kind: LoadEnd, Task: "a", Job: 0, Segment: 0})
	tr.Add(Event{At: 1, Kind: ComputeStart, Task: "a", Job: 0, Segment: 0})
	tr.Add(Event{At: 2, Kind: ComputeEnd, Task: "a", Job: 0, Segment: 0})
	tr.Add(Event{At: 2, Kind: JobDone, Task: "a", Job: 0, Segment: -1})
	err := checkVerdict(t, tr, infos)
	if err == nil || !strings.Contains(err.Error(), "job-done") {
		t.Fatalf("want job-done mismatch error, got %v", err)
	}
}

func TestAddRejectsTimeTravel(t *testing.T) {
	tr := &Trace{}
	tr.Add(Event{At: 10, Kind: Release, Task: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("backwards timestamp accepted")
		}
	}()
	tr.Add(Event{At: 5, Kind: Release, Task: "a"})
}

func TestDumpWritesAllEvents(t *testing.T) {
	tr := goodTrace()
	var sb strings.Builder
	tr.Dump(&sb)
	lines := strings.Count(sb.String(), "\n")
	if lines != tr.Len() {
		t.Fatalf("dump has %d lines, want %d", lines, tr.Len())
	}
	if !strings.Contains(sb.String(), "compute-start a#0 seg0") {
		t.Fatalf("dump content unexpected:\n%s", sb.String())
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1500, Kind: JobDone, Task: "x", Job: 2, Segment: -1}
	if got := e.String(); got != "1.5us job-done x#2" {
		t.Fatalf("Event.String() = %q", got)
	}
}

func TestPercentiles(t *testing.T) {
	tm := &TaskMetrics{}
	for i := 1; i <= 100; i++ {
		tm.Responses = append(tm.Responses, sim.Duration(i))
	}
	cases := []struct {
		p    float64
		want sim.Duration
	}{
		{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}, {150, 100},
	}
	for _, c := range cases {
		if got := tm.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if (&TaskMetrics{}).Percentile(50) != 0 {
		t.Error("empty metrics percentile != 0")
	}
	if tm.Percentile(0) != 0 {
		t.Error("P0 should be 0")
	}
	// Percentile must not mutate the raw series order.
	tm2 := &TaskMetrics{Responses: []sim.Duration{30, 10, 20}}
	tm2.Percentile(50)
	if tm2.Responses[0] != 30 {
		t.Error("Percentile reordered the raw series")
	}
}

func TestAnalyzeRecordsResponseSeries(t *testing.T) {
	tr := goodTrace()
	m := tr.Analyze([]TaskInfo{ti("a", 100, 100, 2)}, 200)
	tm := m.PerTask["a"]
	if len(tm.Responses) != 2 || tm.Responses[0] != 50 || tm.Responses[1] != 60 {
		t.Fatalf("response series %v", tm.Responses)
	}
	if tm.Percentile(50) != 50 || tm.Percentile(100) != 60 {
		t.Fatalf("percentiles %v %v", tm.Percentile(50), tm.Percentile(100))
	}
}

func TestTraceCSV(t *testing.T) {
	tr := goodTrace()
	var sb strings.Builder
	if err := tr.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != tr.Len()+1 {
		t.Fatalf("csv rows = %d, want %d", len(lines), tr.Len()+1)
	}
	if lines[0] != "at_ns,kind,task,job,segment,bytes" {
		t.Fatalf("csv header %q", lines[0])
	}
	if lines[1] != "0,release,a,0,-1,0" {
		t.Fatalf("csv first row %q", lines[1])
	}
}

func TestInvariantMissPlacementChecked(t *testing.T) {
	infos := []TaskInfo{ti("a", 100, 50, 1)}
	// Wrong instant.
	tr := &Trace{}
	tr.Add(Event{At: 0, Kind: Release, Task: "a", Job: 0, Segment: -1})
	tr.Add(Event{At: 49, Kind: DeadlineMiss, Task: "a", Job: 0, Segment: -1})
	if err := checkVerdict(t, tr, infos); err == nil || !strings.Contains(err.Error(), "absolute deadline") {
		t.Fatalf("misplaced miss accepted: %v", err)
	}
	// Miss without release.
	tr2 := &Trace{}
	tr2.Add(Event{At: 50, Kind: DeadlineMiss, Task: "a", Job: 0, Segment: -1})
	if err := checkVerdict(t, tr2, infos); err == nil || !strings.Contains(err.Error(), "without a release") {
		t.Fatalf("orphan miss accepted: %v", err)
	}
	// Miss after completion.
	tr3 := &Trace{}
	tr3.Add(Event{At: 0, Kind: Release, Task: "a", Job: 0, Segment: -1})
	tr3.Add(Event{At: 0, Kind: LoadStart, Task: "a", Job: 0, Segment: 0, Bytes: 5})
	tr3.Add(Event{At: 5, Kind: LoadEnd, Task: "a", Job: 0, Segment: 0, Bytes: 5})
	tr3.Add(Event{At: 5, Kind: ComputeStart, Task: "a", Job: 0, Segment: 0})
	tr3.Add(Event{At: 10, Kind: ComputeEnd, Task: "a", Job: 0, Segment: 0})
	tr3.Add(Event{At: 10, Kind: JobDone, Task: "a", Job: 0, Segment: -1})
	tr3.Add(Event{At: 50, Kind: DeadlineMiss, Task: "a", Job: 0, Segment: -1})
	if err := checkVerdict(t, tr3, infos); err == nil || !strings.Contains(err.Error(), "after the job completed") {
		t.Fatalf("post-completion miss accepted: %v", err)
	}
}

func TestInvariantJitteredReleaseWindow(t *testing.T) {
	infos := []TaskInfo{{Name: "a", Period: 100, Deadline: 100, Jitter: 20, Segments: 1}}
	tr := &Trace{}
	tr.Add(Event{At: 15, Kind: Release, Task: "a", Job: 0, Segment: -1})  // within [0, 20]
	tr.Add(Event{At: 105, Kind: Release, Task: "a", Job: 1, Segment: -1}) // within [100, 120]
	if err := checkVerdict(t, tr, infos); err != nil {
		t.Fatal(err)
	}
	tr.Add(Event{At: 230, Kind: Release, Task: "a", Job: 2, Segment: -1}) // outside [200, 220]
	if err := checkVerdict(t, tr, infos); err == nil {
		t.Fatal("out-of-window release accepted")
	}
}
