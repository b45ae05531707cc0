package exec

import (
	"errors"
	"reflect"
	"testing"

	"rtmdm/internal/core"
	"rtmdm/internal/fault"
	"rtmdm/internal/metrics"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
	"rtmdm/internal/trace"
)

func metricVal(t *testing.T, reg *metrics.Registry, name string) int64 {
	t.Helper()
	for _, s := range reg.Snapshot().Samples {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("metric %q not in snapshot", name)
	return 0
}

func countKind(r *Result, k trace.Kind) int {
	n := 0
	for _, e := range r.Trace.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestRunWithNilPlanMatchesRun pins the no-plan guarantee: RunWithFaults
// with a nil plan is byte-identical to Run.
func TestRunWithNilPlanMatchesRun(t *testing.T) {
	p := testPlat()
	s := task.NewSet(
		mkTask(p, "a", sim.Millisecond, sim.Millisecond, 0, 0, segSpec{900, 1000}, segSpec{900, 1000}),
		mkTask(p, "b", 2*sim.Millisecond, 2*sim.Millisecond, 0, 1, segSpec{500, 2000}),
	)
	r1, err := Run(s, p, core.RTMDM(), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunWithFaults(s, p, core.RTMDM(), 10*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("nil-plan RunWithFaults result differs from Run")
	}
	if r2.FaultsInjected != 0 || r2.JobsAborted != 0 || r2.DMARetries != 0 || r2.ReleasesSuppressed != 0 {
		t.Errorf("nil plan injected: %+v", r2)
	}
}

// TestFaultRunsAreDeterministic pins the reproducibility guarantee: two
// runs under the same plan produce identical traces and fault accounting,
// for both an RT-MDM and a serial (job-locked) policy.
func TestFaultRunsAreDeterministic(t *testing.T) {
	p := testPlat()
	mkSet := func() *task.Set {
		return task.NewSet(
			mkTask(p, "a", sim.Millisecond, sim.Millisecond, 0, 0, segSpec{900, 100_000}, segSpec{900, 100_000}),
			mkTask(p, "b", 2*sim.Millisecond, 2*sim.Millisecond, 0, 1, segSpec{50_000, 300_000}, segSpec{20_000, 200_000}),
		)
	}
	cfg := fault.Config{
		Seed:                  11,
		OverrunRate:           0.5,
		OverrunFactor:         1.5,
		OverrunFactorMax:      3,
		ReleaseJitterRate:     0.5,
		ReleaseJitterMaxMs:    0.2,
		DMASlowdownRatePerSec: 200, DMASlowdownMs: 0.5, DMASlowdownFactor: 2,
		TransferFaultRate: 0.3,
	}
	for _, polName := range []string{"rt-mdm", "serial-npfp"} {
		pol, err := core.PolicyByName(polName)
		if err != nil {
			t.Fatal(err)
		}
		pol.Overrun = core.OverrunAbort
		run := func() *Result {
			plan, err := fault.New(cfg, 20*sim.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runFaultsRec(mkSet(), p, pol, 20*sim.Millisecond, plan)
			if err != nil {
				t.Fatalf("%s: %v", polName, err)
			}
			return r
		}
		r1, r2 := run(), run()
		if !reflect.DeepEqual(r1.Trace.Events, r2.Trace.Events) {
			t.Errorf("%s: traces differ across identical fault runs", polName)
		}
		if r1.FaultsInjected != r2.FaultsInjected || r1.JobsAborted != r2.JobsAborted ||
			r1.DMARetries != r2.DMARetries || r1.SRAMPeak != r2.SRAMPeak {
			t.Errorf("%s: fault accounting differs: %+v vs %+v", polName, r1, r2)
		}
		if r1.FaultsInjected == 0 {
			t.Errorf("%s: plan injected nothing", polName)
		}
	}
}

// TestOverrunAbortInvariants drives a 100%-overrun plan into OverrunAbort
// and pins the acceptance criteria: every aborted job emits exactly one
// Abort, frees its staging buffers (SRAM residual returns to baseline), and
// is counted exactly once in exec.deadline_misses.
func TestOverrunAbortInvariants(t *testing.T) {
	reg := metrics.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	p := testPlat()
	// Nominal response ≈ 1000 + 300k + 300k = 601k < 650k deadline; under a
	// factor-2 overrun every job blows past its deadline mid-compute while
	// holding a staged buffer.
	s := task.NewSet(mkTask(p, "a", sim.Millisecond, 650_000, 0, 0,
		segSpec{1000, 300_000}, segSpec{1000, 300_000}))
	plan, err := fault.New(fault.Config{OverrunRate: 1, OverrunFactor: 2}, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	pol := core.RTMDM()
	pol.Overrun = core.OverrunAbort
	r, err := runFaultsRec(s, p, pol, 10*sim.Millisecond, plan)
	if err != nil {
		t.Fatal(err) // Run already checked the trace invariants
	}
	const jobs = 10
	if r.JobsAborted != jobs {
		t.Fatalf("JobsAborted = %d, want %d", r.JobsAborted, jobs)
	}
	perJob := map[int]int{}
	for _, e := range r.Trace.Events {
		if e.Kind == trace.Abort {
			perJob[e.Job]++
		}
	}
	if len(perJob) != jobs {
		t.Fatalf("aborts for %d jobs, want %d", len(perJob), jobs)
	}
	for job, n := range perJob {
		if n != 1 {
			t.Errorf("job %d has %d Abort events, want exactly 1", job, n)
		}
	}
	if r.SRAMResidual != 0 {
		t.Errorf("SRAM residual %d B after all jobs aborted, want 0 (buffers leaked)", r.SRAMResidual)
	}
	if got := metricVal(t, reg, "exec.deadline_misses"); got != jobs {
		t.Errorf("exec.deadline_misses = %d, want %d (each aborted job counted once)", got, jobs)
	}
	if got := metricVal(t, reg, "exec.jobs_aborted"); got != jobs {
		t.Errorf("exec.jobs_aborted = %d, want %d", got, jobs)
	}
	tm := r.Metrics.PerTask["a"]
	if tm.Misses != jobs || tm.Aborted != jobs || tm.Completed != 0 {
		t.Errorf("metrics misses=%d aborted=%d completed=%d, want %d/%d/0",
			tm.Misses, tm.Aborted, tm.Completed, jobs, jobs)
	}
	if n := countKind(r, trace.Overrun); n == 0 {
		t.Error("no Overrun events traced under a rate-1 plan")
	}
}

// TestAbortCancelsExactlyOnce pins the sim-kernel accounting of an abort
// (Cancel-vs-deadline edge cases): reclaiming a device cancels the armed
// completion event exactly once. In both scenarios each job performs
// exactly one device dispatch (whose bus rate-update re-arms the completion
// event, costing one cancellation) and is then aborted (one Activity.Pause
// cancellation), so sim.events_cancelled must equal released + aborted —
// any double-cancel or leaked pending event breaks the equality.
func TestAbortCancelsExactlyOnce(t *testing.T) {
	p := testPlat()
	scenarios := []struct {
		name string
		spec segSpec
	}{
		// Aborted mid-compute: zero-byte load, compute overruns the deadline.
		{"cpu", segSpec{0, 800_000}},
		// Aborted mid-transfer: the 450k-byte load alone overruns the
		// 300µs deadline (the channel is still busy at the abort instant).
		{"dma", segSpec{450_000, 100_000}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			Instrument(reg)
			defer Instrument(nil)
			s := task.NewSet(mkTask(p, "a", sim.Millisecond, 300_000, 0, 0, sc.spec))
			pol := core.RTMDM()
			pol.Overrun = core.OverrunAbort
			r, err := RunWithFaults(s, p, pol, 5*sim.Millisecond, nil)
			if err != nil {
				t.Fatal(err)
			}
			const jobs = 5
			if r.JobsAborted != jobs {
				t.Fatalf("JobsAborted = %d, want %d", r.JobsAborted, jobs)
			}
			cancelled := metricVal(t, reg, "sim.events_cancelled")
			if want := int64(jobs + jobs); cancelled != want {
				t.Errorf("sim.events_cancelled = %d, want %d (1 dispatch re-arm + exactly 1 abort cancel per job)",
					cancelled, want)
			}
			if r.SRAMResidual != 0 {
				t.Errorf("SRAM residual %d B, want 0", r.SRAMResidual)
			}
		})
	}
}

// TestTransferRetryBackoffTiming pins the retry path's exact arithmetic: a
// rate-1 plan with budget 2 faults every chunk until the budget forces
// success, with doubling backoff between attempts.
func TestTransferRetryBackoffTiming(t *testing.T) {
	p := testPlat()
	s := task.NewSet(mkTask(p, "a", 10*sim.Millisecond, 10*sim.Millisecond, 0, 0, segSpec{1000, 1000}))
	plan, err := fault.New(fault.Config{TransferFaultRate: 1, MaxRetries: 2, RetryBackoffUs: 20}, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runFaultsRec(s, p, core.RTMDM(), 10*sim.Millisecond, plan)
	if err != nil {
		t.Fatal(err)
	}
	if r.DMARetries != 2 {
		t.Fatalf("DMARetries = %d, want 2 (budget exhausts after 2)", r.DMARetries)
	}
	if n := countKind(r, trace.DMARetry); n != 2 {
		t.Fatalf("%d DMARetry events, want 2", n)
	}
	// xfer 1000 + backoff 20µs + xfer 1000 + backoff 40µs + xfer 1000 +
	// compute 1000 = 64000 ns.
	if got := jobDoneAt(t, r, "a", 0); got != 64_000 {
		t.Fatalf("completion at %v, want 64000", got)
	}
	// Each attempt re-reads the chunk from flash.
	if r.FlashBytes != 3000 {
		t.Fatalf("FlashBytes = %d, want 3000 (3 attempts × 1000 B)", r.FlashBytes)
	}
	tm := r.Metrics.PerTask["a"]
	if tm.Misses != 0 || tm.Completed != 1 {
		t.Fatalf("misses=%d completed=%d, want 0/1", tm.Misses, tm.Completed)
	}
}

// TestOverrunSkipNextShedsReleases: a permanently overloaded task under
// skip-next sheds exactly one future release per miss, and every grid point
// is either released or suppressed.
func TestOverrunSkipNextShedsReleases(t *testing.T) {
	p := testPlat()
	s := task.NewSet(mkTask(p, "a", sim.Millisecond, sim.Millisecond, 0, 0, segSpec{0, 1_500_000}))
	pol := core.RTMDM()
	pol.Overrun = core.OverrunSkipNext
	r, err := runFaultsRec(s, p, pol, 10*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReleasesSuppressed == 0 {
		t.Fatal("overloaded skip-next run suppressed nothing")
	}
	released := int64(countKind(r, trace.Release))
	if released+r.ReleasesSuppressed != 10 {
		t.Errorf("released %d + suppressed %d != 10 grid points", released, r.ReleasesSuppressed)
	}
	if r.JobsAborted != 0 {
		t.Errorf("skip-next aborted %d jobs", r.JobsAborted)
	}
	// Shedding keeps the backlog bounded: with every other release shed the
	// task alternates miss, skip — so completions keep happening.
	if r.Metrics.PerTask["a"].Completed == 0 {
		t.Error("skip-next run completed nothing; backlog was not shed")
	}
}

// TestMalformedPlanReturnsInternalError: a hand-built plan with a negative
// compute cost drives the platform layer into an invariant panic; the
// public boundary must convert it into a structured error, not a crash.
func TestMalformedPlanReturnsInternalError(t *testing.T) {
	p := testPlat()
	s := task.NewSet(mkTask(p, "a", sim.Millisecond, sim.Millisecond, 0, 0, segSpec{0, -5}))
	_, err := Run(s, p, core.RTMDM(), 5*sim.Millisecond)
	if err == nil {
		t.Fatal("negative compute cost did not error")
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v is not an *InternalError", err)
	}
	if ie.Stack == "" {
		t.Error("InternalError without a stack")
	}
}

// TestAbortWithQueuedRetryIsRevoked covers the abort-during-backoff edge:
// the armed retry event and the re-queued transfer must both be revoked so
// nothing of the aborted job fires later (the trace invariant "no events
// after abort" catches any leak).
func TestAbortWithQueuedRetryIsRevoked(t *testing.T) {
	p := testPlat()
	// Transfer faults with a long backoff guarantee the job sits in backoff
	// (or re-queued) when its 300µs deadline arrives.
	s := task.NewSet(mkTask(p, "a", sim.Millisecond, 300_000, 0, 0, segSpec{100_000, 50_000}))
	plan, err := fault.New(fault.Config{TransferFaultRate: 1, MaxRetries: 3, RetryBackoffUs: 400}, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	pol := core.RTMDM()
	pol.Overrun = core.OverrunAbort
	r, err := RunWithFaults(s, p, pol, 5*sim.Millisecond, plan)
	if err != nil {
		t.Fatal(err)
	}
	if r.JobsAborted == 0 {
		t.Fatal("no aborts; scenario does not exercise the backoff edge")
	}
	if r.SRAMResidual != 0 {
		t.Errorf("SRAM residual %d B, want 0", r.SRAMResidual)
	}
}
