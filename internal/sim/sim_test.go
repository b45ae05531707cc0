package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.RunAll(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestFIFOTieBreakAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.RunAll(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order %v not FIFO", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.RunAll(0)
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	e.RunAll(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(20, func() { fired = true })
	e.Schedule(10, func() { e.Cancel(ev) })
	e.RunAll(0)
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	n := e.Run(25)
	if n != 2 {
		t.Fatalf("Run(25) executed %d events, want 2", n)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v after Run(25), want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
}

func TestRunInclusiveAtHorizon(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(25, func() { fired = true })
	e.Run(25)
	if !fired {
		t.Fatal("event at exactly the horizon did not fire")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.RunAll(0)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1500, "1.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
		{-1500, "-1.5us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestSecondsConversion(t *testing.T) {
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Fatalf("Seconds() = %v, want 2.5", got)
	}
}

// Property: for any set of (time, id) pairs, the engine fires them in
// nondecreasing time order with FIFO ties.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			at := Time(d)
			i := i
			e.Schedule(at, func() { got = append(got, rec{at, i}) })
		}
		e.RunAll(0)
		if len(got) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].seq < got[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestActivityUnitRate(t *testing.T) {
	e := NewEngine()
	done := Time(-1)
	a := NewActivity(e, 1000, func() { done = e.Now() })
	a.Start(1, 1)
	e.RunAll(0)
	if done != 1000 {
		t.Fatalf("activity finished at %v, want 1000", done)
	}
	if !a.Finished() {
		t.Fatal("Finished() = false")
	}
}

func TestActivityHalfRate(t *testing.T) {
	e := NewEngine()
	done := Time(-1)
	a := NewActivity(e, 1000, func() { done = e.Now() })
	a.Start(1, 2)
	e.RunAll(0)
	if done != 2000 {
		t.Fatalf("activity at rate 1/2 finished at %v, want 2000", done)
	}
}

func TestActivityRateChangeMidFlight(t *testing.T) {
	e := NewEngine()
	done := Time(-1)
	a := NewActivity(e, 1000, func() { done = e.Now() })
	a.Start(1, 1)
	// After 400 ns at full rate, drop to rate 1/3: remaining 600 work-ns
	// takes 1800 ns, so completion at 400+1800 = 2200.
	e.Schedule(400, func() { a.SetRate(1, 3) })
	e.RunAll(0)
	if done != 2200 {
		t.Fatalf("finished at %v, want 2200", done)
	}
}

func TestActivityPauseResume(t *testing.T) {
	e := NewEngine()
	done := Time(-1)
	a := NewActivity(e, 1000, func() { done = e.Now() })
	a.Start(1, 1)
	e.Schedule(300, func() { a.Pause() })
	e.Schedule(500, func() { a.Start(1, 1) })
	e.RunAll(0)
	if done != 1200 {
		t.Fatalf("finished at %v, want 1200 (300 done + 200 paused + 700 left)", done)
	}
}

// TestActivityResetReuses pins Reset: a finished or paused activity takes
// fresh work at unit rate and completes through its original callback,
// and resetting a running one panics.
func TestActivityResetReuses(t *testing.T) {
	e := NewEngine()
	var done []Time
	a := NewActivity(e, 100, func() { done = append(done, e.Now()) })
	a.Start(1, 2)
	e.RunAll(0) // finishes at 200 (rate 1/2)
	a.Reset(50)
	a.Start(1, 1)
	e.Schedule(210, func() { a.Pause() })
	e.RunAll(0) // paused with 40 left
	a.Reset(30)
	if a.Finished() || a.Remaining() != 30 {
		t.Fatalf("after reset: finished %v, remaining %d", a.Finished(), a.Remaining())
	}
	a.Start(1, 1)
	e.RunAll(0)
	if len(done) != 2 || done[0] != 200 || done[1] != 240 {
		t.Fatalf("completions at %v, want [200 240]", done)
	}
	a.Reset(10)
	a.Start(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("reset of a running activity did not panic")
		}
	}()
	a.Reset(5)
}

func TestActivityZeroRateStalls(t *testing.T) {
	e := NewEngine()
	done := false
	a := NewActivity(e, 1000, func() { done = true })
	a.Start(0, 1)
	e.Run(1_000_000)
	if done {
		t.Fatal("stalled activity completed")
	}
	if got := a.Remaining(); got != 1000 {
		t.Fatalf("Remaining() = %d while stalled, want 1000", got)
	}
	a.SetRate(1, 1)
	e.RunAll(0)
	if !done {
		t.Fatal("activity never completed after un-stalling")
	}
}

func TestActivityZeroWorkCompletesImmediately(t *testing.T) {
	e := NewEngine()
	done := Time(-1)
	a := NewActivity(e, 0, func() { done = e.Now() })
	e.Schedule(10, func() { a.Start(1, 1) })
	e.RunAll(0)
	if done != 10 {
		t.Fatalf("zero-work activity finished at %v, want 10", done)
	}
}

func TestActivityRemainingMidFlight(t *testing.T) {
	e := NewEngine()
	a := NewActivity(e, 1000, nil)
	a.Start(1, 1)
	var mid int64
	e.Schedule(250, func() { mid = a.Remaining() })
	e.RunAll(0)
	if mid != 750 {
		t.Fatalf("Remaining() at t=250 = %d, want 750", mid)
	}
}

// Property: under any sequence of rate changes with rates ≥ 1/8, total
// virtual time to complete W work-ns is at most 8·W and at least W·min-ratio;
// and work is conserved (activity always finishes).
func TestPropertyActivityConservation(t *testing.T) {
	f := func(seed int64, w uint16) bool {
		work := int64(w) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		finished := Time(-1)
		a := NewActivity(e, work, func() { finished = e.Now() })
		a.Start(1, 1)
		// Random rate perturbations at random instants.
		at := Time(0)
		for i := 0; i < 5; i++ {
			at += Time(rng.Intn(int(work)) + 1)
			num, den := int64(rng.Intn(4)+1), int64(rng.Intn(8)+1)
			e.Schedule(at, func() {
				if !a.Finished() {
					a.SetRate(num, den)
				}
			})
		}
		e.RunAll(0)
		if finished < 0 {
			return false // never completed
		}
		// Slowest possible rate is 1/8, so upper bound 8*work plus
		// rounding slack per leg.
		return finished <= Time(8*work+16)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestActivityDoubleStartPanics(t *testing.T) {
	e := NewEngine()
	a := NewActivity(e, 10, nil)
	a.Start(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	a.Start(1, 1)
}

func TestRunAllLimitGuards(t *testing.T) {
	e := NewEngine()
	var rearm func()
	rearm = func() { e.After(1, rearm) }
	e.After(1, rearm)
	defer func() {
		if recover() == nil {
			t.Fatal("RunAll with self-rearming event did not hit the limit guard")
		}
	}()
	e.RunAll(100)
}

func TestAccessorsAndGuards(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(10, func() {})
	if ev.Time() != 10 {
		t.Fatalf("Event.Time = %v", ev.Time())
	}
	if e.Steps() != 0 {
		t.Fatal("Steps before run")
	}
	e.RunAll(0)
	if e.Steps() != 1 {
		t.Fatalf("Steps = %d", e.Steps())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("nil func accepted")
		}
	}()
	e.Schedule(e.Now()+1, nil)
}

func TestActivityRunningAccessor(t *testing.T) {
	e := NewEngine()
	a := NewActivity(e, 100, nil)
	if a.Running() {
		t.Fatal("running before start")
	}
	a.Start(1, 1)
	if !a.Running() {
		t.Fatal("not running after start")
	}
	e.RunAll(0)
	if a.Running() {
		t.Fatal("running after completion")
	}
}

func TestActivityNegativeWorkPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative work accepted")
		}
	}()
	NewActivity(e, -1, nil)
}

func TestActivityBadRatePanics(t *testing.T) {
	e := NewEngine()
	a := NewActivity(e, 100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-denominator rate accepted")
		}
	}()
	a.Start(1, 0)
}

func TestActivityStartFinishedPanics(t *testing.T) {
	e := NewEngine()
	a := NewActivity(e, 10, nil)
	a.Start(1, 1)
	e.RunAll(0)
	defer func() {
		if recover() == nil {
			t.Fatal("restart of finished activity accepted")
		}
	}()
	a.Start(1, 1)
}

func TestActivitySetRateWhilePausedPanics(t *testing.T) {
	e := NewEngine()
	a := NewActivity(e, 100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRate on non-running activity accepted")
		}
	}()
	a.SetRate(1, 2)
}

func TestRunSkipsCancelledHead(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(5, func() {})
	fired := false
	e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	if n := e.Run(20); n != 1 {
		t.Fatalf("Run executed %d events", n)
	}
	if !fired {
		t.Fatal("later event did not fire")
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v after horizon run", e.Now())
	}
}
