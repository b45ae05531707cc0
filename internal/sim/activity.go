package sim

import "fmt"

// Activity models a piece of work that progresses through virtual time at a
// rate that may change while it runs. Work is measured in nanoseconds at
// unit rate: an activity with 1000 work-ns running at rate 1/2 completes in
// 2000 ns of virtual time.
//
// Rates are exact rationals (num/den) so repeated rate changes cannot
// accumulate floating-point drift. An activity at rate 0 is stalled and
// holds its remaining work indefinitely.
type Activity struct {
	eng       *Engine
	remaining int64 // work-ns still to do
	num, den  int64 // current rate
	started   Time  // when the current leg began
	event     Event // zero when no completion is armed
	onDone    func()
	// fire is a.complete bound once at construction, so arming a leg
	// schedules it without allocating a method value.
	fire     func()
	running  bool
	finished bool
}

// NewActivity creates an activity with the given total work (in work-ns)
// that will call onDone when the work completes. The activity does not
// progress until Start is called.
func NewActivity(eng *Engine, work int64, onDone func()) *Activity {
	if work < 0 {
		panic(fmt.Sprintf("sim: negative activity work %d", work))
	}
	a := &Activity{eng: eng, remaining: work, num: 1, den: 1, onDone: onDone}
	a.fire = a.complete
	return a
}

// Reset re-arms a paused or finished activity with fresh work at unit
// rate, keeping its completion callback: a device that owns one activity
// reuses it for every work item instead of allocating one per item. The
// activity does not progress until Start. Resetting a running activity
// panics.
func (a *Activity) Reset(work int64) {
	if a.running {
		panic("sim: reset of running activity")
	}
	if work < 0 {
		panic(fmt.Sprintf("sim: negative activity work %d", work))
	}
	a.remaining, a.num, a.den = work, 1, 1
	a.finished = false
	a.event = Event{}
}

// Remaining returns the work-ns left, folding in progress on the current leg.
func (a *Activity) Remaining() int64 {
	if !a.running {
		return a.remaining
	}
	return a.remaining - a.progressed()
}

// Finished reports whether the activity has completed.
func (a *Activity) Finished() bool { return a.finished }

// Running reports whether the activity is currently progressing (started
// and neither paused nor finished).
func (a *Activity) Running() bool { return a.running }

func (a *Activity) progressed() int64 {
	elapsed := int64(a.eng.Now() - a.started)
	p := elapsed * a.num / a.den
	if p > a.remaining {
		p = a.remaining
	}
	return p
}

// Start begins (or resumes) progress at rate num/den. Starting a finished
// or already-running activity panics.
func (a *Activity) Start(num, den int64) {
	if a.finished {
		panic("sim: start of finished activity")
	}
	if a.running {
		panic("sim: start of running activity")
	}
	if num < 0 || den <= 0 {
		panic(fmt.Sprintf("sim: invalid rate %d/%d", num, den))
	}
	a.num, a.den = num, den
	a.started = a.eng.Now()
	a.running = true
	a.arm()
}

// Pause halts progress, banking partial work. Pausing a non-running
// activity is a no-op.
func (a *Activity) Pause() {
	if !a.running {
		return
	}
	a.remaining -= a.progressed()
	a.running = false
	a.eng.Cancel(a.event)
	a.event = Event{}
}

// SetRate changes the progress rate mid-flight, preserving completed work
// exactly. Calling SetRate on a paused activity just records the new rate
// for the next Start... it is only valid while running.
func (a *Activity) SetRate(num, den int64) {
	if !a.running {
		panic("sim: SetRate on non-running activity")
	}
	if num < 0 || den <= 0 {
		panic(fmt.Sprintf("sim: invalid rate %d/%d", num, den))
	}
	a.remaining -= a.progressed()
	a.num, a.den = num, den
	a.started = a.eng.Now()
	a.eng.Cancel(a.event)
	a.event = Event{}
	a.arm()
}

// arm schedules the completion event for the current leg.
//
//rtmdm:hotpath
func (a *Activity) arm() {
	if a.num == 0 {
		return // stalled: no completion until rate changes
	}
	// ceil(remaining * den / num) virtual ns to finish.
	d := (a.remaining*a.den + a.num - 1) / a.num
	a.event = a.eng.After(Duration(d), a.fire)
}

func (a *Activity) complete() {
	a.remaining = 0
	a.running = false
	a.finished = true
	a.event = Event{}
	if a.onDone != nil {
		a.onDone()
	}
}
