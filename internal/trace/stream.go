package trace

import (
	"fmt"
	"math"
	"sort"

	"rtmdm/internal/core"
	"rtmdm/internal/sim"
)

// Checker is the streaming form of CheckInvariants and Analyze: it applies
// the nine invariant rules and the per-task metric accumulation to one
// event at a time, so a run can be checked and measured without keeping
// its event log. The executor feeds every event it emits; Analyze replays
// a recorded trace through the same accumulator, so there is one metrics
// implementation.
//
// A streaming checker (NewChecker) also rejects time running backwards,
// the check Trace.Add makes, by panicking with the same message shape.
// Its state is bounded by the jobs in flight: the CPU and DMA owners, and
// per live job its release time, staged-segment load times, last computed
// segment and last compute end. A job leaves that state once it is
// finished (done after the instant of its JobDone, or aborted). A later
// event naming a retired job gets the verdict CheckInvariants gives it,
// from a compact per-task record of how each retired job ended; only the
// message may cite a different failed rule.
//
// The first violation is kept (Err) and checking stops there; metrics
// keep accumulating. On every trace CheckInvariants accepts, Err is nil
// and Metrics equals what Analyze computed before it became a replay of
// this type. CheckInvariants stays the independent post-hoc reference
// the streaming checker is tested against.
type Checker struct {
	info    []TaskInfo
	jobs    []taskJobs
	per     []*TaskMetrics
	m       *Metrics
	horizon sim.Time
	// far holds the jobs outside every task's window: unknown tasks,
	// negative or far-future job indices, and retired jobs named again.
	far map[jobKey]*jobState

	// stream enables the time check and job retirement; Analyze's replay
	// leaves both off so it keeps every job, exactly as it always has.
	stream bool
	seen   bool
	last   sim.Time

	err              error
	cpuBusy, dmaBusy bool
	cpuOwner         Event
	dmaOwner         Event
	finished         bool
}

type jobKey struct {
	task string
	job  int
}

// segLoad is one staged segment's load-completion time.
type segLoad struct {
	seg int
	at  sim.Time
}

// jobState is everything the rules and the metrics read about one job.
type jobState struct {
	ti   int  // task index, -1 for an unknown task
	used bool // a window slot that holds a job

	released bool
	rel      sim.Time
	done     bool // a JobDone was seen
	doneAt   sim.Time
	missed   bool
	aborted  bool

	computed bool // a segment compute started
	lastSeg  int
	ended    bool // a segment compute ended
	lastEnd  Event
	// loads holds the staged segments not yet computed; hiLoad is the
	// highest segment index ever loaded (segments past the last one can
	// still be computed after JobDone, so a job holding such a load is
	// never retired).
	loads  []segLoad
	hiLoad int
}

// Retired-job kinds, recorded per task in runs of consecutive indices.
const (
	retiredFresh   uint8 = iota // never seen: a later event starts it afresh
	retiredDone                 // completed, its last segment computed
	retiredAborted              // killed at its deadline
)

type retiredRun struct {
	end  int // runs cover [previous end, end)
	kind uint8
}

// taskJobs is one task's window of live jobs: a ring over job indices
// [base, base+n), plus the runs recording how every index below base
// ended.
type taskJobs struct {
	base, head, n int
	ring          []jobState
	retired       []retiredRun
	// unfinished and missed count retired aborted jobs that were released
	// but never completed nor marked missed: the horizon settlement
	// Metrics applies to live jobs, made as they leave.
	unfinished, missed int
}

// maxWindow caps a task's job window; jobs further ahead go to the far
// map (no executor run keeps that many jobs of one task in flight).
const maxWindow = 1 << 12

// NewChecker returns a streaming checker for a run of the given tasks up
// to horizon (the instant unfinished jobs are judged against).
func NewChecker(tasks []TaskInfo, horizon sim.Time) *Checker {
	c := newChecker(tasks, horizon)
	c.stream = true
	return c
}

func newChecker(tasks []TaskInfo, horizon sim.Time) *Checker {
	c := &Checker{
		info:    tasks,
		jobs:    make([]taskJobs, len(tasks)),
		per:     make([]*TaskMetrics, len(tasks)),
		m:       &Metrics{Horizon: horizon, PerTask: make(map[string]*TaskMetrics, len(tasks))},
		horizon: horizon,
	}
	for i, ti := range tasks {
		tm := &TaskMetrics{MaxLateness: -1 << 62}
		c.per[i] = tm
		// A repeated name resolves to its last entry, as in Analyze.
		c.m.PerTask[ti.Name] = tm
	}
	return c
}

// Err returns the first invariant violation observed, or nil.
func (c *Checker) Err() error { return c.err }

// Observe checks and accounts one event. Events must arrive in
// nondecreasing time order; a streaming checker panics otherwise.
//
//rtmdm:hotpath
func (c *Checker) Observe(e Event) {
	if c.stream {
		if c.seen && e.At < c.last {
			c.backwards(e)
		}
		c.seen, c.last = true, e.At
	}
	ti := c.taskIndex(e.Task)
	s := c.job(ti, e.Task, e.Job, e.At)
	if c.err == nil {
		c.err = c.check(e, ti, s)
	}
	if ti < 0 {
		return
	}
	tm := c.per[ti]
	switch e.Kind {
	case Release:
		tm.Released++
		s.released, s.rel = true, e.At
	case JobDone:
		tm.Completed++
		s.done, s.doneAt = true, e.At
		if !s.released {
			return
		}
		resp := e.At - s.rel
		tm.TotalResponse += resp
		if tm.Responses == nil {
			tm.Responses = make([]sim.Duration, 0, c.expectedJobs(ti))
		}
		tm.Responses = append(tm.Responses, resp)
		if resp > tm.MaxResponse {
			tm.MaxResponse = resp
		}
		lat := resp - c.info[ti].Deadline
		if lat > tm.MaxLateness {
			tm.MaxLateness = lat
		}
		// Late completion is a deadline miss even without an explicit
		// DeadlineMiss event.
		if lat > 0 && !s.missed {
			s.missed = true
			tm.Misses++
		}
	case DeadlineMiss:
		if !s.missed {
			s.missed = true
			tm.Misses++
		}
	case Abort:
		tm.Aborted++
	}
}

// backwards panics on an event earlier than its predecessor, as Trace.Add
// does (kept out of line so Observe stays allocation-free).
func (c *Checker) backwards(e Event) {
	panic(fmt.Sprintf("trace: time went backwards: %v after %v", e, c.last))
}

// expectedJobs sizes a task's response series: one entry per release the
// horizon admits.
func (c *Checker) expectedJobs(ti int) int {
	p := c.info[ti].Period
	if p <= 0 || c.horizon <= 0 {
		return 0
	}
	n := c.horizon/p + 1
	if n > maxWindow {
		n = maxWindow
	}
	return int(n)
}

// taskIndex resolves a task name, -1 when unknown. It scans the names
// from the end, so a repeated name resolves to its last entry. The
// executor passes the very strings the infos hold, so a match is a
// pointer compare and a mismatch usually a length check; on the F5
// sweep this measured faster than a map lookup.
//
//rtmdm:hotpath
func (c *Checker) taskIndex(name string) int {
	for i := len(c.info) - 1; i >= 0; i-- {
		if c.info[i].Name == name {
			return i
		}
	}
	return -1
}

// job returns the state of job j of task ti (name for unknown tasks),
// retiring finished jobs at the window's front first.
func (c *Checker) job(ti int, name string, j int, now sim.Time) *jobState {
	if c.far != nil {
		if s, ok := c.far[jobKey{name, j}]; ok {
			return s
		}
	}
	if ti < 0 || j < 0 {
		return c.farJob(ti, name, j, retiredFresh)
	}
	tj := &c.jobs[ti]
	if c.stream && c.err == nil {
		c.retire(ti, tj, now)
	}
	if j < tj.base {
		return c.farJob(ti, name, j, tj.kindOf(j))
	}
	off := j - tj.base
	if off >= maxWindow {
		return c.farJob(ti, name, j, retiredFresh)
	}
	if off >= tj.n {
		if off >= len(tj.ring) {
			tj.grow(off + 1)
		}
		tj.n = off + 1
	}
	s := &tj.ring[(tj.head+off)&(len(tj.ring)-1)]
	if !s.used {
		s.used, s.ti = true, ti
	}
	return s
}

// farJob creates the state of a job outside the windows, starting from
// what its retired kind implies.
func (c *Checker) farJob(ti int, name string, j int, kind uint8) *jobState {
	s := &jobState{ti: ti, used: true}
	switch kind {
	case retiredDone:
		last := c.info[ti].Segments - 1
		s.done, s.doneAt = true, math.MinInt64
		s.computed, s.lastSeg = true, last
		s.ended = true
		s.lastEnd = Event{At: math.MinInt64, Kind: ComputeEnd, Task: name, Job: j, Segment: last}
	case retiredAborted:
		s.aborted = true
	}
	if c.far == nil {
		c.far = map[jobKey]*jobState{}
	}
	c.far[jobKey{name, j}] = s
	return s
}

// retire drops finished jobs from the front of task ti's window. A job
// completed at doneAt stays until time has moved past doneAt (a repeated
// JobDone at that very instant is still legal), and stays for good if it
// staged a segment beyond its last (which may still compute). An aborted
// job's unfinished-at-horizon contribution is settled as it leaves.
func (c *Checker) retire(ti int, tj *taskJobs, now sim.Time) {
	for tj.n > 0 {
		s := &tj.ring[tj.head]
		var kind uint8
		switch {
		case !s.used:
			kind = retiredFresh
		case s.aborted:
			kind = retiredAborted
			if s.released && !s.done && !s.missed {
				tj.unfinished++
				if s.rel+c.info[ti].Deadline <= c.horizon {
					tj.missed++
				}
			}
		case s.done && s.doneAt < now && s.hiLoad < c.info[ti].Segments:
			kind = retiredDone
		default:
			return
		}
		if r := len(tj.retired); r > 0 && tj.retired[r-1].kind == kind {
			tj.retired[r-1].end = tj.base + 1
		} else {
			tj.retired = append(tj.retired, retiredRun{end: tj.base + 1, kind: kind})
		}
		*s = jobState{loads: s.loads[:0]}
		tj.head = (tj.head + 1) & (len(tj.ring) - 1)
		tj.n--
		tj.base++
	}
}

// kindOf reports how retired job j (< base) ended.
func (tj *taskJobs) kindOf(j int) uint8 {
	i := sort.Search(len(tj.retired), func(i int) bool { return tj.retired[i].end > j })
	return tj.retired[i].kind
}

// grow resizes the ring (a power of two) to hold at least n jobs.
func (tj *taskJobs) grow(n int) {
	size := 4
	for size < n {
		size *= 2
	}
	ring := make([]jobState, size)
	for i := 0; i < tj.n; i++ {
		ring[i] = tj.ring[(tj.head+i)&(len(tj.ring)-1)]
	}
	tj.ring, tj.head = ring, 0
}

func (s *jobState) loadAt(seg int) (sim.Time, bool) {
	for _, l := range s.loads {
		if l.seg == seg {
			return l.at, true
		}
	}
	return 0, false
}

func (s *jobState) setLoad(seg int, at sim.Time) {
	if seg > s.hiLoad {
		s.hiLoad = seg
	}
	for i := range s.loads {
		if s.loads[i].seg == seg {
			s.loads[i].at = at
			return
		}
	}
	s.loads = append(s.loads, segLoad{seg, at})
}

// dropComputed forgets the loads of segments at or below the last
// computed one: segment order only moves forward, so no later compute
// can read them.
func (s *jobState) dropComputed() {
	kept := s.loads[:0]
	for _, l := range s.loads {
		if l.seg > s.lastSeg {
			kept = append(kept, l)
		}
	}
	s.loads = kept
}

// check applies CheckInvariants' rules to one event, rule for rule and
// message for message.
func (c *Checker) check(e Event, ti int, s *jobState) error {
	if s.aborted {
		return fmt.Errorf("trace: %v references a job already aborted", e)
	}
	var info TaskInfo
	if ti >= 0 {
		info = c.info[ti]
	}
	switch e.Kind {
	case Release:
		if ti < 0 {
			return fmt.Errorf("trace: release for unknown task %q", e.Task)
		}
		nominal := core.SatAddTime(info.Offset, core.SatMulTime(info.Period, int64(e.Job)))
		if e.At < nominal || e.At > nominal+info.Jitter {
			return fmt.Errorf("trace: %s#%d released at %v, want within [%v, %v]",
				e.Task, e.Job, e.At, nominal, nominal+info.Jitter)
		}
	case LoadStart:
		if e.Bytes == 0 {
			return nil // instantaneous, channel not occupied
		}
		if c.dmaBusy {
			return fmt.Errorf("trace: DMA overlap: %v begins while %v in flight", e, c.dmaOwner)
		}
		c.dmaBusy, c.dmaOwner = true, e
	case LoadEnd:
		if e.Bytes != 0 {
			if !c.dmaBusy || !sameSegment(c.dmaOwner, e) {
				return fmt.Errorf("trace: unmatched load-end %v (owner %v)", e, c.dmaOwner)
			}
			c.dmaBusy = false
		}
		s.setLoad(e.Segment, e.At)
	case ComputeStart:
		if c.cpuBusy {
			return fmt.Errorf("trace: CPU overlap: %v begins while %v in flight", e, c.cpuOwner)
		}
		c.cpuBusy, c.cpuOwner = true, e
		ld, ok := s.loadAt(e.Segment)
		if !ok {
			return fmt.Errorf("trace: %v computes before its load completed", e)
		}
		if e.At < ld {
			return fmt.Errorf("trace: %v computes at %v before load done at %v", e, e.At, ld)
		}
		if s.computed && e.Segment != s.lastSeg+1 {
			return fmt.Errorf("trace: %s#%d segment order %d after %d", e.Task, e.Job, e.Segment, s.lastSeg)
		} else if !s.computed && e.Segment != 0 {
			return fmt.Errorf("trace: %s#%d first computed segment is %d", e.Task, e.Job, e.Segment)
		}
		s.computed, s.lastSeg = true, e.Segment
		s.dropComputed()
	case ComputeEnd:
		if !c.cpuBusy || !sameSegment(c.cpuOwner, e) {
			return fmt.Errorf("trace: unmatched compute-end %v (owner %v)", e, c.cpuOwner)
		}
		c.cpuBusy = false
		s.ended, s.lastEnd = true, e
	case JobDone:
		if !s.ended || s.lastEnd.At != e.At || s.lastEnd.Segment != info.Segments-1 {
			return fmt.Errorf("trace: job-done %v does not coincide with last segment end (%v)", e, s.lastEnd)
		}
	case DeadlineMiss:
		if ti < 0 {
			return fmt.Errorf("trace: miss for unknown task %q", e.Task)
		}
		if !s.released {
			return fmt.Errorf("trace: %v without a release", e)
		}
		if want := s.rel + info.Deadline; e.At != want {
			return fmt.Errorf("trace: %v at %v, want the absolute deadline %v", e, e.At, want)
		}
		if s.done && s.doneAt <= e.At {
			return fmt.Errorf("trace: %v after the job completed at %v", e, s.doneAt)
		}
	case Overrun:
		if !s.released {
			return fmt.Errorf("trace: %v without a release", e)
		}
		if s.done {
			return fmt.Errorf("trace: %v after the job completed", e)
		}
	case DMARetry:
		if e.Bytes == 0 {
			return nil // zero-byte loads never occupy the channel
		}
		if !c.dmaBusy || !sameSegment(c.dmaOwner, e) {
			return fmt.Errorf("trace: unmatched dma-retry %v (owner %v)", e, c.dmaOwner)
		}
		c.dmaBusy = false
	case Abort:
		if ti < 0 {
			return fmt.Errorf("trace: abort for unknown task %q", e.Task)
		}
		if !s.released {
			return fmt.Errorf("trace: %v without a release", e)
		}
		if want := s.rel + info.Deadline; e.At != want {
			return fmt.Errorf("trace: %v at %v, want the absolute deadline %v", e, e.At, want)
		}
		if s.done {
			return fmt.Errorf("trace: %v for a completed job", e)
		}
		// The abort reclaims whatever interval the job held open.
		if c.cpuBusy && c.cpuOwner.Task == e.Task && c.cpuOwner.Job == e.Job {
			c.cpuBusy = false
		}
		if c.dmaBusy && c.dmaOwner.Task == e.Task && c.dmaOwner.Job == e.Job {
			c.dmaBusy = false
		}
		s.aborted = true
	}
	return nil
}

// sameSegment reports whether two events name the same job segment.
func sameSegment(a, b Event) bool {
	return a.Task == b.Task && a.Job == b.Job && a.Segment == b.Segment
}

// Metrics completes the accumulation and returns the run's metrics: jobs
// released but unfinished at the horizon are counted, and count as
// misses when their absolute deadline fell inside it. Call it once,
// after the last event.
func (c *Checker) Metrics() *Metrics {
	if c.finished {
		return c.m
	}
	c.finished = true
	for ti, tm := range c.per {
		tm.Unfinished += c.jobs[ti].unfinished
		tm.Misses += c.jobs[ti].missed
	}
	settle := func(s *jobState) {
		if s.ti < 0 || !s.used || !s.released || s.done || s.missed {
			return
		}
		tm := c.per[s.ti]
		tm.Unfinished++
		if s.rel+c.info[s.ti].Deadline <= c.horizon {
			tm.Misses++
		}
	}
	for ti := range c.jobs {
		tj := &c.jobs[ti]
		for i := 0; i < tj.n; i++ {
			settle(&tj.ring[(tj.head+i)&(len(tj.ring)-1)])
		}
	}
	for _, s := range c.far {
		settle(s)
	}
	return c.m
}
