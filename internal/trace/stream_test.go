package trace

import (
	"strings"
	"testing"

	"rtmdm/internal/sim"
)

// streamErr feeds tr's events to a streaming checker and returns its
// verdict and the index of the first event it rejected (-1 when none).
func streamErr(tr *Trace, infos []TaskInfo, horizon sim.Time) (*Checker, error, int) {
	c := NewChecker(infos, horizon)
	first := -1
	for i, e := range tr.Events {
		c.Observe(e)
		if first < 0 && c.Err() != nil {
			first = i
		}
	}
	return c, c.Err(), first
}

// checkBoth runs CheckInvariants and the streaming checker over tr,
// fails the test unless they return the same error, and returns it.
func checkBoth(t *testing.T, tr *Trace, infos []TaskInfo) error {
	t.Helper()
	want := tr.CheckInvariants(infos)
	_, got, _ := streamErr(tr, infos, 1<<40)
	if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
		t.Fatalf("streaming checker: %v; CheckInvariants: %v", got, want)
	}
	return want
}

// checkVerdict runs both checkers over tr, fails the test unless they
// reject the same first event (or both accept), and returns
// CheckInvariants' error. Unlike checkBoth it admits a different message:
// an event naming a retired job may fail on another of its rules.
func checkVerdict(t *testing.T, tr *Trace, infos []TaskInfo) error {
	t.Helper()
	want := firstFailure(tr, infos)
	_, err, got := streamErr(tr, infos, 1<<40)
	if got != want {
		t.Fatalf("streaming checker first fails at event %d (%v); CheckInvariants at %d", got, err, want)
	}
	return tr.CheckInvariants(infos)
}

// firstFailure is the index of the event at which CheckInvariants first
// fails, or -1. A prefix fails exactly when it contains that event, so
// the index is found by bisection.
func firstFailure(tr *Trace, infos []TaskInfo) int {
	if tr.CheckInvariants(infos) == nil {
		return -1
	}
	lo, hi := 1, len(tr.Events) // the shortest failing prefix is in [lo, hi]
	for lo < hi {
		mid := (lo + hi) / 2
		if (&Trace{Events: tr.Events[:mid]}).CheckInvariants(infos) != nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

// fuzzInfos are the two tasks FuzzStreamMatchesPostHoc decodes events
// over (a third, unknown task name is decoded too).
var fuzzInfos = []TaskInfo{
	ti("a", 100, 100, 2),
	{Name: "b", Period: 50, Deadline: 40, Offset: 10, Jitter: 5, Segments: 1},
}

// decodeEvents turns fuzz bytes into a time-ordered event sequence, four
// bytes per event: kind (every Kind plus one past the last), time step,
// task (a, b or an unknown name) with a payload flag, and job and
// segment indices that reach below zero and past the last segment.
func decodeEvents(data []byte) *Trace {
	names := [...]string{"a", "b", "zz"}
	tr := &Trace{}
	var at sim.Time
	for ; len(data) >= 4; data = data[4:] {
		at += sim.Time(data[1])
		var bytes int64
		if data[2]&0x80 != 0 {
			bytes = 100
		}
		tr.Add(Event{
			At:      at,
			Kind:    Kind(data[0] % 11),
			Task:    names[int(data[2]&0x7f)%len(names)],
			Job:     int(data[3]&7) - 1,
			Segment: int(data[3]>>3&7) - 2,
			Bytes:   bytes,
		})
	}
	return tr
}

// encodeEvents is decodeEvents' inverse for seeds.
func encodeEvents(tr *Trace) []byte {
	var out []byte
	var at sim.Time
	for _, e := range tr.Events {
		task := byte(2)
		for i, ti := range fuzzInfos {
			if ti.Name == e.Task {
				task = byte(i)
			}
		}
		if e.Bytes != 0 {
			task |= 0x80
		}
		out = append(out, byte(e.Kind), byte(e.At-at), task, byte(e.Job+1)|byte(e.Segment+2)<<3)
		at = e.At
	}
	return out
}

// retiredCases are event sequences that name a job again after the
// streaming checker has retired it: task b's job 0 completes (or is
// aborted, or is never released), time moves on, and a later event names
// it. Each is judged against CheckInvariants and seeds the fuzzer.
func retiredCases() map[string]*Trace {
	ev := func(at sim.Time, k Kind, job, seg int, bytes int64) Event {
		return Event{At: at, Kind: k, Task: "b", Job: job, Segment: seg, Bytes: bytes}
	}
	done := []Event{
		ev(10, Release, 0, -1, 0),
		ev(10, LoadStart, 0, 0, 100),
		ev(11, LoadEnd, 0, 0, 100),
		ev(11, ComputeStart, 0, 0, 0),
		ev(12, ComputeEnd, 0, 0, 0),
		ev(12, JobDone, 0, -1, 0),
	}
	aborted := []Event{
		ev(10, Release, 0, -1, 0),
		ev(50, DeadlineMiss, 0, -1, 0),
		ev(50, Abort, 0, -1, 0),
	}
	cases := map[string][]Event{
		"repeated job-done at the same instant": append(done, ev(12, JobDone, 0, -1, 0), ev(20, LoadStart, 0, 0, 0)),
		"job-done after time moved on":          append(done, ev(13, JobDone, 0, -1, 0)),
		"re-release then overrun":               append(done, ev(13, Release, 0, -1, 0), ev(13, Overrun, 0, 0, 7)),
		"re-release then deadline miss":         append(done, ev(13, Release, 0, -1, 0), ev(53, DeadlineMiss, 0, -1, 0)),
		"re-release then abort":                 append(done, ev(13, Release, 0, -1, 0), ev(53, Abort, 0, -1, 0)),
		"first segment computed again":          append(done, ev(13, LoadEnd, 0, 0, 0), ev(13, ComputeStart, 0, 0, 0)),
		"segment past the last computed":        append(done, ev(13, LoadEnd, 0, 1, 0), ev(13, ComputeStart, 0, 1, 0), ev(14, ComputeEnd, 0, 1, 0), ev(15, Release, 1, -1, 0)),
		"past-the-last load before job-done":    append(append([]Event{}, done[:5]...), ev(12, LoadEnd, 0, 1, 0), done[5], ev(13, ComputeStart, 0, 1, 0)),
		"aborted job named again":               append(aborted, ev(51, LoadStart, 0, 0, 0)),
		"aborted without a miss event":          {ev(10, Release, 0, -1, 0), ev(50, Abort, 0, -1, 0), ev(60, Release, 1, -1, 0)},
		"aborted job's next job runs":           append(aborted, ev(60, Release, 1, -1, 0), ev(61, LoadEnd, 1, 0, 0), ev(61, ComputeStart, 1, 0, 0)),
		"never-released job runs later":         {ev(60, Release, 1, -1, 0), ev(61, LoadEnd, 0, 0, 0), ev(61, ComputeStart, 0, 0, 0), ev(62, ComputeEnd, 0, 0, 0), ev(62, JobDone, 0, -1, 0)},
	}
	out := map[string]*Trace{}
	for name, evs := range cases {
		out[name] = &Trace{Events: evs}
	}
	return out
}

func TestRetiredJobsJudgedLikePostHoc(t *testing.T) {
	for name, tr := range retiredCases() {
		t.Run(name, func(t *testing.T) {
			checkVerdict(t, tr, fuzzInfos)
			if tr.CheckInvariants(fuzzInfos) != nil {
				return
			}
			horizon := tr.Events[len(tr.Events)-1].At + 50
			c, _, _ := streamErr(tr, fuzzInfos, horizon)
			if d := MetricsDiff(tr.AnalyzeReference(fuzzInfos, horizon), c.Metrics()); d != "" {
				t.Fatalf("streamed metrics: %s", d)
			}
		})
	}
}

// FuzzStreamMatchesPostHoc requires the streaming checker to reach
// CheckInvariants' verdict on any event sequence over two tasks: both
// accept, or both reject at the same first event. When both accept, the
// streamed metrics must equal the reference Analyze and its replay. The
// sequences are time-ordered: a streaming checker panics on time running
// backwards, by design.
func FuzzStreamMatchesPostHoc(f *testing.F) {
	f.Add(encodeEvents(goodTrace()))
	// A job that misses, is aborted, and is named again afterwards.
	f.Add([]byte{
		byte(Release), 0, 0, 1 | 1<<3,
		byte(LoadStart), 0, 0x80, 1 | 2<<3,
		byte(DeadlineMiss), 100, 0, 1 | 1<<3,
		byte(Abort), 0, 0, 1 | 1<<3,
		byte(Release), 0, 0, 2 | 1<<3,
		byte(LoadEnd), 1, 0, 1 | 2<<3,
	})
	// Task b: jittered release, completion, then a repeated job-done.
	f.Add([]byte{
		byte(Release), 12, 1, 1 | 1<<3,
		byte(LoadStart), 0, 1, 1 | 2<<3,
		byte(LoadEnd), 0, 1, 1 | 2<<3,
		byte(ComputeStart), 1, 1, 1 | 2<<3,
		byte(ComputeEnd), 5, 1, 1 | 2<<3,
		byte(JobDone), 0, 1, 1 | 1<<3,
		byte(JobDone), 0, 1, 1 | 1<<3,
		byte(Release), 50, 1, 2 | 1<<3,
		byte(Overrun), 0, 1, 1 | 2<<3,
	})
	for _, tr := range retiredCases() {
		f.Add(encodeEvents(tr))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := decodeEvents(data)
		horizon := sim.Time(50)
		if n := len(tr.Events); n > 0 {
			horizon += tr.Events[n-1].At
		}
		want := firstFailure(tr, fuzzInfos)
		c, err, got := streamErr(tr, fuzzInfos, horizon)
		if (err == nil) != (want < 0) || got != want {
			t.Fatalf("streaming checker first fails at event %d (%v); CheckInvariants at %d (%v)",
				got, err, want, tr.CheckInvariants(fuzzInfos))
		}
		if err != nil {
			return
		}
		ref := tr.AnalyzeReference(fuzzInfos, horizon)
		if d := MetricsDiff(ref, c.Metrics()); d != "" {
			t.Fatalf("streamed metrics: %s", d)
		}
		if d := MetricsDiff(ref, tr.Analyze(fuzzInfos, horizon)); d != "" {
			t.Fatalf("replayed metrics: %s", d)
		}
	})
}

// TestCheckerStateBounded runs a 10k-job periodic stream through a
// streaming checker and requires its job window to stay at the jobs in
// flight: finished jobs retire instead of accumulating.
func TestCheckerStateBounded(t *testing.T) {
	infos := []TaskInfo{ti("a", 100, 100, 2)}
	c := NewChecker(infos, 10_000*100)
	for k := 0; k < 10_000; k++ {
		base := sim.Time(k * 100)
		for _, e := range goodTrace().Events[:10] {
			e.At += base
			e.Job = k
			c.Observe(e)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	tj := &c.jobs[0]
	if len(tj.ring) > 4 || c.far != nil || len(tj.retired) != 1 {
		t.Fatalf("state grew: ring %d slots, far %v, %d retired runs", len(tj.ring), c.far != nil, len(tj.retired))
	}
	if tm := c.Metrics().PerTask["a"]; tm.Completed != 10_000 || tm.Misses != 0 || tm.Unfinished != 0 {
		t.Fatalf("metrics %+v", *tm)
	}
}

func TestCheckerRejectsTimeTravel(t *testing.T) {
	c := NewChecker(nil, 100)
	c.Observe(Event{At: 10, Kind: Release, Task: "a"})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "time went backwards") {
			t.Fatalf("backwards timestamp: recovered %v", r)
		}
	}()
	c.Observe(Event{At: 5, Kind: Release, Task: "a"})
}
