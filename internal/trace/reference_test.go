package trace

import (
	"fmt"
	"reflect"
	"sort"

	"rtmdm/internal/sim"
)

// AnalyzeReference is the map-based Analyze the executor used before
// metrics were streamed through Checker, kept verbatim as the reference
// the streaming accumulator is compared against.
func (tr *Trace) AnalyzeReference(tasks []TaskInfo, horizon sim.Time) *Metrics {
	m := &Metrics{Horizon: horizon, PerTask: map[string]*TaskMetrics{}}
	info := map[string]TaskInfo{}
	for _, ti := range tasks {
		m.PerTask[ti.Name] = &TaskMetrics{MaxLateness: -1 << 62}
		info[ti.Name] = ti
	}
	type jobKey struct {
		task string
		job  int
	}
	released := map[jobKey]sim.Time{}
	completed := map[jobKey]bool{}
	missed := map[jobKey]bool{}
	for _, e := range tr.Events {
		tm, ok := m.PerTask[e.Task]
		if !ok {
			continue
		}
		k := jobKey{e.Task, e.Job}
		switch e.Kind {
		case Release:
			tm.Released++
			released[k] = e.At
		case JobDone:
			tm.Completed++
			completed[k] = true
			rel, ok := released[k]
			if !ok {
				continue
			}
			resp := e.At - rel
			tm.TotalResponse += resp
			tm.Responses = append(tm.Responses, resp)
			if resp > tm.MaxResponse {
				tm.MaxResponse = resp
			}
			lat := resp - info[e.Task].Deadline
			if lat > tm.MaxLateness {
				tm.MaxLateness = lat
			}
			if lat > 0 && !missed[k] {
				missed[k] = true
				tm.Misses++
			}
		case DeadlineMiss:
			if !missed[k] {
				missed[k] = true
				tm.Misses++
			}
		case Abort:
			tm.Aborted++
		}
	}
	for k, rel := range released {
		if completed[k] || missed[k] {
			continue
		}
		tm := m.PerTask[k.task]
		tm.Unfinished++
		if rel+info[k.task].Deadline <= horizon {
			tm.Misses++
		}
	}
	return m
}

// MetricsDiff describes the first difference between two metric sets, or
// returns "" when they are equal (an empty response series equals a nil
// one).
func MetricsDiff(want, got *Metrics) string {
	if want.Horizon != got.Horizon {
		return fmt.Sprintf("horizon %v, want %v", got.Horizon, want.Horizon)
	}
	if len(want.PerTask) != len(got.PerTask) {
		return fmt.Sprintf("%d tasks, want %d", len(got.PerTask), len(want.PerTask))
	}
	names := make([]string, 0, len(want.PerTask))
	for name := range want.PerTask {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, g := want.PerTask[name], got.PerTask[name]
		if g == nil {
			return fmt.Sprintf("task %q missing", name)
		}
		ws, gs := *w, *g
		ws.Responses, gs.Responses = nil, nil
		if !reflect.DeepEqual(ws, gs) {
			return fmt.Sprintf("task %q: %+v, want %+v", name, gs, ws)
		}
		if len(w.Responses) != len(g.Responses) {
			return fmt.Sprintf("task %q: %d responses, want %d", name, len(g.Responses), len(w.Responses))
		}
		for i := range w.Responses {
			if w.Responses[i] != g.Responses[i] {
				return fmt.Sprintf("task %q: response %d is %v, want %v", name, i, g.Responses[i], w.Responses[i])
			}
		}
	}
	return ""
}
