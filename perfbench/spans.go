package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// recorder keeps wall-clock spans in memory for the traced run. A nil
// *recorder records nothing, so untraced runs pay one nil check per
// boundary and nothing else.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for roots); Req groups the spans of one request or
// one unit of work.
type span struct {
	Name   string
	Start  int64 // ns since the recorder's origin
	End    int64
	Parent int
	Req    uint64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// traceDir receives the traced runs' trace-event files, relative to the
// working directory.
const traceDir = ".bench_build/traces"

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int, req uint64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far; a span still
// open has End -1. Indices match the ids begin returned, so Parent
// links stay valid.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// count returns the number of spans recorded so far: the id the next
// span will get.
func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// spanStat aggregates the spans of one name: count, total duration and
// total self time (duration minus the part covered by child spans).
type spanStat struct {
	N       int
	TotalNs int64
	SelfNs  int64
}

func (s spanStat) meanMs() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.N) / 1e6
}

func (s spanStat) meanSelfMs() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.SelfNs) / float64(s.N) / 1e6
}

// selfTimes returns each closed span's self time: its duration minus
// the union of its closed children's intervals clipped to its own.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.End >= 0 && s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End >= 0 {
			self[i] = s.End - s.Start - covered(spans, kids[i], s.Start, s.End)
		}
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range iv {
		if v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// aggregate folds the closed spans with ids from `from` on into per-name
// statistics.
func aggregate(spans []span, from int) map[string]spanStat {
	self := selfTimes(spans)
	out := map[string]spanStat{}
	for i := from; i < len(spans); i++ {
		s := spans[i]
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		st.N++
		st.TotalNs += s.End - s.Start
		st.SelfNs += self[i]
		out[s.Name] = st
	}
	return out
}

// writePerfetto writes the spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly. Each
// request or unit of work gets its own track, so nested spans stack.
func writePerfetto(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type args struct {
		ID     int    `json:"id"`
		Parent int    `json:"parent"`
		Req    uint64 `json:"req"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  uint64  `json:"tid"`
		Args args    `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	first := true
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		if err := enc.Encode(event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Req,
			Args: args{ID: i, Parent: s.Parent, Req: s.Req}}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
