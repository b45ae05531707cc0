// Package metrics is a lightweight, allocation-free run-level metrics
// registry for the RT-MDM stack: named counters, gauges and fixed-bucket
// histograms that the sim kernel, executor, design-space explorer and
// experiment harness update on their hot paths.
//
// # Zero cost when off
//
// Every mutating method is safe on a nil receiver and does nothing there.
// Instrumented packages hold nil metric pointers until an explicit
// Instrument call wires them to a Registry, so disabled runs pay one
// predictable nil-check branch per instrumentation point — no allocation,
// no atomic traffic, no lock. This is the property the repo's alloc-budget
// tests pin (see docs/OBSERVABILITY.md).
//
// # Determinism
//
// Snapshot returns samples sorted by metric name, independent of
// registration or update order, so snapshots diff cleanly and serialize
// byte-identically across runs. All updates are atomic: the registry is
// safe for the parallel sweep workers in internal/expr and internal/dse.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing accumulator. The nil Counter
// discards updates.
type Counter struct {
	v    atomic.Int64
	name string
}

// Add increments the counter by d (no-op on nil).
//
//rtmdm:hotpath
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric with a monotonic-max helper for high-water
// marks. The nil Gauge discards updates.
type Gauge struct {
	v    atomic.Int64
	name string
}

// Set stores v (no-op on nil).
//
//rtmdm:hotpath
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (no-op on nil).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// SetMax raises the gauge to v if v exceeds the current value (no-op on
// nil). It is the high-water-mark primitive: lock-free and monotonic.
//
//rtmdm:hotpath
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (zero on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets defined at registration
// by strictly increasing upper bounds; one implicit overflow bucket catches
// everything above the last bound. Observe is allocation-free. The nil
// Histogram discards observations.
type Histogram struct {
	name   string
	bounds []int64        // upper bounds, strictly increasing
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Int64
}

// Observe records one value (no-op on nil).
//
//rtmdm:hotpath
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~16) and the early bounds
	// are the common case, so this beats binary search in practice.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// kind discriminates sample types in snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// entry is one registered metric with its metadata.
type entry struct {
	name string
	kind string
	unit string
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named metrics. The zero value is not ready; construct
// with NewRegistry. Registration is idempotent by (name, kind): asking for
// an existing metric returns the same instance, so several subsystems can
// share one registry without coordination.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

func (r *Registry) lookup(name, kind, unit, help string) *entry {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, kind: kind, unit: unit, help: help}
	r.entries[name] = e
	return e
}

// Counter registers (or finds) a counter. unit is a free-form annotation
// ("events", "ns", "bytes"); help is a one-line meaning.
func (r *Registry) Counter(name, unit, help string) *Counter {
	e := r.lookup(name, KindCounter, unit, help)
	if e.c == nil {
		e.c = &Counter{name: name}
	}
	return e.c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, unit, help string) *Gauge {
	e := r.lookup(name, KindGauge, unit, help)
	if e.g == nil {
		e.g = &Gauge{name: name}
	}
	return e.g
}

// Histogram registers (or finds) a histogram with the given strictly
// increasing upper bounds. Bounds are fixed at first registration; a
// second registration under the same name returns the original histogram
// regardless of the bounds argument.
func (r *Registry) Histogram(name, unit, help string, bounds []int64) *Histogram {
	e := r.lookup(name, KindHistogram, unit, help)
	if e.h == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: %q bounds not strictly increasing at %d", name, i))
			}
		}
		e.h = &Histogram{
			name:   name,
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}
	return e.h
}

// Bucket is one histogram bucket in a snapshot. Le is the inclusive upper
// bound; the overflow bucket reports Le = math.MaxInt64.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Sample is one metric's state at snapshot time.
type Sample struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Unit string `json:"unit,omitempty"`
	Help string `json:"help,omitempty"`
	// Value is the counter/gauge value; for histograms, the total
	// observation count.
	Value int64 `json:"value"`
	// Sum is the sum of observed values (histograms only).
	Sum     int64    `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every registered metric, sorted by
// name — deterministic regardless of registration or update order.
type Snapshot struct {
	Samples []Sample `json:"metrics"`
}

// Snapshot captures the registry. Concurrent updates may land on either
// side of the capture; each individual metric is read atomically.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	s := Snapshot{Samples: make([]Sample, 0, len(entries))}
	for _, e := range entries {
		sm := Sample{Name: e.name, Kind: e.kind, Unit: e.unit, Help: e.help}
		switch e.kind {
		case KindCounter:
			sm.Value = e.c.Value()
		case KindGauge:
			sm.Value = e.g.Value()
		case KindHistogram:
			sm.Buckets = make([]Bucket, len(e.h.counts))
			for i := range e.h.counts {
				le := int64(math.MaxInt64)
				if i < len(e.h.bounds) {
					le = e.h.bounds[i]
				}
				n := e.h.counts[i].Load()
				sm.Buckets[i] = Bucket{Le: le, Count: n}
				sm.Value += n
			}
			sm.Sum = e.h.sum.Load()
		}
		s.Samples = append(s.Samples, sm)
	}
	return s
}

// Get returns the sample with the given name.
func (s Snapshot) Get(name string) (Sample, bool) {
	for _, sm := range s.Samples {
		if sm.Name == name {
			return sm, true
		}
	}
	return Sample{}, false
}

// Diff returns this snapshot relative to an earlier base: counter values,
// histogram counts and sums subtract (a metric absent from base diffs
// against zero); gauges keep their current value, since a last-value or
// high-water metric has no meaningful delta.
func (s Snapshot) Diff(base Snapshot) Snapshot {
	prev := map[string]Sample{}
	for _, sm := range base.Samples {
		prev[sm.Name] = sm
	}
	out := Snapshot{Samples: make([]Sample, len(s.Samples))}
	for i, sm := range s.Samples {
		d := sm
		if p, ok := prev[sm.Name]; ok && sm.Kind != KindGauge {
			d.Value -= p.Value
			d.Sum -= p.Sum
			if len(p.Buckets) == len(d.Buckets) {
				d.Buckets = make([]Bucket, len(sm.Buckets))
				for j, b := range sm.Buckets {
					d.Buckets[j] = Bucket{Le: b.Le, Count: b.Count - p.Buckets[j].Count}
				}
			}
		}
		out.Samples[i] = d
	}
	return out
}

// WriteJSON serializes the snapshot as indented JSON. Output is
// byte-deterministic for a given snapshot.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
