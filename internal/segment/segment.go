// Package segment partitions a DNN model into SRAM-feasible execution
// segments: units whose parameters are staged from external memory into an
// on-chip buffer before their layers execute. Segments are the scheduling
// granule of RT-MDM — preemption happens only at segment boundaries, and
// the prefetch pipeline overlaps segment k+1's parameter load with segment
// k's compute.
package segment

import (
	"fmt"
	"math"

	"rtmdm/internal/cost"
	"rtmdm/internal/nn"
)

// Part is a (possibly fractional) slice of one model node inside a segment.
// Layers whose parameters exceed the staging budget are split along their
// output-channel dimension into Num/Den fractions; parameter bytes, MACs
// and cycles scale proportionally. Whole layers have Num == Den == 1.
type Part struct {
	Node     int
	Num, Den int64
}

// Whole reports whether the part covers its full layer.
func (p Part) Whole() bool { return p.Num == p.Den }

// Segment is one staged execution unit.
type Segment struct {
	Index int
	Parts []Part
	// LoadBytes is the parameter volume staged before the segment runs.
	LoadBytes int64
	// ComputeCycles is the CPU cost of the segment's layers.
	ComputeCycles int64
	// ComputeNs is ComputeCycles at the plan's CPU clock.
	ComputeNs int64
	// LoadNs is the DMA time for LoadBytes on the plan's external memory
	// (zero when LoadBytes is zero: no transfer is issued).
	LoadNs int64
	// ResidentBytes is the activation state a preempted job holds in SRAM
	// while paused at this segment's *end* boundary (zero for the final
	// segment: the job is complete).
	ResidentBytes int64
}

// Policy selects the packing strategy.
type Policy int

const (
	// Greedy packs consecutive layers into a segment until the staging
	// budget would be exceeded, splitting oversized layers.
	Greedy Policy = iota
	// PerLayer emits one segment per weighted layer (parameter-free
	// layers ride along with their predecessor), still splitting layers
	// that exceed the budget.
	PerLayer
)

func (p Policy) String() string {
	if p == PerLayer {
		return "per-layer"
	}
	return "greedy"
}

// Plan is a complete segmentation of one model for one platform.
type Plan struct {
	Model    *nn.Model
	Platform cost.Platform
	Policy   Policy
	// BudgetBytes is the per-segment staging limit the plan was built for.
	BudgetBytes int64
	Segments    []Segment
	// peakAct is Model.PeakActivationBytes(), computed once by BuildLimits
	// so dispatch and provisioning checks only read it.
	peakAct int64
}

// PeakActivationBytes returns the model's peak live activation bytes
// (nn.Model.PeakActivationBytes), computed when the plan was built; 0 for
// plans without a model.
func (pl *Plan) PeakActivationBytes() int64 { return pl.peakAct }

// Limits bounds a segment along both axes: staged parameter bytes (SRAM
// feasibility) and compute time (non-preemptive region length — the
// preemption granularity δ of the framework). ComputeNs == 0 means
// unbounded compute.
type Limits struct {
	Bytes     int64
	ComputeNs int64
}

// Build segments a model with a byte budget only (unbounded compute). The
// budget is typically Platform.WeightBufBytes divided across tasks and
// pipeline buffer depths, so that all staged segments coexist in SRAM.
func Build(m *nn.Model, p cost.Platform, budgetBytes int64, policy Policy) (*Plan, error) {
	return BuildLimits(m, p, Limits{Bytes: budgetBytes}, policy)
}

// BuildLimits segments a model subject to both the staging byte budget and
// the non-preemptive compute bound. Weighted layers exceeding either limit
// split along their output-channel dimension. Parameter-free operators
// whose standalone cost exceeds the compute bound keep their own segment
// (the bound is soft for them); the resulting plan's MaxComputeNs reports
// the achieved granularity, which the analyses use directly.
func BuildLimits(m *nn.Model, p cost.Platform, lim Limits, policy Policy) (*Plan, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if lim.Bytes <= 0 {
		return nil, fmt.Errorf("segment: non-positive budget %d", lim.Bytes)
	}
	if lim.ComputeNs < 0 {
		return nil, fmt.Errorf("segment: negative compute bound %d", lim.ComputeNs)
	}
	budgetBytes := lim.Bytes
	// Convert the compute bound to cycles once; 0 means unbounded.
	var budgetCycles int64
	if lim.ComputeNs > 0 {
		budgetCycles = int64(float64(lim.ComputeNs) / 1e9 * float64(p.CPU.Hz))
		if budgetCycles < 1 {
			budgetCycles = 1
		}
	}
	pl := &Plan{Model: m, Platform: p, Policy: policy, BudgetBytes: budgetBytes}

	var cur Segment
	flush := func() {
		if len(cur.Parts) == 0 {
			return
		}
		cur.Index = len(pl.Segments)
		pl.Segments = append(pl.Segments, cur)
		cur = Segment{}
	}
	addPart := func(node int, num, den, bytes, cycles int64) {
		cur.Parts = append(cur.Parts, Part{Node: node, Num: num, Den: den})
		cur.LoadBytes += bytes
		cur.ComputeCycles += cycles
	}

	overCycles := func(c int64) bool { return budgetCycles > 0 && c > budgetCycles }
	for i, nd := range m.Nodes {
		l := nd.Layer
		bytes := l.ParamBytes()
		cycles := p.CPU.LayerCycles(l)
		oversized := bytes > budgetBytes || (overCycles(cycles) && splittable(l.Kind()))
		switch {
		case oversized:
			// Oversized layer (by either axis): emit the current segment,
			// then split the layer into equal fractions within both
			// limits.
			if !splittable(l.Kind()) {
				return nil, fmt.Errorf(
					"segment: layer %s (%s, %d B) exceeds budget %d B and kind is not splittable",
					l.Name(), l.Kind(), bytes, budgetBytes)
			}
			flush()
			pieces := (bytes + budgetBytes - 1) / budgetBytes
			if budgetCycles > 0 {
				if cp := (cycles + budgetCycles - 1) / budgetCycles; cp > pieces {
					pieces = cp
				}
			}
			for k := int64(0); k < pieces; k++ {
				pb := share(bytes, k, pieces)
				pc := share(cycles, k, pieces)
				addPart(i, 1, pieces, pb, pc)
				if k < pieces-1 {
					flush()
				}
			}
			if policy == PerLayer {
				// Keep the tail fraction as its own segment boundary
				// candidate: next weighted layer starts fresh.
				continue
			}
		case bytes == 0:
			// Parameter-free layers ride with the current segment, unless
			// that would breach the compute bound; then they open a fresh
			// (zero-load) segment.
			if overCycles(cur.ComputeCycles + cycles) {
				flush()
			}
			addPart(i, 1, 1, 0, cycles)
		case policy == PerLayer:
			flush()
			addPart(i, 1, 1, bytes, cycles)
		default: // Greedy
			if cur.LoadBytes+bytes > budgetBytes || overCycles(cur.ComputeCycles+cycles) {
				flush()
			}
			addPart(i, 1, 1, bytes, cycles)
		}
	}
	flush()

	if len(pl.Segments) == 0 {
		return nil, fmt.Errorf("segment: model %s produced no segments", m.Name)
	}
	liveAfter, liveDuring := m.Liveness()
	for i := range pl.Segments {
		s := &pl.Segments[i]
		s.ComputeNs = p.CPU.CyclesToNs(s.ComputeCycles)
		s.LoadNs = p.Mem.TransferNs(s.LoadBytes)
		if i == len(pl.Segments)-1 {
			continue // job done at the final boundary: nothing resident
		}
		last := s.Parts[len(s.Parts)-1]
		if last.Whole() {
			s.ResidentBytes = liveAfter[last.Node]
		} else {
			// A mid-layer boundary keeps the layer's input and its
			// partially-written output resident.
			s.ResidentBytes = liveDuring[last.Node]
		}
	}
	pl.peakAct = m.PeakActivationBytes()
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return pl, nil
}

// share splits total into `pieces` near-equal integer shares; piece k gets
// share(total,k,pieces) and the shares sum exactly to total.
func share(total, k, pieces int64) int64 {
	return total*(k+1)/pieces - total*k/pieces
}

// splittable reports whether a layer kind supports output-channel splitting.
func splittable(k nn.Kind) bool {
	switch k {
	case nn.KindConv2D, nn.KindDWConv2D, nn.KindDense:
		return true
	}
	return false
}

// Validate checks the plan's structural invariants: the parts cover every
// node exactly once (fractions summing to 1), in order, with conserved
// bytes and cycles, and every segment within budget.
func (pl *Plan) Validate() error {
	covered := make(map[int]float64, len(pl.Model.Nodes))
	prevNode := -1
	var bytes, cycles int64
	for _, s := range pl.Segments {
		if s.LoadBytes > pl.BudgetBytes {
			return fmt.Errorf("segment: segment %d load %d exceeds budget %d",
				s.Index, s.LoadBytes, pl.BudgetBytes)
		}
		if len(s.Parts) == 0 {
			return fmt.Errorf("segment: segment %d is empty", s.Index)
		}
		for _, p := range s.Parts {
			if p.Node < prevNode {
				return fmt.Errorf("segment: node order violated at node %d", p.Node)
			}
			prevNode = p.Node
			covered[p.Node] += float64(p.Num) / float64(p.Den)
		}
		bytes += s.LoadBytes
		cycles += s.ComputeCycles
	}
	for i, nd := range pl.Model.Nodes {
		c := covered[i]
		if math.Abs(c-1) > 1e-9 {
			return fmt.Errorf("segment: node %d (%s) covered %.4f times",
				i, nd.Layer.Name(), c)
		}
	}
	if bytes != pl.Model.TotalParamBytes() {
		return fmt.Errorf("segment: load bytes %d != model param bytes %d",
			bytes, pl.Model.TotalParamBytes())
	}
	var wantCycles int64
	for _, nd := range pl.Model.Nodes {
		wantCycles += pl.Platform.CPU.LayerCycles(nd.Layer)
	}
	if cycles != wantCycles {
		return fmt.Errorf("segment: cycles %d != model cycles %d", cycles, wantCycles)
	}
	return nil
}

// NumSegments returns the segment count.
func (pl *Plan) NumSegments() int { return len(pl.Segments) }

// TotalLoadNs sums per-segment DMA times (each paying its own setup cost).
func (pl *Plan) TotalLoadNs() int64 {
	var n int64
	for _, s := range pl.Segments {
		n += s.LoadNs
	}
	return n
}

// TotalComputeNs sums per-segment CPU times.
func (pl *Plan) TotalComputeNs() int64 {
	var n int64
	for _, s := range pl.Segments {
		n += s.ComputeNs
	}
	return n
}

// MaxLoadBytes returns the largest per-segment staging requirement.
func (pl *Plan) MaxLoadBytes() int64 {
	var m int64
	for _, s := range pl.Segments {
		if s.LoadBytes > m {
			m = s.LoadBytes
		}
	}
	return m
}

// MaxComputeNs returns the largest per-segment compute time — the
// non-preemptive CPU region length that enters blocking analysis.
func (pl *Plan) MaxComputeNs() int64 {
	var m int64
	for _, s := range pl.Segments {
		if s.ComputeNs > m {
			m = s.ComputeNs
		}
	}
	return m
}

// MaxLoadNs returns the largest per-segment DMA time — the non-preemptive
// DMA region length that enters blocking analysis.
func (pl *Plan) MaxLoadNs() int64 {
	var m int64
	for _, s := range pl.Segments {
		if s.LoadNs > m {
			m = s.LoadNs
		}
	}
	return m
}

// ChunkedLoadNs returns the DMA time for `bytes` when transfers are issued
// in chunks of at most chunkBytes (each paying the per-transfer setup).
// chunkBytes ≤ 0 means a single transfer.
func ChunkedLoadNs(mem cost.MemProfile, bytes, chunkBytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	if chunkBytes <= 0 || bytes <= chunkBytes {
		return mem.TransferNs(bytes)
	}
	full := bytes / chunkBytes
	rem := bytes % chunkBytes
	ns := full * mem.TransferNs(chunkBytes) //lint:allow millitime -- chunk count and per-chunk ns both bounded by validated model sizes; product << 2^63
	if rem > 0 {
		ns += mem.TransferNs(rem)
	}
	return ns
}

// Chunked returns a copy of the plan whose per-segment LoadNs reflects
// chunked DMA issuing: every transfer is at most chunkBytes long, so the
// non-preemptive DMA region shrinks to one chunk at the price of one setup
// per chunk. chunkBytes ≤ 0 returns the receiver unchanged.
func (pl *Plan) Chunked(chunkBytes int64) *Plan {
	if chunkBytes <= 0 {
		return pl
	}
	out := *pl
	out.Segments = append([]Segment(nil), pl.Segments...)
	for i := range out.Segments {
		s := &out.Segments[i]
		s.LoadNs = ChunkedLoadNs(pl.Platform.Mem, s.LoadBytes, chunkBytes)
	}
	return &out
}

// MaxChunkNs returns the longest single DMA transfer of the plan under
// chunking: the non-preemptive DMA region length that enters blocking
// analysis.
func (pl *Plan) MaxChunkNs(chunkBytes int64) int64 {
	var m int64
	for _, s := range pl.Segments {
		b := s.LoadBytes
		if chunkBytes > 0 && b > chunkBytes {
			b = chunkBytes
		}
		if ns := pl.Platform.Mem.TransferNs(b); ns > m {
			m = ns
		}
	}
	return m
}

// MaxResidentBytes returns the largest activation state a preempted job of
// this plan can hold at any segment boundary.
func (pl *Plan) MaxResidentBytes() int64 {
	var m int64
	for _, s := range pl.Segments {
		if s.ResidentBytes > m {
			m = s.ResidentBytes
		}
	}
	return m
}

// SerialNs is the job length when loads and computes strictly alternate
// with no overlap (the load-then-compute baseline).
func (pl *Plan) SerialNs() int64 { return pl.TotalLoadNs() + pl.TotalComputeNs() }

// PipelineNs is the job length under in-order prefetch with the given
// buffer depth: the DMA may run at most `depth-1` segments ahead of the
// CPU (depth ≥ 2 enables overlap; depth 1 degenerates to serial). It is
// the exact makespan of the two-stage in-order pipeline recurrence:
//
//	loadDone[j] = max(loadDone[j-1], compDone[j-depth]) + L[j]
//	compDone[j] = max(compDone[j-1], loadDone[j]) + C[j]
func (pl *Plan) PipelineNs(depth int) int64 {
	return pl.PipelineNsWith(depth, 0, 0, 1, 1, 1, 1)
}

// PipelineNsWith is PipelineNs with analysis hooks: every load is inflated
// by extraLoadNs (per-segment blocking on the DMA), every compute by
// extraCompNs (context-switch overhead), and load/compute stage times are
// scaled by the rational factors loadNum/loadDen and compNum/compDen (≥ 1
// slowdowns for worst-case bus contention).
func (pl *Plan) PipelineNsWith(depth int, extraLoadNs, extraCompNs, loadDen, loadNum, compDen, compNum int64) int64 {
	if depth < 1 {
		panic(fmt.Sprintf("segment: pipeline depth %d", depth))
	}
	// compDone[j] depends on compDone[j-1] and compDone[j-depth] only, so
	// a ring of the last `depth` completions replaces the per-segment
	// arrays; slot j%depth holds compDone[j-depth] until step j overwrites
	// it (unwritten slots are the zero of compDone[≤0]).
	var stack [16]int64
	ring := stack[:]
	if depth > len(stack) {
		ring = make([]int64, depth)
	} else {
		ring = ring[:depth]
	}
	scale := func(v, den, num int64) int64 {
		if den == num {
			return v
		}
		return (v*den + num - 1) / num
	}
	var loadDone, compDone int64
	for j, s := range pl.Segments {
		load := scale(s.LoadNs, loadDen, loadNum)
		if s.LoadNs > 0 {
			// Zero-byte segments never visit the DMA and are staged the
			// instant the dispatcher reaches them, so per-load blocking
			// only applies to real transfers.
			load += extraLoadNs
		}
		slot := &ring[(j+1)%depth]
		loadDone = max(loadDone, *slot) + load
		compDone = max(compDone, loadDone) + scale(s.ComputeNs, compDen, compNum) + extraCompNs
		*slot = compDone
	}
	return compDone
}
