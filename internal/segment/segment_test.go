package segment

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rtmdm/internal/cost"
	"rtmdm/internal/models"
	"rtmdm/internal/nn"
)

func plat() cost.Platform { return cost.STM32H743 }

func mustBuild(t *testing.T, m *nn.Model, budget int64, pol Policy) *Plan {
	t.Helper()
	pl, err := Build(m, plat(), budget, pol)
	if err != nil {
		t.Fatalf("Build(%s, %d, %v): %v", m.Name, budget, pol, err)
	}
	return pl
}

func TestGreedyRespectsBudgetAndConserves(t *testing.T) {
	for _, info := range models.Catalog() {
		m := info.Build(1)
		for _, budget := range []int64{16 << 10, 32 << 10, 128 << 10} {
			pl, err := Build(m, plat(), budget, Greedy)
			if err != nil {
				t.Fatalf("%s budget %d: %v", m.Name, budget, err)
			}
			// Validate() runs inside Build; re-run explicitly anyway.
			if err := pl.Validate(); err != nil {
				t.Fatalf("%s budget %d: %v", m.Name, budget, err)
			}
		}
	}
}

func TestPerLayerMakesOneSegmentPerWeightedLayer(t *testing.T) {
	m := models.TinyMLP(1) // 3 dense + softmax, all dense fit in 128K
	pl := mustBuild(t, m, 128<<10, PerLayer)
	weighted := 0
	for _, nd := range m.Nodes {
		if nd.Layer.ParamBytes() > 0 {
			weighted++
		}
	}
	if pl.NumSegments() != weighted {
		t.Fatalf("segments = %d, want %d (one per weighted layer)", pl.NumSegments(), weighted)
	}
}

func TestGreedyPacksMoreThanPerLayer(t *testing.T) {
	m := models.MobileNetV1Q25(1)
	g := mustBuild(t, m, 64<<10, Greedy)
	p := mustBuild(t, m, 64<<10, PerLayer)
	if g.NumSegments() > p.NumSegments() {
		t.Fatalf("greedy %d segments > per-layer %d", g.NumSegments(), p.NumSegments())
	}
	if g.NumSegments() == p.NumSegments() {
		t.Fatal("greedy did not pack anything on mobilenet at 64K")
	}
}

func TestOversizedLayerIsSplit(t *testing.T) {
	m := models.Autoencoder(1) // first dense: 640*128 ≈ 82 KB
	pl := mustBuild(t, m, 32<<10, Greedy)
	// Some part must be fractional.
	frac := false
	for _, s := range pl.Segments {
		if s.LoadBytes > 32<<10 {
			t.Fatalf("segment %d load %d exceeds 32K budget", s.Index, s.LoadBytes)
		}
		for _, p := range s.Parts {
			if !p.Whole() {
				frac = true
			}
		}
	}
	if !frac {
		t.Fatal("no fractional parts despite oversized layers")
	}
}

func TestTinyBudgetStillWorksOrErrors(t *testing.T) {
	// At an absurdly small budget every weighted layer splits into many
	// pieces; conservation must still hold.
	m := models.LeNet5(1)
	pl, err := Build(m, plat(), 2<<10, Greedy)
	if err != nil {
		t.Fatalf("2K budget: %v", err)
	}
	if pl.NumSegments() < 30 {
		t.Fatalf("expected heavy splitting, got %d segments", pl.NumSegments())
	}
}

func TestBadInputs(t *testing.T) {
	m := models.TinyMLP(1)
	if _, err := Build(m, plat(), 0, Greedy); err == nil {
		t.Fatal("zero budget accepted")
	}
	badPlat := plat()
	badPlat.SRAMBytes = 0
	if _, err := Build(m, badPlat, 1<<10, Greedy); err == nil {
		t.Fatal("invalid platform accepted")
	}
}

func TestSerialEqualsPipelineDepth1(t *testing.T) {
	for _, info := range models.Catalog() {
		m := info.Build(1)
		pl := mustBuild(t, m, 32<<10, Greedy)
		if pl.PipelineNs(1) != pl.SerialNs() {
			t.Fatalf("%s: depth-1 pipeline %d != serial %d",
				m.Name, pl.PipelineNs(1), pl.SerialNs())
		}
	}
}

// PT-1: pipeline makespan is monotone nonincreasing in depth and bounded
// below by both resource sums.
func TestPropertyPipelineMonotoneAndBounded(t *testing.T) {
	type seg struct{ L, C uint16 }
	f := func(segs []seg) bool {
		if len(segs) == 0 {
			return true
		}
		pl := &Plan{BudgetBytes: 1}
		var sumL, sumC int64
		for i, s := range segs {
			pl.Segments = append(pl.Segments, Segment{
				Index: i, LoadNs: int64(s.L), ComputeNs: int64(s.C),
				Parts: []Part{{Node: i, Num: 1, Den: 1}},
			})
			sumL += int64(s.L)
			sumC += int64(s.C)
		}
		prev := pl.PipelineNs(1)
		if prev != sumL+sumC {
			return false
		}
		for d := 2; d <= 6; d++ {
			cur := pl.PipelineNs(d)
			if cur > prev {
				return false // must not get worse with more buffers
			}
			if cur < sumL || cur < sumC {
				return false // cannot beat either resource's total demand
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineKnownExample(t *testing.T) {
	// Two segments, L=[10,10], C=[10,10].
	// Serial: 40. Depth 2: load1(10) comp1(10..20) || load2(10..20),
	// comp2(20..30) → 30.
	pl := &Plan{Segments: []Segment{
		{Index: 0, LoadNs: 10, ComputeNs: 10, Parts: []Part{{0, 1, 1}}},
		{Index: 1, LoadNs: 10, ComputeNs: 10, Parts: []Part{{1, 1, 1}}},
	}}
	if got := pl.PipelineNs(2); got != 30 {
		t.Fatalf("depth-2 makespan = %d, want 30", got)
	}
	if got := pl.SerialNs(); got != 40 {
		t.Fatalf("serial = %d, want 40", got)
	}
}

func TestPipelineLoadBoundSaturation(t *testing.T) {
	// Load-dominated chain: makespan ≈ ΣL + last C at depth 2.
	pl := &Plan{}
	for i := 0; i < 10; i++ {
		pl.Segments = append(pl.Segments, Segment{
			Index: i, LoadNs: 100, ComputeNs: 10,
			Parts: []Part{{Node: i, Num: 1, Den: 1}},
		})
	}
	if got, want := pl.PipelineNs(2), int64(10*100+10); got != want {
		t.Fatalf("load-bound makespan = %d, want %d", got, want)
	}
}

func TestPipelineComputeBoundSaturation(t *testing.T) {
	// Compute-dominated chain: makespan ≈ first L + ΣC at depth 2.
	pl := &Plan{}
	for i := 0; i < 10; i++ {
		pl.Segments = append(pl.Segments, Segment{
			Index: i, LoadNs: 10, ComputeNs: 100,
			Parts: []Part{{Node: i, Num: 1, Den: 1}},
		})
	}
	if got, want := pl.PipelineNs(2), int64(10+10*100); got != want {
		t.Fatalf("compute-bound makespan = %d, want %d", got, want)
	}
}

func TestMaxAccessors(t *testing.T) {
	pl := &Plan{Segments: []Segment{
		{LoadBytes: 5, LoadNs: 50, ComputeNs: 7},
		{LoadBytes: 9, LoadNs: 20, ComputeNs: 3},
	}}
	if pl.MaxLoadBytes() != 9 || pl.MaxLoadNs() != 50 || pl.MaxComputeNs() != 7 {
		t.Fatalf("max accessors wrong: %d %d %d",
			pl.MaxLoadBytes(), pl.MaxLoadNs(), pl.MaxComputeNs())
	}
	if pl.TotalLoadNs() != 70 || pl.TotalComputeNs() != 10 {
		t.Fatal("totals wrong")
	}
}

func TestShareSumsExactly(t *testing.T) {
	f := func(total uint32, pieces uint8) bool {
		p := int64(pieces%20) + 1
		tot := int64(total)
		var sum int64
		for k := int64(0); k < p; k++ {
			s := share(tot, k, p)
			if s < 0 {
				return false
			}
			sum += s
		}
		return sum == tot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentationDeterministic(t *testing.T) {
	m := models.ResNet8(1)
	a := mustBuild(t, m, 24<<10, Greedy)
	b := mustBuild(t, m, 24<<10, Greedy)
	if a.NumSegments() != b.NumSegments() {
		t.Fatal("segment count differs across identical builds")
	}
	for i := range a.Segments {
		if a.Segments[i].LoadBytes != b.Segments[i].LoadBytes ||
			a.Segments[i].ComputeNs != b.Segments[i].ComputeNs {
			t.Fatalf("segment %d differs across identical builds", i)
		}
	}
}

func TestSmallerBudgetNeverFewerSegments(t *testing.T) {
	m := models.MobileNetV1Q25(1)
	prev := 1 << 30
	for _, budget := range []int64{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		pl := mustBuild(t, m, budget, Greedy)
		if pl.NumSegments() > prev {
			t.Fatalf("larger budget %d produced more segments (%d > %d)",
				budget, pl.NumSegments(), prev)
		}
		prev = pl.NumSegments()
	}
}

func TestChunkedLoadNs(t *testing.T) {
	mem := cost.MemProfile{Name: "m", BandwidthBps: 1_000_000_000, SetupNs: 100}
	// 2500 bytes in 1000-byte chunks: 2 full (1100 each) + 500 (600).
	if got := ChunkedLoadNs(mem, 2500, 1000); got != 2*1100+600 {
		t.Fatalf("ChunkedLoadNs = %d, want 2800", got)
	}
	// No chunking when chunk ≥ bytes or chunk ≤ 0.
	if got := ChunkedLoadNs(mem, 2500, 0); got != 2600 {
		t.Fatalf("unchunked = %d, want 2600", got)
	}
	if got := ChunkedLoadNs(mem, 500, 1000); got != 600 {
		t.Fatalf("small transfer = %d, want 600", got)
	}
	if got := ChunkedLoadNs(mem, 0, 1000); got != 0 {
		t.Fatalf("zero bytes = %d", got)
	}
}

func TestChunkedPlanAndMaxChunk(t *testing.T) {
	p := plat()
	m := models.Autoencoder(1)
	pl := mustBuild(t, m, 64<<10, Greedy)
	const chunk = 8 << 10
	ch := pl.Chunked(chunk)
	// Totals grow (extra setups), per-segment bytes unchanged.
	if ch.TotalLoadNs() <= pl.TotalLoadNs() {
		t.Fatal("chunking did not add setup cost")
	}
	for i := range ch.Segments {
		if ch.Segments[i].LoadBytes != pl.Segments[i].LoadBytes {
			t.Fatal("chunking changed byte accounting")
		}
	}
	// The np DMA region shrinks to one chunk.
	if got, want := pl.MaxChunkNs(chunk), p.Mem.TransferNs(chunk); got != want {
		t.Fatalf("MaxChunkNs = %d, want %d", got, want)
	}
	if pl.MaxChunkNs(0) != pl.MaxLoadNs() {
		t.Fatal("MaxChunkNs(0) != MaxLoadNs")
	}
	// Chunked(0) returns the receiver unchanged.
	if pl.Chunked(0) != pl {
		t.Fatal("Chunked(0) did not return the receiver")
	}
}

// Property: chunked totals are monotone up to per-chunk ceil rounding —
// finer chunks never reduce total load time by more than the rounding
// slack, and chunking never beats the single transfer.
func TestPropertyChunkingMonotone(t *testing.T) {
	mem := cost.MemProfile{Name: "m", BandwidthBps: 1 << 25, SetupNs: 1500}
	f := func(bytesRaw uint32, c1Raw, c2Raw uint16) bool {
		bytes := int64(bytesRaw%200_000) + 1
		c1 := int64(c1Raw%8_000) + 64
		c2 := int64(c2Raw%8_000) + 64
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		slack := (bytes+c1-1)/c1 + (bytes+c2-1)/c2 + 2 // ±1 ns ceil per chunk
		fine := ChunkedLoadNs(mem, bytes, c1)
		coarse := ChunkedLoadNs(mem, bytes, c2)
		return fine+slack >= coarse && coarse+slack >= mem.TransferNs(bytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// pipelineRef is the two-stage in-order pipeline recurrence PipelineNsWith
// implements, over full per-segment arrays.
func pipelineRef(pl *Plan, depth int, extraLoadNs, extraCompNs, loadDen, loadNum, compDen, compNum int64) int64 {
	n := len(pl.Segments)
	loadDone := make([]int64, n+1)
	compDone := make([]int64, n+1)
	scale := func(v, den, num int64) int64 {
		if den == num {
			return v
		}
		return (v*den + num - 1) / num
	}
	for j := 1; j <= n; j++ {
		s := pl.Segments[j-1]
		load := scale(s.LoadNs, loadDen, loadNum)
		if s.LoadNs > 0 {
			load += extraLoadNs
		}
		ld := loadDone[j-1]
		if j-depth >= 0 && compDone[j-depth] > ld {
			ld = compDone[j-depth]
		}
		loadDone[j] = ld + load
		compDone[j] = max(compDone[j-1], loadDone[j]) + scale(s.ComputeNs, compDen, compNum) + extraCompNs
	}
	return compDone[n]
}

// TestPipelineMatchesRecurrence checks the ring-buffered PipelineNsWith
// against the array recurrence on random plans, at depths on both sides of
// its stack-buffer size, with and without analysis hooks.
func TestPipelineMatchesRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		pl := &Plan{}
		for i := rng.Intn(40); i >= 0; i-- {
			s := Segment{ComputeNs: rng.Int63n(1000)}
			if rng.Intn(4) != 0 {
				s.LoadNs = rng.Int63n(1000)
			}
			pl.Segments = append(pl.Segments, s)
		}
		depth := 1 + rng.Intn(24)
		xl, xc := rng.Int63n(50), rng.Int63n(50)
		got := pl.PipelineNsWith(depth, xl, xc, 9, 10, 7, 8)
		if want := pipelineRef(pl, depth, xl, xc, 9, 10, 7, 8); got != want {
			t.Fatalf("trial %d depth %d: PipelineNsWith = %d, recurrence %d", trial, depth, got, want)
		}
		if got, want := pl.PipelineNs(depth), pipelineRef(pl, depth, 0, 0, 1, 1, 1, 1); got != want {
			t.Fatalf("trial %d depth %d: PipelineNs = %d, recurrence %d", trial, depth, got, want)
		}
	}
}

// TestPlanPeakActivation pins the plan-carried activation peak: for every
// catalog model on two platforms it equals the model's own
// PeakActivationBytes, on the plan and on its chunked copy.
func TestPlanPeakActivation(t *testing.T) {
	for _, p := range []cost.Platform{cost.STM32H743, cost.STM32F746} {
		for _, name := range models.Names() {
			m, err := models.Reference(name)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := BuildLimits(m, p, Limits{Bytes: p.WeightBufBytes / 4, ComputeNs: 500_000}, Greedy)
			if err != nil {
				t.Fatal(err)
			}
			want := m.PeakActivationBytes()
			if got := pl.PeakActivationBytes(); got != want {
				t.Fatalf("%s on %s: plan peak %d, model %d", name, p.Name, got, want)
			}
			if got := pl.Chunked(4 << 10).PeakActivationBytes(); got != want {
				t.Fatalf("%s on %s: chunked plan peak %d, model %d", name, p.Name, got, want)
			}
		}
	}
	if got := (&Plan{}).PeakActivationBytes(); got != 0 {
		t.Fatalf("plan without a model: peak %d, want 0", got)
	}
}
