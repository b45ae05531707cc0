// Package workload generates randomized multi-DNN task sets for the
// evaluation: UUniFast utilization splits over zoo models, periods derived
// from a policy-independent reference demand, and per-policy instantiation
// (each policy re-segments the same spec with its own staging budget).
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/metrics"
	"rtmdm/internal/models"
	"rtmdm/internal/nn"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
)

// cacheIns carries hit/miss counters for the memoized generation pipeline
// (nil metrics when instrumentation is off, making every update a no-op).
type cacheIns struct {
	modelHits, modelMisses *metrics.Counter
	planHits, planMisses   *metrics.Counter
	specHits, specMisses   *metrics.Counter
}

var instr atomic.Pointer[cacheIns]

func init() { instr.Store(&cacheIns{}) }

// Instrument wires the generation caches to the registry; Instrument(nil)
// disables instrumentation again.
func Instrument(r *metrics.Registry) {
	if r == nil {
		instr.Store(&cacheIns{})
		return
	}
	instr.Store(&cacheIns{
		modelHits:   r.Counter("workload.model_cache_hits", "lookups", "zoo-model lookups after the first, served by the shared instance"),
		modelMisses: r.Counter("workload.model_cache_misses", "lookups", "first lookups of a zoo model in this process (at most one per catalog model)"),
		planHits:    r.Counter("workload.plan_cache_hits", "lookups", "segmentation plans served from cache"),
		planMisses:  r.Counter("workload.plan_cache_misses", "lookups", "segmentation plans built from scratch"),
		specHits:    r.Counter("workload.spec_cache_hits", "lookups", "generated specs served from cache"),
		specMisses:  r.Counter("workload.spec_cache_misses", "lookups", "generated specs drawn from scratch"),
	})
}

// UUniFast draws n utilization shares summing to total, uniformly over the
// valid simplex (Bini & Buttazzo).
func UUniFast(rng *rand.Rand, n int, total float64) []float64 {
	u := make([]float64, n)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1.0/float64(n-1-i))
		u[i] = sum - next
		sum = next
	}
	u[n-1] = sum
	return u
}

// TaskSpec is the policy-independent description of one task.
type TaskSpec struct {
	Model string
	// Seed is the task's weight seed (models.Build). Instantiation never
	// reads it: scheduling uses the shared models.Reference instance,
	// whose topology every seed shares.
	Seed     int64
	Period   sim.Duration
	Deadline sim.Duration
	Jitter   sim.Duration
}

// SetSpec is a policy-independent task-set description. Each scheduling
// policy instantiates it with its own segmentation budget, so cross-policy
// comparisons hold models and periods fixed.
type SetSpec struct {
	Tasks []TaskSpec
	// Util is the reference (serial) utilization the spec was generated
	// for.
	Util float64
}

// SpecKey is a comparable identity of a SetSpec, for memoization keys
// alongside cost.PlatformKey and core.PolicyKey: two specs have equal keys
// iff every field is equal, floats compared by their bits and a nil Tasks
// slice told apart from an empty one.
type SpecKey struct {
	// tasks encodes every TaskSpec in order (length-prefixed model name,
	// then Seed, Period, Deadline, Jitter) after a one-byte non-nil
	// marker; "" when nil.
	tasks string
	util  uint64
}

// Key returns the spec's memoization key, without fmt or reflection.
func (sp SetSpec) Key() SpecKey {
	k := SpecKey{util: math.Float64bits(sp.Util)}
	if sp.Tasks != nil {
		b := make([]byte, 1, 1+len(sp.Tasks)*48)
		b[0] = 1
		for _, t := range sp.Tasks {
			b = binary.AppendUvarint(b, uint64(len(t.Model)))
			b = append(b, t.Model...)
			b = binary.AppendVarint(b, t.Seed)
			b = binary.AppendVarint(b, int64(t.Period))
			b = binary.AppendVarint(b, int64(t.Deadline))
			b = binary.AppendVarint(b, int64(t.Jitter))
		}
		k.tasks = string(b)
	}
	return k
}

// Params configures task-set generation.
type Params struct {
	Seed int64
	// N is the number of tasks.
	N int
	// Util is the target reference utilization (serial demand / period,
	// summed over tasks).
	Util float64
	// Platform fixes the reference demand used to derive periods.
	Platform cost.Platform
	// Models restricts the zoo subset (nil = whole catalog).
	Models []string
	// MinPeriod and MaxPeriod clamp derived periods (0 = no clamp).
	MinPeriod, MaxPeriod sim.Duration
	// DeadlineFrac scales deadlines relative to periods (0 → 1.0,
	// i.e. implicit deadlines).
	DeadlineFrac float64
	// JitterFrac sets each task's maximum release jitter as a fraction of
	// its period (0 = strictly periodic).
	JitterFrac float64
}

// paramsKey is the specCache key: equal iff every field of Params is equal
// (floats by their bits, a nil Models slice told apart from an empty one).
type paramsKey struct {
	seed                   int64
	n                      int
	util                   uint64
	plat                   cost.PlatformKey
	models                 string // length-prefixed names after a non-nil marker; "" when nil
	minPeriod, maxPeriod   sim.Duration
	deadlineFrac, jitterFr uint64
}

func (p Params) key() paramsKey {
	k := paramsKey{
		seed: p.Seed, n: p.N, util: math.Float64bits(p.Util), plat: p.Platform.Key(),
		minPeriod: p.MinPeriod, maxPeriod: p.MaxPeriod,
		deadlineFrac: math.Float64bits(p.DeadlineFrac), jitterFr: math.Float64bits(p.JitterFrac),
	}
	if p.Models != nil {
		b := []byte{1}
		for _, name := range p.Models {
			b = binary.AppendUvarint(b, uint64(len(name)))
			b = append(b, name...)
		}
		k.models = string(b)
	}
	return k
}

// The generation pipeline is memoized at every level that repeats across
// sweep points: segmentation plans, reference demands, activation
// footprints, and whole generated specs. All caches are sync.Map so the
// parallel experiment harness's workers never serialize on a shared mutex;
// every cached computation is a pure function of its key, so a racing
// duplicate compute stores an identical value and determinism is preserved.
//
// None of them is keyed on a task's weight seed: plans, demands and
// footprints read a model's topology alone, so every lookup segments the
// shared models.Reference instance.
var refSeen sync.Map // model name → struct{}, for the model-cache counters

// refModel returns the shared instance of a zoo model. The model-cache
// counters count lookups: a miss is the first lookup of a name in this
// process (at most one per catalog model), every later one a hit.
func refModel(name string) (*nn.Model, error) {
	m, err := models.Reference(name)
	if err != nil {
		return nil, err
	}
	if _, seen := refSeen.LoadOrStore(name, struct{}{}); seen {
		instr.Load().modelHits.Add(1)
	} else {
		instr.Load().modelMisses.Add(1)
	}
	return m, nil
}

// planCache memoizes segment.BuildLimits results. Plans are immutable after
// Build and every consumer (Provision, the analyses, the executor) treats
// them as read-only, so one plan is safely shared across task sets and
// goroutines. The key includes the full platform key: WithWeightBuf/
// WithDCache/WithBandwidth variants keep the platform name but change
// segmentation, and must not collide.
var planCache sync.Map // planKey → *segment.Plan

type planKey struct {
	model string
	lim   segment.Limits
	plat  cost.PlatformKey
}

// cachedPlan returns the plan of a zoo model; platKey is plat.Key(), which
// callers compute once per set.
func cachedPlan(name string, plat cost.Platform, platKey cost.PlatformKey, lim segment.Limits) (*segment.Plan, error) {
	key := planKey{model: name, lim: lim, plat: platKey}
	if pl, ok := planCache.Load(key); ok {
		instr.Load().planHits.Add(1)
		return pl.(*segment.Plan), nil
	}
	instr.Load().planMisses.Add(1)
	m, err := refModel(name)
	if err != nil {
		return nil, err
	}
	pl, err := segment.BuildLimits(m, plat, lim, segment.Greedy)
	if err != nil {
		return nil, err
	}
	planCache.Store(key, pl)
	return pl, nil
}

// refBudget is the policy-independent staging budget used to compute the
// reference demand a spec's periods are derived from: the platform weight
// buffer split across n double-buffered tasks.
func refBudget(plat cost.Platform, n int) int64 {
	b := plat.WeightBufBytes / int64(2*n)
	if b < 4<<10 {
		b = 4 << 10
	}
	return b
}

// refDemandCache memoizes the reference serial demand per (model,
// platform, n). Keyed on the full platform key so cost-model
// variants of a platform (different D-cache, bandwidth, buffer split) never
// reuse each other's demands.
var refDemandCache sync.Map // refDemandKey → int64

type refDemandKey struct {
	model string
	n     int
	plat  cost.PlatformKey
}

// refDemand returns the serial (load+compute) nanoseconds of one job of
// the model at the reference segmentation; platKey is plat.Key().
func refDemand(name string, plat cost.Platform, platKey cost.PlatformKey, n int) (int64, error) {
	key := refDemandKey{model: name, n: n, plat: platKey}
	if d, ok := refDemandCache.Load(key); ok {
		return d.(int64), nil
	}
	m, err := refModel(name)
	if err != nil {
		return 0, err
	}
	pl, err := segment.Build(m, plat, refBudget(plat, n), segment.Greedy)
	if err != nil {
		return 0, err
	}
	d := pl.SerialNs()
	refDemandCache.Store(key, d)
	return d, nil
}

// specCache memoizes Generate: the whole draw is a pure function of Params
// (the rng is seeded from p.Seed and the catalog order is fixed), so one
// generated spec serves every experiment that sweeps the same point.
var specCache sync.Map // paramsKey → SetSpec

// Generate draws a SetSpec: models uniformly from the catalog subset,
// utilization shares by UUniFast, periods = refDemand/share (clamped).
func Generate(p Params) (SetSpec, error) {
	key := p.key()
	if sp, ok := specCache.Load(key); ok {
		instr.Load().specHits.Add(1)
		return sp.(SetSpec), nil
	}
	instr.Load().specMisses.Add(1)
	sp, err := generate(p)
	if err != nil {
		return SetSpec{}, err
	}
	specCache.Store(key, sp)
	return sp, nil
}

func generate(p Params) (SetSpec, error) {
	if p.N < 1 {
		return SetSpec{}, fmt.Errorf("workload: N = %d", p.N)
	}
	if p.Util <= 0 {
		return SetSpec{}, fmt.Errorf("workload: utilization %f", p.Util)
	}
	if err := p.Platform.Validate(); err != nil {
		return SetSpec{}, err
	}
	names := p.Models
	if len(names) == 0 {
		names = models.Names()
	}
	if p.DeadlineFrac == 0 {
		p.DeadlineFrac = 1.0
	}
	if p.DeadlineFrac < 0 || p.DeadlineFrac > 1 {
		return SetSpec{}, fmt.Errorf("workload: deadline fraction %f", p.DeadlineFrac)
	}
	if p.JitterFrac < 0 || p.JitterFrac >= 1 {
		return SetSpec{}, fmt.Errorf("workload: jitter fraction %f", p.JitterFrac)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	shares := UUniFast(rng, p.N, p.Util)
	// Draw a model mix that is *deployable*: a segment-preemptive policy
	// must be able to park every preempted job's boundary activations in
	// the non-staging SRAM alongside the running job's working set. The
	// paper's workloads run on real boards, so feasibility is a
	// precondition of generation, not a scheduling outcome.
	actSRAM := p.Platform.SRAMBytes - p.Platform.WeightBufBytes
	var picks []string
	for try := 0; ; try++ {
		picks = picks[:0]
		var resident, peak int64
		for i := 0; i < p.N; i++ {
			name := names[rng.Intn(len(names))]
			picks = append(picks, name)
			r, pk, err := actFootprint(name, p.Platform, p.N)
			if err != nil {
				return SetSpec{}, err
			}
			resident += r
			if pk > peak {
				peak = pk
			}
		}
		if resident+peak <= actSRAM {
			break
		}
		if try >= 200 {
			return SetSpec{}, fmt.Errorf(
				"workload: no activation-feasible %d-task mix fits %d B on %s",
				p.N, actSRAM, p.Platform.Name)
		}
	}
	spec := SetSpec{Util: p.Util}
	platKey := p.Platform.Key()
	for i := 0; i < p.N; i++ {
		name := picks[i]
		seed := int64(rng.Intn(1 << 16))
		demand, err := refDemand(name, p.Platform, platKey, p.N)
		if err != nil {
			return SetSpec{}, err
		}
		period := sim.Duration(float64(demand) / shares[i]) //lint:allow millitime -- UUniFast share division at generation time; clamped to [MinPeriod, MaxPeriod]
		if p.MinPeriod > 0 && period < p.MinPeriod {
			period = p.MinPeriod
		}
		if p.MaxPeriod > 0 && period > p.MaxPeriod {
			period = p.MaxPeriod
		}
		deadline := sim.Duration(float64(period) * p.DeadlineFrac) //lint:allow millitime -- generation-time fraction of an already-clamped period
		if deadline < 1 {
			deadline = 1
		}
		spec.Tasks = append(spec.Tasks, TaskSpec{
			Model: name, Seed: seed, Period: period, Deadline: deadline,
			Jitter: sim.Duration(float64(period) * p.JitterFrac), //lint:allow millitime -- generation-time fraction of an already-clamped period
		})
	}
	return spec, nil
}

// actFootprint returns (max resident boundary bytes, peak working set) of a
// model at the reference segmentation, cached per (model, platform name, n).
// The key deliberately uses the platform *name*, matching the behaviour the
// published result tables were generated with: cost-model variants of a
// named platform share one footprint entry.
func actFootprint(name string, plat cost.Platform, n int) (int64, int64, error) {
	key := footprintKey{model: name, platName: plat.Name, n: n}
	if v, ok := footprintCache.Load(key); ok {
		f := v.([2]int64)
		return f[0], f[1], nil
	}
	m, err := refModel(name)
	if err != nil {
		return 0, 0, err
	}
	pl, err := segment.BuildLimits(m, plat,
		segment.Limits{Bytes: refBudget(plat, n), ComputeNs: core.DefaultGranularityNs / 2},
		segment.Greedy)
	if err != nil {
		return 0, 0, err
	}
	r, pk := pl.MaxResidentBytes(), pl.PeakActivationBytes()
	footprintCache.Store(key, [2]int64{r, pk})
	return r, pk, nil
}

var footprintCache sync.Map // footprintKey → [2]int64{resident, peak}

// footprintKey names the platform by Name only: see actFootprint.
type footprintKey struct {
	model, platName string
	n               int
}

// Instantiate builds the runnable task set for one policy: every model is
// segmented with the policy's staging budget and preemption granularity,
// and priorities are assigned rate-monotonically.
func (sp SetSpec) Instantiate(plat cost.Platform, pol core.Policy) (*task.Set, error) {
	return sp.InstantiateLimits(plat, pol.Limits(plat, len(sp.Tasks)))
}

// InstantiateLimits is Instantiate with explicit segmentation limits (used
// by the SRAM-sweep experiment).
func (sp SetSpec) InstantiateLimits(plat cost.Platform, lim segment.Limits) (*task.Set, error) {
	if len(sp.Tasks) == 0 {
		return nil, fmt.Errorf("workload: empty spec")
	}
	ts := make([]*task.Task, 0, len(sp.Tasks))
	platKey := plat.Key()
	for i, tsp := range sp.Tasks {
		pl, err := cachedPlan(tsp.Model, plat, platKey, lim)
		if err != nil {
			return nil, err
		}
		ts = append(ts, &task.Task{
			Name:     "t" + strconv.Itoa(i) + "-" + tsp.Model,
			Plan:     pl,
			Period:   tsp.Period,
			Deadline: tsp.Deadline,
			Jitter:   tsp.Jitter,
			Priority: i,
		})
	}
	s := task.NewSet(ts...)
	s.AssignRM()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
