// Package fault provides deterministic, seed-driven fault injection for the
// executor. A Config describes *what* can go wrong (compute overruns, release
// delays, DMA slowdown windows, transient transfer faults) and with what
// rates; New compiles it into an immutable Plan that the executor consults at
// each injection point.
//
// Determinism is the load-bearing property: every per-job decision is a pure
// hash of (seed, fault class, task name, job index, segment, attempt) rather
// than a draw from a shared stream, so the outcome for one job never depends
// on the order in which other jobs are simulated. Two runs with the same
// task set, policy and plan produce byte-identical traces and metrics, and a
// Plan is safe for concurrent use by parallel sweeps. All timing math is
// integer (milli-scaled factors); floats appear only in configured rates,
// which are compared against uniform hash draws.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"rtmdm/internal/core"
	"rtmdm/internal/sim"
)

// Config declares the fault classes a Plan injects. The zero value injects
// nothing. Rates are probabilities in [0, 1] unless noted.
type Config struct {
	// Seed drives every random decision. Zero means 1 (so the zero Config
	// plus one rate is still valid); any fixed value reproduces the run.
	Seed int64 `json:"seed,omitempty"`

	// OverrunRate is the per-segment probability that a compute phase
	// exceeds its modeled WCET.
	OverrunRate float64 `json:"overrun_rate,omitempty"`
	// OverrunFactor scales an overrunning segment's compute time
	// (1.5 = 50% over WCET). Values below 1 are rejected; the default is 1.5.
	OverrunFactor float64 `json:"overrun_factor,omitempty"`
	// OverrunFactorMax, when above OverrunFactor, makes the exceedance
	// uniform in [OverrunFactor, OverrunFactorMax] instead of constant.
	OverrunFactorMax float64 `json:"overrun_factor_max,omitempty"`
	// TaskOverrunRate overrides OverrunRate for the named tasks.
	TaskOverrunRate map[string]float64 `json:"task_overrun_rate,omitempty"`

	// ReleaseJitterRate is the per-job probability of a sporadic release
	// delay; ReleaseJitterMaxMs bounds the delay (uniform in [0, max]).
	ReleaseJitterRate  float64 `json:"release_jitter_rate,omitempty"`
	ReleaseJitterMaxMs float64 `json:"release_jitter_max_ms,omitempty"`

	// DMASlowdownRatePerSec is the expected number of transient
	// bus-contention windows per simulated second; each lasts DMASlowdownMs
	// and scales transfer work by DMASlowdownFactor (default 2.0).
	DMASlowdownRatePerSec float64 `json:"dma_slowdown_rate_per_sec,omitempty"`
	DMASlowdownMs         float64 `json:"dma_slowdown_ms,omitempty"`
	DMASlowdownFactor     float64 `json:"dma_slowdown_factor,omitempty"`

	// TransferFaultRate is the per-chunk probability that a parameter
	// transfer is lost and must be retried. MaxRetries bounds the retry
	// budget per chunk (default 3; the attempt after the last retry always
	// succeeds, so staging terminates). RetryBackoffUs is the first backoff
	// delay, doubling per attempt (default 20µs).
	TransferFaultRate float64 `json:"transfer_fault_rate,omitempty"`
	MaxRetries        int     `json:"max_retries,omitempty"`
	RetryBackoffUs    float64 `json:"retry_backoff_us,omitempty"`
}

// Enabled reports whether the Config injects any fault at all.
func (c Config) Enabled() bool {
	if c.OverrunRate > 0 || c.ReleaseJitterRate > 0 ||
		c.DMASlowdownRatePerSec > 0 || c.TransferFaultRate > 0 {
		return true
	}
	for _, r := range c.TaskOverrunRate {
		if r > 0 {
			return true
		}
	}
	return false
}

// Validate rejects rates outside [0, 1], non-finite values, factors below 1
// and budgets outside sane bounds, so hostile scenario files cannot drive
// the executor into overflow or unbounded work.
func (c Config) Validate() error {
	rate := func(name string, v float64) error {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("fault: %s %v outside [0, 1]", name, v)
		}
		return nil
	}
	pos := func(name string, v, max float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > max {
			return fmt.Errorf("fault: %s %v outside [0, %v]", name, v, max)
		}
		return nil
	}
	if err := rate("overrun_rate", c.OverrunRate); err != nil {
		return err
	}
	for name, v := range c.TaskOverrunRate {
		if err := rate("task_overrun_rate["+name+"]", v); err != nil {
			return err
		}
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"overrun_factor", c.OverrunFactor}, {"overrun_factor_max", c.OverrunFactorMax}, {"dma_slowdown_factor", c.DMASlowdownFactor}} {
		if f.v == 0 {
			continue // defaulted
		}
		if math.IsNaN(f.v) || f.v < 1 || f.v > 1000 {
			return fmt.Errorf("fault: %s %v outside [1, 1000]", f.name, f.v)
		}
	}
	if err := rate("release_jitter_rate", c.ReleaseJitterRate); err != nil {
		return err
	}
	if err := pos("release_jitter_max_ms", c.ReleaseJitterMaxMs, 1e7); err != nil {
		return err
	}
	if err := pos("dma_slowdown_rate_per_sec", c.DMASlowdownRatePerSec, 1e6); err != nil {
		return err
	}
	if err := pos("dma_slowdown_ms", c.DMASlowdownMs, 1e7); err != nil {
		return err
	}
	if err := rate("transfer_fault_rate", c.TransferFaultRate); err != nil {
		return err
	}
	if c.MaxRetries < 0 || c.MaxRetries > 100 {
		return fmt.Errorf("fault: max_retries %d outside [0, 100]", c.MaxRetries)
	}
	if err := pos("retry_backoff_us", c.RetryBackoffUs, 1e9); err != nil {
		return err
	}
	return nil
}

// window is one compiled DMA-slowdown interval [from, to).
type window struct {
	from, to sim.Time
}

// Plan is a compiled, immutable fault schedule over one simulation horizon.
// All methods are safe on a nil receiver (inject nothing) and safe for
// concurrent use.
type Plan struct {
	seed uint64

	overrunRate     float64
	taskOverrun     map[string]float64
	factorMilliLo   int64 // overrun factor x1000, lower bound
	factorMilliSpan int64 // inclusive span above lower bound

	jitterRate  float64
	jitterMaxNs int64

	windows        []window
	dmaFactorMilli int64

	xferRate  float64
	maxRetry  int
	backoffNs int64
}

// Hash-domain separators, one per fault class, so a segment's overrun draw
// never correlates with its transfer-fault draw.
const (
	classOverrun uint64 = 0x6f76722d636c6173 // "ovr-clas"
	classFactor  uint64 = 0x6661632d636c6173
	classJitter  uint64 = 0x6a69742d636c6173
	classJitAmt  uint64 = 0x6a616d2d636c6173
	classXfer    uint64 = 0x7866722d636c6173
)

// New compiles cfg into a Plan for a run of the given horizon. DMA slowdown
// windows are laid out once here from a seeded source (window placement is
// the only use of a sequential stream; everything per-job is hashed).
// Returns nil (inject nothing) when cfg.Enabled() is false.
func New(cfg Config, horizon sim.Duration) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("fault: horizon %v must be positive", horizon)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	p := &Plan{
		seed:        core.Mix64(uint64(seed) * 0x9e3779b97f4a7c15),
		overrunRate: cfg.OverrunRate,
		jitterRate:  cfg.ReleaseJitterRate,
		jitterMaxNs: int64(cfg.ReleaseJitterMaxMs * 1e6),
		xferRate:    cfg.TransferFaultRate,
		maxRetry:    cfg.MaxRetries,
	}
	if len(cfg.TaskOverrunRate) > 0 {
		p.taskOverrun = make(map[string]float64, len(cfg.TaskOverrunRate))
		for k, v := range cfg.TaskOverrunRate {
			p.taskOverrun[k] = v
		}
	}
	lo := cfg.OverrunFactor
	if lo == 0 {
		lo = 1.5
	}
	hi := cfg.OverrunFactorMax
	if hi < lo {
		hi = lo
	}
	p.factorMilliLo = int64(math.Round(lo * 1000))
	p.factorMilliSpan = int64(math.Round(hi*1000)) - p.factorMilliLo
	if p.maxRetry == 0 {
		p.maxRetry = 3
	}
	if cfg.RetryBackoffUs == 0 {
		p.backoffNs = 20_000
	} else {
		p.backoffNs = int64(cfg.RetryBackoffUs * 1000)
	}
	dmaFac := cfg.DMASlowdownFactor
	if dmaFac == 0 {
		dmaFac = 2.0
	}
	p.dmaFactorMilli = int64(math.Round(dmaFac * 1000))

	if cfg.DMASlowdownRatePerSec > 0 && cfg.DMASlowdownMs > 0 {
		meanGapNs := 1e9 / cfg.DMASlowdownRatePerSec
		lenNs := sim.Duration(cfg.DMASlowdownMs * 1e6) //lint:allow millitime -- plan-compile boundary: float ms from config, bounds-checked below
		if lenNs <= 0 {
			lenNs = 1
		}
		rng := rand.New(rand.NewSource(seed ^ 0x77696e646f7773)) // "windows"
		at := sim.Time(0)
		const maxWindows = 1 << 20 // backstop against hostile rate×horizon
		for len(p.windows) < maxWindows {
			gap := sim.Duration(meanGapNs * (0.5 + rng.Float64())) //lint:allow millitime -- plan-compile boundary: Poisson gap drawn once per window, clamped to >= 1
			if gap < 1 {
				gap = 1
			}
			at += sim.Time(gap)
			if at >= sim.Time(horizon) {
				break
			}
			end := at + sim.Time(lenNs)
			p.windows = append(p.windows, window{from: at, to: end})
			at = end
		}
	}
	return p, nil
}

// draw hashes one decision point into a uniform uint64.
func (p *Plan) draw(class uint64, task string, a, b, c int64) uint64 {
	h := p.seed ^ core.Mix64(class)
	for i := 0; i < len(task); i++ {
		h = (h ^ uint64(task[i])) * 1099511628211 // FNV-1a step
	}
	h = core.Mix64(h ^ uint64(a)*0xa24baed4963ee407)
	h = core.Mix64(h ^ uint64(b)*0x9fb21c651e98df25)
	h = core.Mix64(h ^ uint64(c)*0xc2b2ae3d27d4eb4f)
	return h
}

// unit maps a hash to a uniform float in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// OverrunExtraNs returns the extra compute time injected into segment seg of
// job (task, job), or 0 when the segment runs at its modeled WCET.
func (p *Plan) OverrunExtraNs(task string, job, seg int, computeNs int64) int64 {
	if p == nil || computeNs <= 0 {
		return 0
	}
	rate := p.overrunRate
	if r, ok := p.taskOverrun[task]; ok {
		rate = r
	}
	if rate <= 0 || unit(p.draw(classOverrun, task, int64(job), int64(seg), 0)) >= rate {
		return 0
	}
	milli := p.factorMilliLo
	if p.factorMilliSpan > 0 {
		milli += int64(p.draw(classFactor, task, int64(job), int64(seg), 0) % uint64(p.factorMilliSpan+1))
	}
	return core.ScaleNsMilli(computeNs, milli-1000)
}

// ReleaseDelay returns the sporadic delay injected into job's release, or 0.
func (p *Plan) ReleaseDelay(task string, job int) sim.Duration {
	if p == nil || p.jitterRate <= 0 || p.jitterMaxNs <= 0 {
		return 0
	}
	if unit(p.draw(classJitter, task, int64(job), 0, 0)) >= p.jitterRate {
		return 0
	}
	return sim.Duration(p.draw(classJitAmt, task, int64(job), 0, 0) % uint64(p.jitterMaxNs+1))
}

// MaxReleaseDelay bounds ReleaseDelay; the executor folds it into each
// task's effective jitter so the trace invariants stay checkable.
func (p *Plan) MaxReleaseDelay() sim.Duration {
	if p == nil || p.jitterRate <= 0 {
		return 0
	}
	return sim.Duration(p.jitterMaxNs)
}

// DMADerateNs scales a transfer's nominal work when it starts inside a
// slowdown window; outside windows (and on a nil plan) it is the identity.
func (p *Plan) DMADerateNs(at sim.Time, workNs int64) int64 {
	if !p.InSlowdown(at) {
		return workNs
	}
	return core.ScaleNsMilli(workNs, p.dmaFactorMilli)
}

// InSlowdown reports whether at falls inside a compiled slowdown window.
func (p *Plan) InSlowdown(at sim.Time) bool {
	if p == nil || len(p.windows) == 0 {
		return false
	}
	i := sort.Search(len(p.windows), func(i int) bool { return p.windows[i].to > at })
	return i < len(p.windows) && p.windows[i].from <= at
}

// Windows returns the number of compiled DMA slowdown windows (for tests
// and reporting).
func (p *Plan) Windows() int {
	if p == nil {
		return 0
	}
	return len(p.windows)
}

// TransferFaulty reports whether the chunk at byte offset chunkOff of
// segment seg (job job of task) fails on this attempt. Attempts at or past
// the retry budget always succeed, so staging terminates.
func (p *Plan) TransferFaulty(task string, job, seg int, chunkOff int64, attempt int) bool {
	if p == nil || p.xferRate <= 0 || attempt >= p.maxRetry {
		return false
	}
	return unit(p.draw(classXfer, task, int64(job), int64(seg), chunkOff*131+int64(attempt))) < p.xferRate
}

// RetryBackoffNs returns the backoff before retry attempt n (1-based),
// doubling per attempt and capped at 1024x the base.
func (p *Plan) RetryBackoffNs(attempt int) sim.Duration {
	if p == nil {
		return 0
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 10 {
		shift = 10
	}
	return sim.Duration(p.backoffNs << uint(shift))
}

// MaxRetries returns the per-chunk retry budget.
func (p *Plan) MaxRetries() int {
	if p == nil {
		return 0
	}
	return p.maxRetry
}

// ParseSpec parses the compact command-line fault syntax used by
// rtmdm-sim's -faults flag: comma-separated key=value pairs, e.g.
//
//	overrun=0.25,factor=2.0,seed=7
//	xfer=0.1,retries=5,backoff-us=50
//	jitter=0.2,jitter-ms=3,dma-rate=10,dma-ms=2,dma-factor=3
//
// Keys: overrun, factor, factor-max, jitter, jitter-ms, dma-rate, dma-ms,
// dma-factor, xfer, retries, backoff-us, seed.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: spec field %q is not key=value", field)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if key == "seed" || key == "retries" {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("fault: spec %s=%q: %v", key, val, err)
			}
			if key == "seed" {
				cfg.Seed = n
			} else {
				cfg.MaxRetries = int(n)
			}
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Config{}, fmt.Errorf("fault: spec %s=%q: %v", key, val, err)
		}
		switch key {
		case "overrun":
			cfg.OverrunRate = f
		case "factor":
			cfg.OverrunFactor = f
		case "factor-max":
			cfg.OverrunFactorMax = f
		case "jitter":
			cfg.ReleaseJitterRate = f
		case "jitter-ms":
			cfg.ReleaseJitterMaxMs = f
		case "dma-rate":
			cfg.DMASlowdownRatePerSec = f
		case "dma-ms":
			cfg.DMASlowdownMs = f
		case "dma-factor":
			cfg.DMASlowdownFactor = f
		case "xfer":
			cfg.TransferFaultRate = f
		case "backoff-us":
			cfg.RetryBackoffUs = f
		default:
			return Config{}, fmt.Errorf("fault: unknown spec key %q", key)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
