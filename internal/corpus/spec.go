// Package corpus is the seeded generative scenario corpus and its
// differential soundness harness: a compact Spec describes axis domains
// (utilization, task count, model mix, policy, platform, horizon,
// deadline tightness, release offsets, fault profile, overrun handling),
// and a Generator expands it into thousands of concrete scenario
// instances — each a pure function of (spec, index), identified by its
// scenario.CanonicalHash. The Oracle then runs both the schedulability
// analysis (internal/analysis) and the simulator (internal/exec) on each
// instance and asserts the strongest property this repository can check:
// analysis-schedulable ⇒ zero simulated deadline misses, plus
// incremental-vs-cold analyzer verdict parity. The Runner parallelizes
// the sweep with a deterministic merge, so the corpus manifest digest is
// byte-identical regardless of worker count; see docs/CORPUS.md.
package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/models"
)

// specDomain versions the spec digest: bump it whenever the Spec schema,
// the defaults, or the generation rules change, so checkpoints and
// manifests from different generations can never be resumed or compared
// silently.
const specDomain = "rtmdm-corpus-spec-v1\n"

// Spec is the compact, version-controllable corpus description. Every
// axis is a list of admissible values; the generator draws one value per
// axis per scenario with an independent splitmix64 hash of (seed, axis,
// index), so adding scenarios never re-rolls earlier ones and axis lists
// act as weights (repeat a value to make it more likely). Empty axes
// take the documented defaults (see DefaultSpec and docs/CORPUS.md).
type Spec struct {
	// Seed drives every generation decision. Zero means 1.
	Seed int64 `json:"seed,omitempty"`
	// Count is the number of scenario instances the corpus expands to.
	Count int `json:"count"`
	// Utils lists target reference utilizations; per-task shares are
	// split by workload.UUniFast.
	Utils []float64 `json:"utils,omitempty"`
	// TaskCounts lists admissible task-set sizes.
	TaskCounts []int `json:"task_counts,omitempty"`
	// Models restricts the zoo subset tasks draw from (empty = the whole
	// MLPerf-Tiny-class catalog).
	Models []string `json:"models,omitempty"`
	// Policies lists scheduling policies by name; depth variants
	// (rt-mdm-dN) sweep segment budget / SRAM pressure, since the
	// prefetch staging budget divides the weight buffer by n·depth.
	Policies []string `json:"policies,omitempty"`
	// Platforms lists platform presets by name.
	Platforms []string `json:"platforms,omitempty"`
	// HorizonsMs lists simulation horizons in milliseconds.
	HorizonsMs []float64 `json:"horizons_ms,omitempty"`
	// DeadlineFracs lists deadline/period ratios (1 = implicit).
	DeadlineFracs []float64 `json:"deadline_fracs,omitempty"`
	// OffsetFrac is the probability a scenario gets pseudo-random
	// release offsets (verdicts are offset-independent, so the oracle
	// must hold under any offset pattern). 0 means the default 0.5;
	// negative disables offsets entirely.
	OffsetFrac float64 `json:"offset_frac,omitempty"`
	// FaultProfiles lists named fault-injection profiles ("none",
	// "overrun", "overrun-heavy", "jitter", "dma", "xfer", "mixed").
	// Faulted instances additionally run a fault-injected simulation;
	// the soundness property is always asserted on the nominal run,
	// because injected overruns and slowdowns exceed the modeled WCETs
	// the analysis is sound against.
	FaultProfiles []string `json:"fault_profiles,omitempty"`
	// Overruns lists overrun-handling modes for faulted instances
	// ("continue", "abort", "skip-next").
	Overruns []string `json:"overruns,omitempty"`
	// MinPeriodMs and MaxPeriodMs clamp derived periods (0 = defaults).
	MinPeriodMs float64 `json:"min_period_ms,omitempty"`
	MaxPeriodMs float64 `json:"max_period_ms,omitempty"`
}

// DefaultSpec returns the full-breadth corpus defaults: every policy
// family with a sound analysis, both flagship platforms, utilizations
// spanning the schedulability boundary, and a fault mix that leaves
// roughly a third of the instances nominal.
func DefaultSpec() *Spec {
	return &Spec{
		Seed:          1,
		Count:         1000,
		Utils:         []float64{0.3, 0.45, 0.6, 0.75, 0.9},
		TaskCounts:    []int{2, 3, 4, 5},
		Policies:      []string{"rt-mdm", "rt-mdm-d3", "rt-mdm-d4", "serial-segfp", "serial-npfp", "rt-mdm-edf"},
		Platforms:     []string{"stm32h743", "stm32f746"},
		HorizonsMs:    []float64{200, 500},
		DeadlineFracs: []float64{1.0, 0.85},
		OffsetFrac:    0.5,
		FaultProfiles: []string{"none", "none", "overrun", "jitter", "dma", "xfer", "mixed"},
		Overruns:      []string{"continue", "abort", "skip-next"},
		MinPeriodMs:   5,
		MaxPeriodMs:   500,
	}
}

// SmokeSpec is the pinned CI slice: cheap horizons and small sets so a
// ≥1k-scenario sweep with the differential oracle stays inside a CI
// budget, while still covering every axis.
func SmokeSpec() *Spec {
	s := DefaultSpec()
	s.HorizonsMs = []float64{200}
	s.TaskCounts = []int{2, 3, 4}
	return s
}

// withDefaults returns a copy with every empty axis filled from
// DefaultSpec. The copy is what Digest hashes, so a spec that spells a
// default explicitly digests identically to one that omits it.
func (s *Spec) withDefaults() *Spec {
	d := DefaultSpec()
	out := *s
	if out.Seed == 0 {
		out.Seed = 1
	}
	if len(out.Utils) == 0 {
		out.Utils = d.Utils
	}
	if len(out.TaskCounts) == 0 {
		out.TaskCounts = d.TaskCounts
	}
	if len(out.Policies) == 0 {
		out.Policies = d.Policies
	}
	if len(out.Platforms) == 0 {
		out.Platforms = d.Platforms
	}
	if len(out.HorizonsMs) == 0 {
		out.HorizonsMs = d.HorizonsMs
	}
	if len(out.DeadlineFracs) == 0 {
		out.DeadlineFracs = d.DeadlineFracs
	}
	if out.OffsetFrac == 0 {
		out.OffsetFrac = d.OffsetFrac
	}
	if out.OffsetFrac < 0 {
		out.OffsetFrac = 0
	}
	if len(out.FaultProfiles) == 0 {
		out.FaultProfiles = d.FaultProfiles
	}
	if len(out.Overruns) == 0 {
		out.Overruns = d.Overruns
	}
	if out.MinPeriodMs == 0 {
		out.MinPeriodMs = d.MinPeriodMs
	}
	if out.MaxPeriodMs == 0 {
		out.MaxPeriodMs = d.MaxPeriodMs
	}
	return &out
}

// Validate rejects specs whose axis values cannot generate: unknown
// policies, platforms, models, fault profiles or overrun modes, and
// numeric values outside the ranges the downstream packages accept.
// Called on the defaults-filled spec by NewGenerator.
func (s *Spec) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("corpus: count %d < 1", s.Count)
	}
	for _, u := range s.Utils {
		if math.IsNaN(u) || u <= 0 || u > 2 {
			return fmt.Errorf("corpus: util %v outside (0, 2]", u)
		}
	}
	for _, n := range s.TaskCounts {
		if n < 1 || n > 16 {
			return fmt.Errorf("corpus: task count %d outside [1, 16]", n)
		}
	}
	for _, m := range s.Models {
		if _, err := models.Lookup(m); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
	}
	for _, p := range s.Policies {
		if _, err := core.PolicyByName(p); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
	}
	for _, p := range s.Platforms {
		if _, err := cost.PlatformByName(p); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
	}
	for _, h := range s.HorizonsMs {
		if math.IsNaN(h) || h <= 0 || h > 60_000 {
			return fmt.Errorf("corpus: horizon %v ms outside (0, 60000]", h)
		}
	}
	for _, f := range s.DeadlineFracs {
		if math.IsNaN(f) || f <= 0 || f > 1 {
			return fmt.Errorf("corpus: deadline fraction %v outside (0, 1]", f)
		}
	}
	if math.IsNaN(s.OffsetFrac) || s.OffsetFrac > 1 {
		return fmt.Errorf("corpus: offset fraction %v outside [0, 1]", s.OffsetFrac)
	}
	for _, fp := range s.FaultProfiles {
		if _, ok := faultProfiles[fp]; !ok {
			return fmt.Errorf("corpus: unknown fault profile %q (have %v)", fp, FaultProfileNames())
		}
	}
	for _, o := range s.Overruns {
		if _, err := core.ParseOverrunPolicy(o); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
	}
	if math.IsNaN(s.MinPeriodMs) || s.MinPeriodMs < 0 || s.MinPeriodMs > 1e6 ||
		math.IsNaN(s.MaxPeriodMs) || s.MaxPeriodMs < 0 || s.MaxPeriodMs > 1e6 {
		return fmt.Errorf("corpus: period clamp [%v, %v] ms outside [0, 1e6]", s.MinPeriodMs, s.MaxPeriodMs)
	}
	if s.MaxPeriodMs > 0 && s.MinPeriodMs > s.MaxPeriodMs {
		return fmt.Errorf("corpus: min period %v ms above max %v ms", s.MinPeriodMs, s.MaxPeriodMs)
	}
	return nil
}

// ParseSpec decodes a Spec from JSON, rejecting unknown fields so typos
// in axis names fail loudly instead of silently falling back to
// defaults.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("corpus: spec: %w", err)
	}
	return &s, nil
}

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return ParseSpec(data)
}

// Digest returns a stable hex digest of the defaults-filled spec: the
// identity checkpoints and manifests are keyed by. Two specs digest
// equal iff they expand to the same corpus.
func (s *Spec) Digest() (string, error) {
	enc, err := json.Marshal(s.withDefaults())
	if err != nil {
		return "", fmt.Errorf("corpus: spec digest: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(specDomain))
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil)), nil
}
