// Corpus-backed traffic: -corpus <spec> swaps the hand-authored
// scenario/task builders for instances drawn from a generated scenario
// corpus (internal/corpus), so serve and cluster load reflects the same
// axis diversity the differential harness sweeps. Selection is
// seed-deterministic: variant v always maps to the same corpus index
// for a given (-seed, spec), so same-seed runs stay byte-identical.
package main

import (
	"encoding/json"
	"fmt"

	"rtmdm/internal/core"
	"rtmdm/internal/corpus"
	"rtmdm/internal/scenario"
)

// corpusSrc is set by main when -corpus is given; the body builders in
// main.go and the cluster fill schedule consult it.
var corpusSrc *corpusSource

type corpusSource struct {
	gen  *corpus.Generator
	seed int64
}

// newCorpusSource resolves the -corpus argument: the presets "smoke" /
// "default", or a spec file path. count > 0 overrides the spec's count.
func newCorpusSource(arg string, count int, seed int64) (*corpusSource, error) {
	var spec *corpus.Spec
	var err error
	switch arg {
	case "smoke":
		spec = corpus.SmokeSpec()
	case "default":
		spec = corpus.DefaultSpec()
	default:
		spec, err = corpus.LoadSpec(arg)
		if err != nil {
			return nil, err
		}
	}
	if count > 0 {
		spec.Count = count
	}
	gen, err := corpus.NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	return &corpusSource{gen: gen, seed: seed}, nil
}

// instance maps a variant onto a corpus item, walking forward past the
// rare indices whose axis draw has no feasible workload.
func (s *corpusSource) instance(variant int) (corpus.Item, bool) {
	n := s.gen.Count()
	idx := int(core.Mix64(uint64(s.seed)^uint64(variant)*0x9e3779b97f4a7c15) % uint64(n))
	for k := 0; k < 4; k++ {
		it, err := s.gen.At((idx + k) % n)
		if err == nil {
			return it, true
		}
	}
	return corpus.Item{}, false
}

// scenarioJSON renders the corpus scenario for a variant. Falls back to
// the hand-authored builder when no nearby index generates.
func (s *corpusSource) scenarioJSON(variant int) (string, bool) {
	it, ok := s.instance(variant)
	if !ok {
		return "", false
	}
	data, err := json.Marshal(it.Scenario)
	if err != nil {
		return "", false
	}
	return string(data), true
}

// admitTask draws one task from the variant's corpus scenario for
// admission traffic, renamed so per-node task sets keep unique names.
// Offsets are cleared: admission sets are long-lived, not phased runs.
func (s *corpusSource) admitTask(variant int, name string) (scenario.TaskSpec, bool) {
	it, ok := s.instance(variant)
	if !ok || len(it.Scenario.Tasks) == 0 {
		return scenario.TaskSpec{}, false
	}
	t := it.Scenario.Tasks[int(core.Mix64(uint64(variant)*0xe7037ed1a0b428db)%uint64(len(it.Scenario.Tasks)))]
	t.Name = name
	t.OffsetMs = 0
	return t, true
}

// admitTaskJSON marshals an admission request around a corpus-drawn
// task.
func (s *corpusSource) admitTaskJSON(id uint64, node string, variant int, name string) (string, bool) {
	t, ok := s.admitTask(variant, name)
	if !ok {
		return "", false
	}
	task, err := json.Marshal(t)
	if err != nil {
		return "", false
	}
	return fmt.Sprintf(`{"request_id": %d, "node": %q, "task": %s}`, id, node, task), true
}
