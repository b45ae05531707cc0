package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rtmdm/internal/corpus"
	"rtmdm/internal/metrics"
)

// The corpus workload runs the differential oracle (cold vs incremental
// verdict parity, schedulable ⇒ no simulated misses, crash-freedom under
// faults) over consecutive instances of the pinned smoke corpus, seeded
// from --seed, on nproc workers, from empty caches.

const (
	// corpusCount fixes the spec's instance count (part of its digest);
	// a run checks a prefix of it.
	corpusCount = 100000
	// corpusDigestN is the prefix whose manifest digest is checked.
	corpusDigestN = 128
	// corpusHeapAt is the number of completed checks after which the live
	// heap is measured, so the reported heap reflects a fixed amount of
	// work whatever the throughput (the corpus fills process-lived memo
	// caches as it goes). Every run checks at least this many instances,
	// which also covers the digest prefix.
	corpusHeapAt = 1000
	// corpusSample is the prefix replayed layer by layer in traced runs.
	corpusSample = 48
	// corpusChunk is the length of one measured chunk between two timings
	// of the host-speed kernel.
	corpusChunk = 4 * time.Second
	// corpusSetupN is the number of instances the set-up generates.
	corpusSetupN = 128
)

func corpusSpec(seed int64) *corpus.Spec {
	s := corpus.SmokeSpec()
	s.Seed = seed
	s.Count = corpusCount
	return s
}

// checkRecord is the part of an outcome the run keeps for every check.
type checkRecord struct {
	dur       time.Duration
	class     string
	supported bool
	warm      bool
}

// corpusSetup is the corpus set-up of one checking process: construct
// the generator and the oracle and generate the first corpusSetupN
// instances, the inputs of the first checks, from empty caches on nproc
// workers. It runs in a child (see runChild) so that the measured
// process's caches stay empty.
func corpusSetup(seed int64) error {
	gen, err := corpus.NewGenerator(corpusSpec(seed))
	if err != nil {
		return err
	}
	corpus.NewOracle(gen)
	errs := make([]error, corpusSetupN)
	parallelFor(corpusSetupN, runtime.NumCPU(), func(i int) {
		_, errs[i] = gen.At(i)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("corpus set-up: instance %d: %w", i, err)
		}
	}
	return nil
}

func runCorpus(opt options) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	gen, err := corpus.NewGenerator(corpusSpec(opt.seed))
	if err != nil {
		return nil, err
	}
	oracle := corpus.NewOracle(gen)

	var rec *recorder
	var reg *metrics.Registry
	if opt.trace {
		rec = newRecorder()
		reg = metrics.NewRegistry()
		instrumentAll(reg)
	}
	var before metrics.Snapshot
	if reg != nil {
		before = reg.Snapshot()
	}

	ctx := context.Background()
	workers := runtime.NumCPU()
	prefix := make([]corpus.Outcome, corpusDigestN)
	records := make([][]checkRecord, workers)
	var next, completed atomic.Int64
	var heap float64
	// The measured phase runs in chunks with the host-speed kernel timed
	// between them (see hostref.go); each chunk's time and check
	// latencies are scaled by the kernel times on either side of it. A
	// set-up child runs just before each chunk and is scaled the same way.
	ref, err := hostRef(1)
	if err != nil {
		return nil, err
	}
	refs := []float64{ref}
	var lat, rawLat, setups, rawSetups []float64
	var supported, warm float64
	classes := map[string]int{}
	var elapsed, scaled time.Duration
	for elapsed < time.Duration(opt.seconds)*time.Second || next.Load() < corpusHeapAt {
		_, setup, err := spawnChild(exe, "corpus-setup", opt.seed, false)
		if err != nil {
			return nil, err
		}
		chunkStart := time.Now()
		chunkEnd := chunkStart.Add(corpusChunk)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for time.Now().Before(chunkEnd) {
					i := int(next.Add(1) - 1)
					id := rec.begin("corpus.check", -1, uint64(i))
					t0 := time.Now()
					o := oracle.Check(ctx, i)
					d := time.Since(t0)
					rec.end(id)
					if i < corpusDigestN {
						prefix[i] = o
					}
					records[w] = append(records[w], checkRecord{dur: d, class: o.Class,
						supported: o.Class == corpus.ClassOK || o.Class == corpus.ClassViolation, warm: o.Warm})
					if completed.Add(1) == corpusHeapAt {
						heap = heapMB()
					}
				}
			}(w)
		}
		wg.Wait()
		chunk := time.Since(chunkStart)
		nextRef, err := hostRef(1)
		if err != nil {
			return nil, err
		}
		scale := refNominalS / ((ref + nextRef) / 2)
		ref = nextRef
		refs = append(refs, nextRef)
		elapsed += chunk
		scaled += time.Duration(float64(chunk) * scale)
		setups = append(setups, setup*scale)
		rawSetups = append(rawSetups, setup)
		for w, rs := range records {
			for _, r := range rs {
				lat = append(lat, ms(r.dur)*scale)
				rawLat = append(rawLat, ms(r.dur))
			}
			records[w] = rs[:0]
			classesAdd(classes, &supported, &warm, rs)
		}
	}
	var after metrics.Snapshot
	if reg != nil {
		after = reg.Snapshot()
	}
	out.attempted = int64(len(lat))
	out.failed = int64(classes[corpus.ClassViolation] + classes[corpus.ClassGenerateError] + classes[corpus.ClassCanceled])
	if n := classes[corpus.ClassViolation]; n > 0 {
		out.fail("corpus: %d oracle violations", n)
	}
	if n := classes[corpus.ClassGenerateError]; n > 0 {
		out.fail("corpus: %d generate errors", n)
	}
	checkCorpusDigest(ctx, out, opt.seed, gen, oracle, prefix)
	fmt.Fprintf(os.Stderr, "corpus: %d checks in %.2fs on %d workers (%.1f/s raw), classes %v; set-up %.4fs raw; host reference %.3fs\n",
		len(lat), elapsed.Seconds(), workers, float64(len(lat))/elapsed.Seconds(), classes, median(rawSetups), median(refs))

	v := out.values
	v["setup_s"] = median(setups)
	v["ops_per_s"] = float64(len(lat)) / scaled.Seconds()
	v["p50_ms"] = quantile(lat, 0.50)
	v["raw.p50_ms"] = quantile(rawLat, 0.50)
	v["host.ref_s"] = median(refs)
	v["op.p99_ms"] = quantile(lat, 0.99)
	v["heap_mb"] = heap
	if opt.trace {
		d := after.Diff(before)
		c := func(n string) float64 { return counter(d, n) }
		checks := float64(len(lat))
		v["models.builds"] = c("workload.model_cache_misses")
		v["workload.model_cache_hit"] = ratio(c("workload.model_cache_hits"), c("workload.model_cache_hits")+c("workload.model_cache_misses"))
		v["workload.plan_cache_hit"] = ratio(c("workload.plan_cache_hits"), c("workload.plan_cache_hits")+c("workload.plan_cache_misses"))
		v["workload.spec_cache_hit"] = ratio(c("workload.spec_cache_hits"), c("workload.spec_cache_hits")+c("workload.spec_cache_misses"))
		v["sim.events_per_run"] = ratio(c("sim.events_fired"), c("exec.runs"))
		v["corpus.sim_runs"] = ratio(c("corpus.sim_runs"), checks)
		v["corpus.faulted_runs"] = ratio(c("corpus.faulted_runs"), checks)
		v["analysis.warm_hit"] = ratio(warm, supported)
		v["corpus.check_ms"] = aggregate(rec.snapshot(), 0)["corpus.check"].meanMs()
		if err := corpusAttribution(ctx, rec, reg, gen, oracle, v); err != nil {
			return nil, err
		}
		instrumentAll(nil)
		path := filepath.Join(traceDir, fmt.Sprintf("corpus-seed%d.json", opt.seed))
		if err := writePerfetto(path, rec.snapshot()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// classesAdd folds one chunk's records into the class counts and the
// warm-start tally.
func classesAdd(classes map[string]int, supported, warm *float64, rs []checkRecord) {
	for _, r := range rs {
		classes[r.class]++
		if r.supported {
			*supported++
			if r.warm {
				*warm++
			}
		}
	}
}

// checkCorpusDigest checks the manifest digest of the run's prefix: it
// must match the digest recorded for the seed where one is recorded, and
// re-checking the prefix on one worker must reproduce it (the corpus
// runner's worker-count independence contract).
func checkCorpusDigest(ctx context.Context, out *outcome, seed int64, gen *corpus.Generator, oracle *corpus.Oracle, prefix []corpus.Outcome) {
	got := corpus.ManifestDigest(gen, prefix)
	fmt.Fprintf(os.Stderr, "corpus: seed %d manifest digest %s\n", seed, got)
	if want, ok := corpusDigests[seed]; ok && got != want {
		out.fail("corpus: manifest digest %s, recorded %s for seed %d", got, want, seed)
	}
	seq := make([]corpus.Outcome, len(prefix))
	for i := range seq {
		seq[i] = oracle.Check(ctx, i)
	}
	if again := corpus.ManifestDigest(gen, seq); again != got {
		out.fail("corpus: manifest digest %s on %d workers but %s on one", got, runtime.NumCPU(), again)
	}
}

// corpusAttribution replays the prefix layer by layer: the generator,
// then the scenario path (parse, hash, build, model and segment builds,
// cold and incremental analysis, simulation). It also measures the
// tracing overhead by checking each sampled instance twice, once with
// instrumentation and a span and once without, in alternating order.
func corpusAttribution(ctx context.Context, rec *recorder, reg *metrics.Registry, gen *corpus.Generator, oracle *corpus.Oracle, v map[string]float64) error {
	ev := &simEvents{reg: reg}
	base := uint64(corpusCount)
	for i := 0; i < corpusSample; i++ {
		req := base + uint64(i)
		parent := rec.begin("attrib.scenario", -1, req)
		id := rec.begin("corpus.generate", parent, req)
		item, err := gen.At(i)
		rec.end(id)
		if err != nil {
			rec.end(parent)
			return fmt.Errorf("corpus: regenerate %d: %w", i, err)
		}
		raw, err := json.Marshal(item.Scenario)
		if err != nil {
			rec.end(parent)
			return err
		}
		replayScenario(ctx, rec, ev, parent, req, raw)
		rec.end(parent)
	}
	st := aggregate(rec.snapshot(), 0)
	v["corpus.generate_ms"] = st["corpus.generate"].meanMs()
	sim := v["sim.events_per_run"]
	layerValues(st, ev, v)
	v["sim.events_per_run"] = sim

	var plain, traced time.Duration
	for i := 0; i < corpusSample; i++ {
		for k := 0; k < 2; k++ {
			on := (i+k)%2 == 0
			if on {
				instrumentAll(reg)
			} else {
				instrumentAll(nil)
			}
			t0 := time.Now()
			id := -1
			if on {
				id = rec.begin("overhead.check", -1, base+uint64(i))
			}
			oracle.Check(ctx, i)
			rec.end(id)
			if on {
				traced += time.Since(t0)
			} else {
				plain += time.Since(t0)
			}
		}
	}
	v["trace.overhead_frac"] = float64(traced)/float64(plain) - 1
	return nil
}
