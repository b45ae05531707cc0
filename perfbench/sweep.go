package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/expr"
	"rtmdm/internal/metrics"
	"rtmdm/internal/sim"
	"rtmdm/internal/workload"
)

// The paper-sweep workload runs every experiment of the evaluation
// harness at one fixed configuration. The harness memoizes models, plans,
// specs and offline verdicts in process-lived caches, and every
// rtmdm-bench run starts with them empty, so each sweep runs in a fresh
// child process of this binary; the parent repeats sweeps until the
// measured phase is over and reports medians.

// sweepSets and sweepHorizon sit between QuickConfig (12 sets, 150 ms)
// and DefaultConfig (200 sets, 400 ms): one sweep takes a few seconds.
const (
	sweepSets    = 24
	sweepHorizon = 200 * sim.Millisecond
)

func sweepConfig(seed int64) expr.Config {
	c := expr.QuickConfig()
	c.Sets = sweepSets
	c.MaxHorizon = sweepHorizon
	c.Seed = seed
	return c
}

// expTime is one experiment's host wall time.
type expTime struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"s"`
	Err     string  `json:"err,omitempty"`
}

// childResult is a child's one JSON line on stdout.
type childResult struct {
	Exps   []expTime          `json:"exps,omitempty"`
	WallS  float64            `json:"wall_s"`
	Digest string             `json:"digest,omitempty"`
	HeapMB float64            `json:"heap_mb"`
	Values map[string]float64 `json:"values,omitempty"`
	Pool   *readPool          `json:"pool,omitempty"`
}

// runChild is the child side: "sweep" runs every experiment once,
// "attrib" runs the layer replays on the sweep's generation parameters,
// "ref" times the host-speed kernel. The set-up kinds ("sweep-setup",
// "corpus-setup" and the service-mix read "pool") do their work before
// they report ready, so the parent's spawn-to-ready time is the set-up
// time. All start with empty caches because the process is fresh.
func runChild(kind string, seed int64, traced bool) error {
	var res childResult
	var err error
	switch kind {
	case "sweep-setup":
		err = sweepSetup(seed)
	case "corpus-setup":
		err = corpusSetup(seed)
	case "pool":
		res.Pool, err = buildPool(seed, runtime.NumCPU())
	}
	if err != nil {
		return err
	}
	fmt.Println("ready")
	switch kind {
	case "sweep-setup", "corpus-setup", "pool":
	case "sweep":
		res, err = sweepOnce(seed, traced)
	case "attrib":
		res, err = sweepAttribution(seed)
	case "ref":
		res.WallS = refKernel().Seconds()
	default:
		err = fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func sweepOnce(seed int64, traced bool) (childResult, error) {
	var rec *recorder
	var reg *metrics.Registry
	if traced {
		rec = newRecorder()
		reg = metrics.NewRegistry()
		instrumentAll(reg)
	}
	cfg := sweepConfig(seed)
	h := sha256.New()
	var res childResult
	var before metrics.Snapshot
	if reg != nil {
		before = reg.Snapshot()
	}
	start := time.Now()
	for i, e := range expr.All() {
		id := rec.begin("expr."+e.ID, -1, uint64(i))
		t0 := time.Now()
		tab, err := e.Run(cfg)
		et := expTime{ID: e.ID, Seconds: time.Since(t0).Seconds()}
		rec.end(id)
		if err != nil {
			et.Err = err.Error()
		} else {
			tab.CSV(h)
		}
		res.Exps = append(res.Exps, et)
	}
	res.WallS = time.Since(start).Seconds()
	res.Digest = hex.EncodeToString(h.Sum(nil))
	res.HeapMB = heapMB()
	if reg != nil {
		d := reg.Snapshot().Diff(before)
		c := func(n string) float64 { return counter(d, n) }
		res.Values = map[string]float64{
			"models.builds":            c("workload.model_cache_misses"),
			"workload.model_cache_hit": ratio(c("workload.model_cache_hits"), c("workload.model_cache_hits")+c("workload.model_cache_misses")),
			"workload.plan_cache_hit":  ratio(c("workload.plan_cache_hits"), c("workload.plan_cache_hits")+c("workload.plan_cache_misses")),
			"workload.spec_cache_hit":  ratio(c("workload.spec_cache_hits"), c("workload.spec_cache_hits")+c("workload.spec_cache_misses")),
			"expr.accept_cache_hit":    ratio(c("expr.accept_cache_hits"), c("expr.accept_cache_hits")+c("expr.accept_cache_misses")),
			"sim.events_per_run":       ratio(c("sim.events_fired"), c("exec.runs")),
		}
		instrumentAll(nil)
		path := filepath.Join(traceDir, fmt.Sprintf("paper-sweep-seed%d.json", seed))
		if err := writePerfetto(path, rec.snapshot()); err != nil {
			return res, err
		}
	}
	return res, nil
}

// sweepUtils mirrors the harness's utilization sweep points.
var sweepUtils = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// sweepParams is the harness's generation parameters for set k at
// utilization u (the seed formula of the expr sweeps).
func sweepParams(cfg expr.Config, k int64, u float64, plat cost.Platform) workload.Params {
	return workload.Params{Seed: cfg.Seed + k*7907 + int64(u*1000)*13 + int64(cfg.N),
		N: cfg.N, Util: u, Platform: plat}
}

// sweepSetupSets is the number of sets per utilization point that the
// paper-sweep set-up generates; the traced run replays attribSets of
// them layer by layer.
const (
	sweepSetupSets = 12
	attribSets     = 3
)

// sweepSetup is the paper-sweep set-up: in a fresh process, generate the
// sweep's first input sets from empty caches (models built, plans and
// specs cached) on nproc workers, then instantiate and provision each
// under RT-MDM. It runs in its own child so that every sweep still
// starts with empty caches. A draw the harness cannot use is skipped, as
// the harness skips it.
func sweepSetup(seed int64) error {
	cfg := sweepConfig(seed)
	plat := cost.STM32H743
	pol, err := core.PolicyByName("rt-mdm")
	if err != nil {
		return err
	}
	n := len(sweepUtils)
	parallelFor(sweepSetupSets*n, runtime.NumCPU(), func(i int) {
		sp, err := workload.Generate(sweepParams(cfg, int64(i/n), sweepUtils[i%n], plat))
		if err != nil {
			return
		}
		if set, err := sp.Instantiate(plat, pol); err == nil {
			_ = core.Provision(set, plat, pol) // an unprovisionable set is part of the draw
		}
	})
	return nil
}

// sweepAttribution replays the sweep's generation and evaluation layers
// on a sample of its own draws (three sets per utilization point, the
// harness's seed formula), timing workload.Generate, models.Build,
// segment.BuildLimits, the cold RT-MDM test and exec.Run.
func sweepAttribution(seed int64) (childResult, error) {
	reg := metrics.NewRegistry()
	instrumentAll(reg)
	defer instrumentAll(nil)
	rec := newRecorder()
	ev := &simEvents{reg: reg}
	cfg := sweepConfig(seed)
	plat := cost.STM32H743
	pol, err := core.PolicyByName("rt-mdm")
	if err != nil {
		return childResult{}, err
	}
	for k := int64(0); k < attribSets; k++ {
		for _, u := range sweepUtils {
			req := uint64(k)*100 + uint64(u*10)
			parent := rec.begin("attrib.set", -1, req)
			id := rec.begin("workload.generate", parent, req)
			sp, err := workload.Generate(sweepParams(cfg, k, u, plat))
			rec.end(id)
			if err != nil {
				rec.end(parent)
				continue
			}
			tms := make([]taskModel, len(sp.Tasks))
			for i, t := range sp.Tasks {
				tms[i] = taskModel{t.Model, t.Seed}
			}
			replayTasks(rec, parent, req, tms, plat, pol)
			set, err := sp.Instantiate(plat, pol)
			if err == nil && core.Provision(set, plat, pol) == nil {
				replayCold(rec, parent, req, set, plat, pol)
				ev.run(rec, parent, req, set, plat, pol, cfg.MaxHorizon)
			}
			rec.end(parent)
		}
	}
	spans := rec.snapshot()
	st := aggregate(spans, 0)
	v := map[string]float64{"workload.generate_ms": st["workload.generate"].meanMs()}
	layerValues(st, ev, v)
	delete(v, "sim.events_per_run") // the traced sweep counts these over the whole sweep
	path := filepath.Join(traceDir, fmt.Sprintf("paper-sweep-layers-seed%d.json", seed))
	return childResult{Values: v}, writePerfetto(path, spans)
}

// spawnChild runs one child and returns its result and its set-up
// time: from process start until the child reports it is ready.
func spawnChild(exe, kind string, seed int64, traced bool) (childResult, float64, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := osexec.Command(exe, "-child", kind, "-seed", strconv.FormatInt(seed, 10), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return childResult{}, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childResult{}, 0, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var setup float64
	var res childResult
	var parseErr error
	lines := 0
	for sc.Scan() {
		lines++
		if lines == 1 {
			setup = time.Since(start).Seconds()
			continue
		}
		parseErr = json.Unmarshal(sc.Bytes(), &res)
	}
	if err := cmd.Wait(); err != nil {
		return res, setup, fmt.Errorf("%s child: %w", kind, err)
	}
	if lines != 2 || parseErr != nil {
		return res, setup, fmt.Errorf("%s child: bad output (%d lines, %v)", kind, lines, parseErr)
	}
	return res, setup, nil
}

func runSweep(opt options) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{}}
	// Times are scaled to the calibration host's speed by the reference
	// kernel timed just before and just after each sweep (see hostref.go).
	// The set-up child runs just before each sweep, inside the same pair
	// of kernel timings.
	var setups, rawSetups, rates, heaps, plainWalls, tracedWalls, rawWalls, refs []float64
	perExp := map[string][]float64{}
	counts := map[string][]float64{}
	digests := map[string]int{}
	ref, err := hostRef(1)
	if err != nil {
		return nil, err
	}
	refs = append(refs, ref)
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline) || (opt.trace && i < 2); i++ {
		traced := opt.trace && i%2 == 1
		_, setup, err := spawnChild(exe, "sweep-setup", opt.seed, false)
		if err != nil {
			return nil, err
		}
		res, _, err := spawnChild(exe, "sweep", opt.seed, traced)
		if err != nil {
			return nil, err
		}
		next, err := hostRef(1)
		if err != nil {
			return nil, err
		}
		refs = append(refs, next)
		scale := refNominalS / ((ref + next) / 2)
		ref = next
		wall := res.WallS * scale
		setups = append(setups, setup*scale)
		rawSetups = append(rawSetups, setup)
		heaps = append(heaps, res.HeapMB)
		digests[res.Digest]++
		n := 0
		for _, e := range res.Exps {
			out.attempted++
			if e.Err != "" {
				out.failed++
				out.fail("experiment %s: %s", e.ID, e.Err)
				continue
			}
			n++
			if traced || !opt.trace {
				perExp[e.ID] = append(perExp[e.ID], e.Seconds)
			}
		}
		if traced {
			tracedWalls = append(tracedWalls, wall)
			for k, v := range res.Values {
				counts[k] = append(counts[k], v)
			}
		} else {
			plainWalls = append(plainWalls, wall)
			rawWalls = append(rawWalls, res.WallS)
			rates = append(rates, float64(n)/wall)
		}
	}
	checkSweepDigest(out, opt.seed, digests)

	v := out.values
	v["setup_s"] = median(setups)
	v["ops_per_s"] = median(rates)
	// One operation of this workload is a whole sweep: its latency is
	// the sweep's wall time.
	v["p50_ms"] = median(plainWalls) * 1e3
	v["raw.p50_ms"] = median(rawWalls) * 1e3
	v["host.ref_s"] = median(refs)
	v["op.p99_ms"] = quantile(plainWalls, 0.99) * 1e3
	v["heap_mb"] = median(heaps)
	if opt.trace {
		for _, id := range expIDs {
			v["expr."+id+"_s"] = median(perExp[id])
		}
		for k, xs := range counts {
			v[k] = median(xs)
		}
		v["trace.overhead_frac"] = median(tracedWalls)/median(plainWalls) - 1
		attrib, _, err := spawnChild(exe, "attrib", opt.seed, true)
		if err != nil {
			return nil, err
		}
		for k, x := range attrib.Values {
			v[k] = x
		}
	}
	fmt.Fprintf(os.Stderr, "paper-sweep: %d sweeps, median wall %.3fs raw, %.3fs scaled; set-up %.4fs raw; host reference %.3fs\n",
		len(plainWalls)+len(tracedWalls), median(rawWalls), median(plainWalls), median(rawSetups), median(refs))
	return out, nil
}

// checkSweepDigest requires every sweep of the run to render the same
// tables, and those tables to hash to the digest recorded for the seed
// where one is recorded.
func checkSweepDigest(out *outcome, seed int64, digests map[string]int) {
	if len(digests) != 1 {
		out.fail("paper-sweep: %d distinct table digests across sweeps of one seed", len(digests))
		return
	}
	for d := range digests {
		if want, ok := sweepDigests[seed]; ok && d != want {
			out.fail("paper-sweep: table digest %s, recorded %s for seed %d", d, want, seed)
		}
		fmt.Fprintf(os.Stderr, "paper-sweep: seed %d table digest %s\n", seed, d)
	}
}
