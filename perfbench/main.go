// Command perfbench is the repository benchmark. It runs one workload
// for a fixed number of seconds against the code as it stands, checks
// the outputs, and prints one JSON result line:
//
//	go run . --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads: paper-sweep (every experiment of the evaluation harness),
// corpus (the differential oracle over the smoke corpus) and service-mix
// (a gateway and two admission shards over loopback, open-loop load).
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, and the spans are written
// as trace-event JSON under .bench_build/traces/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"rtmdm/internal/expr"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"heap_mb", "MB"},
}

// expIDs fixes the per-experiment metric names (expr.<ID>_s).
var expIDs = []string{"T1", "F2", "F3", "F4", "F5", "F6", "F7", "T8", "T9", "F10",
	"T11", "F12", "F13", "T13", "T15", "T16", "T17", "T18", "F19", "F20",
	"T21", "T22", "T23", "T24", "T25"}

// perLayer lists the per-layer metrics of the traced run. Every workload
// reports all of them; a layer the workload bypasses reads 0.
func perLayer() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"models.build_ms", "ms"}, {"models.builds", "count"},
		{"workload.model_cache_hit", "ratio"}, {"workload.plan_cache_hit", "ratio"},
		{"workload.spec_cache_hit", "ratio"}, {"workload.generate_ms", "ms"},
		{"segment.build_us", "us"},
		{"scenario.parse_us", "us"}, {"scenario.hash_us", "us"}, {"scenario.build_ms", "ms"},
		{"analysis.cold_ms", "ms"}, {"analysis.incremental_us", "us"}, {"analysis.warm_hit", "ratio"},
		{"exec.run_ms", "ms"}, {"sim.events_per_run", "count"}, {"sim.host_ns_per_event", "ns"},
		{"expr.accept_cache_hit", "ratio"},
	}
	for _, id := range expIDs {
		out = append(out, struct{ name, unit string }{"expr." + id + "_s", "s"})
	}
	out = append(out, []struct{ name, unit string }{
		{"corpus.generate_ms", "ms"}, {"corpus.check_ms", "ms"},
		{"corpus.sim_runs", "count"}, {"corpus.faulted_runs", "count"},
		{"server.admit_handler_ms", "ms"}, {"server.read_handler_ms", "ms"},
		{"server.cache_hit", "ratio"}, {"server.admit_batch_size", "count"},
		{"server.rejected_busy", "count"},
		{"cluster.gateway_self_ms", "ms"}, {"cluster.shard_rtt_ms", "ms"},
		{"cluster.admit_batch_size", "count"}, {"cluster.retries", "count"},
		{"service.admit_p50_ms", "ms"}, {"service.admit_p99_ms", "ms"},
		{"service.read_p50_ms", "ms"}, {"service.read_p99_ms", "ms"},
		{"service.admitted_share", "ratio"},
		{"stage.client_wait_ms", "ms"}, {"stage.gateway_self_ms", "ms"},
		{"stage.shard_hop_ms", "ms"}, {"stage.shard_handler_ms", "ms"},
		{"stage.analysis_floor_ms", "ms"}, {"stage.unattributed_ms", "ms"},
		{"stage.sum_frac", "ratio"},
		{"client.lateness_p99_ms", "ms"}, {"trace.overhead_frac", "ratio"},
		{"op.p99_ms", "ms"}, {"raw.p50_ms", "ms"}, {"host.ref_s", "s"},
	}...)
	return out
}

// outcome is what a workload hands back to main: counts, the raw metric
// values by name, and the failed output checks.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	problems          []string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// workloads maps names to runners.
var workloads = map[string]func(options) (*outcome, error){
	"paper-sweep": runSweep,
	"corpus":      runCorpus,
	"service-mix": runService,
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: paper-sweep, corpus or service-mix")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child   = flag.String("child", "", "internal: run one child (sweep, attrib, ref, sweep-setup, corpus-setup or pool)")
	)
	flag.Parse()
	if *child != "" {
		if err := runChild(*child, *seed, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {paper-sweep|corpus|service-mix}, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	opt := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1}
	printEnv(opt)
	out, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(report(opt, out))
}

// report prints the result line and returns the exit code: 1 when an
// output check failed or a metric is missing.
func report(opt options, out *outcome) int {
	names := endToEnd
	if opt.trace {
		names = perLayer()
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted,
		Failed: out.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v := out.values[m.name] // a layer the workload bypasses reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.fail("metric %s is not finite", m.name)
			v = 0
		}
		if !opt.trace && v <= 0 {
			out.fail("end-to-end metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		out.fail("no operation attempted")
	}
	res.Correct = len(out.problems) == 0
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printEnv prints the environment record that accompanies every result.
func printEnv(opt options) {
	env := map[string]any{
		"go":          runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":         cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"workload":    opt.workload,
		"seed":        opt.seed,
		"seconds":     opt.seconds,
		"trace":       opt.trace,
		"service_rps": serviceRate,
		"experiments": len(expr.All()),
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Println("env " + string(b))
}

// cpuModel reads the CPU model name where the OS exposes it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
