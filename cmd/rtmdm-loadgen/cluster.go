// cluster.go implements rtmdm-loadgen's -cluster mode: a fixed-work,
// seed-deterministic drive of an rtmdm-gateway fronting N rtmdm-serve
// shards. Every admission a node will see — fill tasks, probe
// add/remove cycles, their periods — is a pure function of (seed, node),
// issued strictly in per-node sequence order, so the sorted admission
// log is byte-identical across runs with the same seed and shard count
// even under retries, shard restarts, and arbitrary cross-node
// interleaving. Chaos (shard kills via -chaos-cmd) follows the same
// deterministic hash-decision style as internal/fault: which tick kills
// which shard is drawn from the seed, never from a sequential RNG
// consumed by racing goroutines.
package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtmdm/internal/cluster"
)

// clusterCfg collects the -cluster* flags.
type clusterCfg struct {
	shards      int // ring size mirrored from the gateway (-cluster-shards)
	replicas    int
	nodes       int
	fill        int     // tasks committed per node
	probes      int     // probe add/remove cycles per cold node
	hotNodes    float64 // fraction of nodes receiving hotBoost× probes
	seed        int64
	weights     map[string]int // tenant -> weight; nil = untagged requests
	concurrency int
	logPath     string
	chaosRate   float64 // per-tick kill probability
	chaosCmd    string  // command template, {shard} substituted
	chaosTick   time.Duration
}

// hotBoost is the probe-cycle multiplier for hot nodes: the skew the
// gateway's per-shard fan-out must absorb without starving cold nodes.
const hotBoost = 4

// cmix is the splitmix64 finalizer (same mixer as internal/fault).
func cmix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// cdraw hashes one decision point (seed, domain string, two indices)
// into a uniform uint64, mirroring internal/fault's draw: every random
// choice is an independent hash of its coordinates, so concurrent
// workers never contend for — or reorder — a shared random stream.
func cdraw(seed int64, domain string, a, b int64) uint64 {
	h := cmix(uint64(seed)*0x9e3779b97f4a7c15 + 0x636c7573746572) // "cluster"
	for i := 0; i < len(domain); i++ {
		h = (h ^ uint64(domain[i])) * 1099511628211 // FNV-1a step
	}
	h = cmix(h ^ uint64(a)*0xa24baed4963ee407)
	h = cmix(h ^ uint64(b)*0x9fb21c651e98df25)
	return h
}

// cunit maps a hash to a uniform float in [0, 1).
func cunit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// tenantFor assigns a node to a tenant, weighted by the configured
// tenant weights. The draw is seed-independent so the tenant mix — and
// with it the fairness ratios CI asserts on — depends only on the node
// names and the weight table.
func tenantFor(node string, weights map[string]int) string {
	if len(weights) == 0 {
		return ""
	}
	names := make([]string, 0, len(weights))
	sum := 0
	for name, w := range weights {
		names = append(names, name)
		sum += w
	}
	sort.Strings(names)
	pick := int(cdraw(0, "tenant:"+node, 0, 0) % uint64(sum))
	for _, name := range names {
		pick -= weights[name]
		if pick < 0 {
			return name
		}
	}
	return names[len(names)-1]
}

// clusterOp is one step of a node's deterministic admission schedule.
type clusterOp struct {
	seq    int
	kind   string // "add" | "remove"
	task   string
	period float64
	// model overrides the default fill model ("" = tinymlp); set when
	// -corpus draws the fill tasks from generated scenarios.
	model string
}

// nodeSchedule derives node idx's full operation list from the seed:
// a fill phase committing cfg.fill tasks in descending period order
// (all admissible, matching the churn mode's feasible ladder), then
// probe cycles whose candidate periods are drawn per (seed, node,
// cycle) — tight enough that some are rejected, so the log exercises
// both verdicts. Hot nodes (the first hotNodes fraction) run hotBoost×
// as many cycles.
func nodeSchedule(cfg clusterCfg, idx int, node string) []clusterOp {
	var ops []clusterOp
	seq := 0
	push := func(kind, task string, period float64) {
		ops = append(ops, clusterOp{seq: seq, kind: kind, task: task, period: period})
		seq++
	}
	for f := 0; f < cfg.fill; f++ {
		name := fmt.Sprintf("t%02d", f)
		period := float64(40 + 5*(cfg.fill-1-f))
		// With -corpus the fill tasks come from generated scenarios:
		// model and period drawn per (seed, node, slot), so same-seed
		// admit logs stay byte-identical while the committed sets
		// reflect real corpus mixes (rejections are legitimate outcomes
		// here, unlike the always-admissible default ladder).
		if corpusSrc != nil {
			if t, ok := corpusSrc.admitTask(idx*257+f, name); ok {
				ops = append(ops, clusterOp{seq: seq, kind: "add", task: name, period: t.PeriodMs, model: t.Model})
				seq++
				continue
			}
		}
		push("add", name, period)
	}
	cycles := cfg.probes
	if float64(idx) < cfg.hotNodes*float64(cfg.nodes) {
		cycles *= hotBoost
	}
	for cyc := 0; cyc < cycles; cyc++ {
		period := 24 + float64(cdraw(cfg.seed, "probe:"+node, int64(cyc), 0)%14)
		push("add", "probe", period)
		push("remove", "probe", 0)
	}
	return ops
}

// clusterSample is one completed operation with its routing labels.
type clusterSample struct {
	node    string
	tenant  string
	shard   int
	seq     int
	kind    string
	outcome string
	lat     time.Duration
	retries int
}

// clusterAdmit posts one admission through the gateway, retrying
// transport errors and retryable statuses (429/502/503/504) with
// doubling backoff. Retries are how the generator rides out quota
// pushback, degraded shards, and chaos restarts; attempts is returned
// so the caller can normalize duplicate-delivery outcomes.
func clusterAdmit(c *client, body, tenant string, deadline time.Duration) (res admitResult, attempts int, lat time.Duration, err error) {
	backoff := 100 * time.Millisecond
	until := time.Now().Add(deadline)
	for {
		attempts++
		req, rerr := http.NewRequest(http.MethodPost, c.base+"/v1/admit", strings.NewReader(body))
		if rerr != nil {
			return res, attempts, 0, rerr
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(cluster.TenantHeader, tenant)
		}
		start := time.Now()
		resp, derr := c.http.Do(req)
		lat = time.Since(start)
		if derr == nil {
			status := resp.StatusCode
			if status == http.StatusOK {
				if err = decodeInto(resp, &res); err == nil {
					return res, attempts, lat, nil
				}
				// A 200 whose body does not parse is a tampered or
				// truncated response (the chaos transport guarantees
				// corruption always breaks JSON framing): retry it like
				// a transport error — the server committed, so the
				// duplicate-delivery normalization absorbs the repeat.
			} else {
				drainClose(resp)
				if !clusterRetryable(status) {
					return res, attempts, lat, fmt.Errorf("status %d", status)
				}
			}
		}
		if time.Now().After(until) {
			if derr != nil {
				return res, attempts, lat, fmt.Errorf("retries exhausted: %w", derr)
			}
			return res, attempts, lat, fmt.Errorf("retries exhausted after %d attempts", attempts)
		}
		time.Sleep(backoff)
		if backoff < 800*time.Millisecond {
			backoff *= 2
		}
	}
}

func clusterRetryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// runCluster executes the full deterministic schedule against the
// gateway and fills rep with the per-shard / per-tenant breakdown.
// Returns an error only for non-deterministic failures (hard HTTP
// errors, retry exhaustion, outcome contradictions).
func runCluster(c *client, cfg clusterCfg, rep *report) error {
	ring, err := cluster.NewRing(cfg.shards, cfg.replicas)
	if err != nil {
		return err
	}

	type nodeWork struct {
		name   string
		tenant string
		shard  int
		ops    []clusterOp
	}
	work := make([]nodeWork, cfg.nodes)
	for i := range work {
		name := fmt.Sprintf("cn-%03d", i)
		work[i] = nodeWork{
			name:   name,
			tenant: tenantFor(name, cfg.weights),
			shard:  ring.Shard(name),
			ops:    nodeSchedule(cfg, i, name),
		}
	}

	chaosStop, chaosKills := startChaos(cfg)
	defer chaosStop()

	col := struct {
		sync.Mutex
		samples []clusterSample
	}{}
	errCh := make(chan error, cfg.concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		var mine []nodeWork
		for i := w; i < len(work); i += cfg.concurrency {
			mine = append(mine, work[i])
		}
		if len(mine) == 0 {
			continue
		}
		wg.Add(1)
		go func(mine []nodeWork) {
			defer wg.Done()
			// Round-robin across owned nodes so a hot node's long
			// schedule does not serialize behind its siblings; within a
			// node, ops run strictly in seq order (the determinism
			// contract: each node's decisions depend only on its own
			// history).
			admitted := make(map[string]bool, len(mine)) // node -> last add verdict
			for round := 0; ; round++ {
				busy := false
				for _, nw := range mine {
					if round >= len(nw.ops) {
						continue
					}
					busy = true
					op := nw.ops[round]
					s, err := runClusterOp(c, nw.name, nw.tenant, nw.shard, op, admitted)
					if err != nil {
						select {
						case errCh <- fmt.Errorf("%s seq %d: %w", nw.name, op.seq, err):
						default:
						}
						return
					}
					col.Lock()
					col.samples = append(col.samples, s)
					col.Unlock()
				}
				if !busy {
					return
				}
			}
		}(mine)
	}
	wg.Wait()
	wall := time.Since(start)
	chaosStop()
	select {
	case err := <-errCh:
		return err
	default:
	}

	if cfg.logPath != "" {
		if err := writeAdmitLog(cfg.logPath, col.samples); err != nil {
			return err
		}
	}
	fillClusterReport(rep, cfg, col.samples, wall, int(chaosKills.Load()))
	return nil
}

// runClusterOp issues one schedule step and maps the response to a
// deterministic outcome string. Duplicate deliveries caused by retries
// ("already committed" on an add, "not committed" on a remove whose add
// was admitted) normalize to the first-delivery outcome; the same
// responses without a retry in flight are contradictions and fail the
// run.
func runClusterOp(c *client, node, tenant string, shard int, op clusterOp, admitted map[string]bool) (clusterSample, error) {
	var body string
	if op.kind == "add" {
		if op.model != "" {
			body = fmt.Sprintf(`{"request_id": %d, "node": %q, "task": {"name": %q, "model": %q, "period_ms": %g}}`,
				op.seq+1, node, op.task, op.model, op.period)
		} else {
			body = churnAddBody(uint64(op.seq+1), node, op.task, op.period)
		}
	} else {
		body = churnRemoveBody(uint64(op.seq+1), node, op.task)
	}
	res, attempts, lat, err := clusterAdmit(c, body, tenant, 30*time.Second)
	if err != nil {
		return clusterSample{}, err
	}
	s := clusterSample{
		node: node, tenant: tenant, shard: shard,
		seq: op.seq, kind: op.kind, lat: lat, retries: attempts - 1,
	}
	switch op.kind {
	case "add":
		switch {
		case res.Admitted:
			s.outcome = "admitted"
		case attempts > 1 && strings.Contains(res.Reason, "already committed"):
			s.outcome = "admitted" // retry duplicate: first delivery won
		default:
			s.outcome = "rejected"
		}
		admitted[node] = s.outcome == "admitted"
	case "remove":
		wasAdmitted := admitted[node]
		switch {
		case res.Removed:
			s.outcome = "removed"
		case !wasAdmitted:
			s.outcome = "noop" // matching add was rejected; nothing to remove
		case attempts > 1 && strings.Contains(res.Reason, "not committed"):
			s.outcome = "removed" // retry duplicate of a successful remove
		default:
			return s, fmt.Errorf("remove of admitted task failed: %q", res.Reason)
		}
	}
	return s, nil
}

// startChaos launches the seed-driven shard-kill loop when -chaos-cmd
// and -chaos-rate are set: at tick t, kill shard (draw % shards) iff
// unit(draw(seed, "chaos", t)) < rate. The victim sequence is a pure
// function of the seed; only the wall-clock moment each kill lands
// varies, which the determinism contract tolerates by construction.
func startChaos(cfg clusterCfg) (stop func(), kills *atomic.Int64) {
	kills = &atomic.Int64{}
	if cfg.chaosCmd == "" || cfg.chaosRate <= 0 {
		return func() {}, kills
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		for tick := int64(0); ; tick++ {
			select {
			case <-done:
				return
			case <-time.After(cfg.chaosTick):
			}
			h := cdraw(cfg.seed, "chaos", tick, 0)
			if cunit(h) >= cfg.chaosRate {
				continue
			}
			victim := int(cmix(h) % uint64(cfg.shards))
			cmdline := strings.ReplaceAll(cfg.chaosCmd, "{shard}", fmt.Sprint(victim))
			out, err := exec.Command("sh", "-c", cmdline).CombinedOutput()
			if err != nil {
				fmt.Fprintf(os.Stderr, "rtmdm-loadgen: chaos %q: %v\n%s", cmdline, err, out)
				continue
			}
			kills.Add(1)
			fmt.Printf("rtmdm-loadgen: chaos killed shard %d (tick %d)\n", victim, tick)
		}
	}()
	return func() { once.Do(func() { close(done) }) }, kills
}

// writeAdmitLog writes the sorted admission log: one line per op, keyed
// (shard, node, seq). With a fixed seed and shard count the file is
// byte-identical across runs — the cluster smoke diffs two runs to
// prove per-shard determinism under fan-out, retries, and chaos.
func writeAdmitLog(path string, samples []clusterSample) error {
	lines := make([]string, len(samples))
	for i, s := range samples {
		lines[i] = fmt.Sprintf("shard=%02d node=%s seq=%03d op=%-6s task=%s outcome=%s",
			s.shard, s.node, s.seq, s.kind, taskOf(s), s.outcome)
	}
	sort.Strings(lines)
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// taskOf recovers the task label for the log line from the sample's
// position in its node's schedule (fill adds are t%02d, probes are
// "probe"), keeping the log self-describing without widening the
// sample struct.
func taskOf(s clusterSample) string {
	if s.kind == "add" && s.seq < clusterFillOps {
		return fmt.Sprintf("t%02d", s.seq)
	}
	return "probe"
}

// clusterFillOps is set by main before runCluster so taskOf can tell
// fill adds from probe ops without re-deriving schedules.
var clusterFillOps int

// fillClusterReport aggregates samples into the JSON report's total,
// per-shard, and per-tenant sections.
func fillClusterReport(rep *report, cfg clusterCfg, samples []clusterSample, wall time.Duration, chaosKills int) {
	rep.Mode = "cluster"
	rep.Seed = cfg.seed
	rep.DurationS = wall.Seconds()
	rep.ChaosKills = chaosKills
	rep.Total = statsOf(samples, wall)

	byShard := map[int][]clusterSample{}
	shardNodes := map[int]map[string]bool{}
	byTenant := map[string][]clusterSample{}
	for _, s := range samples {
		byShard[s.shard] = append(byShard[s.shard], s)
		if shardNodes[s.shard] == nil {
			shardNodes[s.shard] = map[string]bool{}
		}
		shardNodes[s.shard][s.node] = true
		byTenant[s.tenant] = append(byTenant[s.tenant], s)
	}
	for shard := 0; shard < cfg.shards; shard++ {
		rep.Shards = append(rep.Shards, shardReport{
			Shard:   shard,
			Nodes:   len(shardNodes[shard]),
			opStats: statsOf(byShard[shard], wall),
		})
	}
	tenants := make([]string, 0, len(byTenant))
	for t := range byTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		tr := tenantReport{Tenant: t, Weight: cfg.weights[t], opStats: statsOf(byTenant[t], wall)}
		for _, s := range byTenant[t] {
			switch s.outcome {
			case "admitted":
				tr.Admitted++
			case "rejected":
				tr.Rejected++
			case "removed":
				tr.Removed++
			}
		}
		rep.Tenants = append(rep.Tenants, tr)
	}
}

// statsOf reduces a sample set to the shared opStats block.
func statsOf(samples []clusterSample, wall time.Duration) opStats {
	st := opStats{Requests: len(samples)}
	lats := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		st.Retries += s.retries
		lats = append(lats, s.lat)
	}
	if secs := wall.Seconds(); secs > 0 {
		st.RPS = float64(len(samples)) / secs
	}
	st.P50Ms = msOf(percentile(lats, 50))
	st.P90Ms = msOf(percentile(lats, 90))
	st.P99Ms = msOf(percentile(lats, 99))
	return st
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printClusterSummary mirrors the report to stdout for interactive runs.
func printClusterSummary(rep *report) {
	fmt.Printf("cluster: %d ops in %.2fs (%.1f op/s), %d retries, %d chaos kills\n",
		rep.Total.Requests, rep.DurationS, rep.Total.RPS, rep.Total.Retries, rep.ChaosKills)
	for _, sr := range rep.Shards {
		fmt.Printf("  shard %d: nodes=%-3d n=%-5d p50=%.2fms p90=%.2fms\n",
			sr.Shard, sr.Nodes, sr.Requests, sr.P50Ms, sr.P90Ms)
	}
	for _, tr := range rep.Tenants {
		name := tr.Tenant
		if name == "" {
			name = "(untagged)"
		}
		fmt.Printf("  tenant %-10s w=%-2d n=%-5d admitted=%-4d rejected=%-4d p50=%.2fms\n",
			name, tr.Weight, tr.Requests, tr.Admitted, tr.Rejected, tr.P50Ms)
	}
}
