package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtmdm/internal/analysis"
	"rtmdm/internal/cluster"
	"rtmdm/internal/corpus"
	"rtmdm/internal/metrics"
	"rtmdm/internal/scenario"
	"rtmdm/internal/server"
)

// The service-mix workload runs a gateway in front of two rtmdm-serve
// shards, all in this process on loopback listeners with production
// defaults (both admission batch windows at 2 ms). It has two phases on
// the same stack:
//
//   - Open loop: a seeded Poisson arrival schedule at serviceRate
//     operations per second, sent over at most nproc client connections,
//     each request timed from when it was due. The latency metrics come
//     from this phase.
//   - Closed loop: the same connections send a second seeded operation
//     list back to back for as long again. The throughput metric
//     comes from this phase, so it is what the stack completes, not what
//     the schedule offers.
//
// The traffic shape is rtmdm-loadgen's defaults, not tuned here:
//
//   - The operation mix is its -mix default, analyze=4,simulate=4,admit=2.
//   - Admissions follow its -cluster schedule: 24 nodes, each filled with
//     6 tinymlp tasks on the always-admissible period ladder 65..40 ms;
//     one admission operation is a probe cycle that adds a tinymlp probe
//     with a period of 24-37 ms and, when it is admitted, removes it
//     again. The first 12.5% of the nodes are hot and get 4× the probes.
//     A node's operations all go through one connection, so at most one
//     admission per node is in flight and every node's verdict sequence
//     depends on the seed alone.
//   - Reads ask for both policies, as loadgen's analyze bodies do. They
//     are drawn from a pool of corpus scenarios with twice as many cache
//     keys as the two shards' 256-entry result caches hold together, so
//     the caches must evict (loadgen's 24 variants would all fit). The
//     reuse skew is loadgen's hot-node skew applied to the pool: the
//     first 12.5% of the items are hot and drawn 4× as often.

const (
	// serviceRate is the fixed offered load of the open-loop phase, about
	// half of what the closed-loop phase completes on the calibration host.
	serviceRate   = 230.0
	serviceShards = 2
	serviceSetups = 3
	// servicePool gives 2×servicePool cache keys (analyze and simulate
	// per item): twice the serviceShards×256 result-cache entries.
	servicePool = 512
	// rtmdm-loadgen defaults (cmd/rtmdm-loadgen): -cluster-nodes,
	// -cluster-fill, -hot-nodes and the hot-node probe multiplier.
	serviceNodes = 24
	serviceFill  = 6
	hotShare     = 0.125
	hotBoost     = 4
)

// opWeights is rtmdm-loadgen's default -mix: analyze=4,simulate=4,admit=2.
var opWeights = struct{ analyze, simulate, admit int }{4, 4, 2}

// readPolicies are the policies every analyze read asks for, as in
// rtmdm-loadgen's analyze bodies.
var readPolicies = []string{"rt-mdm", "serial-segfp"}

// svcOp is one scheduled client operation.
type svcOp struct {
	due   time.Duration // offset from the phase start (open loop only)
	read  bool
	item  int  // read: pool index
	sim   bool // read: /v1/simulate instead of /v1/analyze
	node  int  // churn: node index
	probe scenario.TaskSpec
	id    uint64 // churn: request id of the add (the remove uses id+1); read: span request id
}

// admitEntry is one admission request and the answer it got.
type admitEntry struct {
	req  server.AdmitRequest
	resp server.AdmitResponse
}

// sample is one timed request.
type sample struct {
	admit bool
	req   uint64
	due   time.Time
	sent  time.Time
	done  time.Time
	ok    bool
	phase phase
}

// readPool holds the read bodies: analyze and simulate per corpus item.
// It is generated in a child process (see buildPool), so the measured
// process holds none of the generator's caches.
type readPool struct {
	Analyze  [][]byte `json:"analyze"`
	Simulate [][]byte `json:"simulate"`
}

func (p *readPool) body(item int, sim bool) []byte {
	if sim {
		return p.Simulate[item]
	}
	return p.Analyze[item]
}

// buildPool generates the read pool from the seed's smoke corpus. The
// corpus generator fills process-lived workload caches that the shards
// never read, so the service-mix parent runs this in a "pool" child and
// keeps only the request bodies.
func buildPool(seed int64, workers int) (*readPool, error) {
	spec := corpus.SmokeSpec()
	spec.Seed = seed
	spec.Count = servicePool * 2 // room for instances that fail to generate
	gen, err := corpus.NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	// Generate the first servicePool instances, then as many more as
	// failed, until the pool is full or the spec runs out.
	var items []corpus.Item
	for from := 0; len(items) < servicePool && from < spec.Count; {
		n := min(servicePool-len(items), spec.Count-from)
		batch := make([]*corpus.Item, n)
		parallelFor(n, workers, func(i int) {
			if it, err := gen.At(from + i); err == nil {
				batch[i] = &it
			}
		})
		for _, it := range batch {
			if it != nil {
				items = append(items, *it)
			}
		}
		from += n
	}
	p := &readPool{}
	for _, it := range items {
		raw, err := json.Marshal(it.Scenario)
		if err != nil {
			return nil, err
		}
		a, err := json.Marshal(server.AnalyzeRequest{Scenario: raw, Policies: readPolicies})
		if err != nil {
			return nil, err
		}
		s, err := json.Marshal(server.SimulateRequest{Scenario: raw})
		if err != nil {
			return nil, err
		}
		p.Analyze = append(p.Analyze, a)
		p.Simulate = append(p.Simulate, s)
	}
	if len(p.Analyze) < servicePool {
		return nil, fmt.Errorf("service-mix: only %d of %d pool scenarios generated", len(p.Analyze), servicePool)
	}
	return p, nil
}

// parallelFor runs f(i) for i in [0, n) on the given number of workers.
func parallelFor(n, workers int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// fillRequests returns each node's fill admissions: rtmdm-loadgen's
// cluster fill, tasks t00..t05 with periods 65 down to 40 ms. Nodes bind
// to the server's default platform, policy and horizon.
func fillRequests() [][]server.AdmitRequest {
	out := make([][]server.AdmitRequest, serviceNodes)
	id := uint64(1)
	for j := range out {
		for f := 0; f < serviceFill; f++ {
			out[j] = append(out[j], server.AdmitRequest{RequestID: id, Node: "node-" + strconv.Itoa(j),
				Task: scenario.TaskSpec{Name: fmt.Sprintf("t%02d", f), Model: "tinymlp",
					PeriodMs: float64(40 + 5*(serviceFill-1-f))}})
			id++
		}
	}
	return out
}

// hotPick draws an index in [0, n) where the first hotShare of the
// indices are hotBoost times as likely as the rest.
func hotPick(rng *rand.Rand, n int) int {
	hot := int(math.Ceil(hotShare * float64(n)))
	r := rng.Intn(hot*hotBoost + n - hot)
	if r < hot*hotBoost {
		return r / hotBoost
	}
	return hot + r - hot*hotBoost
}

// drawOps draws n operations from the mix, numbering request ids from
// firstID.
func drawOps(rng *rand.Rand, n int, firstID uint64) []svcOp {
	ops := make([]svcOp, n)
	id := firstID
	total := opWeights.analyze + opWeights.simulate + opWeights.admit
	for i := range ops {
		op := &ops[i]
		switch r := rng.Intn(total); {
		case r < opWeights.admit:
			op.node = hotPick(rng, serviceNodes)
			op.probe = scenario.TaskSpec{Name: "probe", Model: "tinymlp", PeriodMs: float64(24 + rng.Intn(14))}
			op.id = id
			id += 2
		default:
			op.read = true
			op.item = hotPick(rng, servicePool)
			op.sim = r >= opWeights.admit+opWeights.analyze
			op.id = readIDBase + id
			id++
		}
	}
	return ops
}

// schedule draws the open-loop arrival schedule for a phase of the given
// length, starting request ids at firstID. The phase holds exactly
// serviceRate×length arrivals at uniformly random times (a Poisson
// process conditioned on its count), so every seed offers the same load.
func schedule(seed int64, length time.Duration, firstID uint64) []svcOp {
	rng := rand.New(rand.NewSource(seed))
	dues := make([]time.Duration, int(serviceRate*length.Seconds()))
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(length)))
	}
	slices.Sort(dues)
	ops := drawOps(rng, len(dues), firstID)
	for i := range ops {
		ops[i].due = dues[i]
	}
	return ops
}

// readIDBase separates read span ids from admission request ids.
const readIDBase = 1 << 40

// stack is one running gateway + shards deployment and its client.
type stack struct {
	shardSrv []*server.Server
	gw       *cluster.Gateway
	httpSrv  []*http.Server
	gwURL    string
	client   *http.Client
	rec      *recorder
	workers  int

	mu      sync.Mutex
	gwSpans map[uint64]int // admission request id → gateway span (traced)

	logs    [][]admitEntry // per node, in decision order
	bodies  []map[[2]int][]byte
	samples [][]sample
	probs   []string
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startStack brings up the shards and the gateway. With a recorder, the
// benchmark wraps the shard handlers, the gateway handler and the
// gateway's shard transport in spans and attaches reg to both tiers.
func startStack(rec *recorder, reg *metrics.Registry, workers int) (*stack, error) {
	st := &stack{rec: rec, workers: workers, gwSpans: map[uint64]int{},
		logs: make([][]admitEntry, serviceNodes)}
	serve := func(h http.Handler) (string, error) {
		ln, url, err := listen()
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h}
		st.httpSrv = append(st.httpSrv, hs)
		go hs.Serve(ln)
		return url, nil
	}
	var urls []string
	for i := 0; i < serviceShards; i++ {
		srv := server.New(server.Config{Registry: reg, ShardLabel: "shard-" + strconv.Itoa(i)})
		st.shardSrv = append(st.shardSrv, srv)
		var h http.Handler = srv
		if rec != nil {
			h = &shardHandler{st: st, h: srv}
		}
		url, err := serve(h)
		if err != nil {
			st.stop()
			return nil, err
		}
		urls = append(urls, url)
	}
	cfg := cluster.Config{Shards: urls, Registry: reg}
	if rec != nil {
		cfg.Transport = &benchTransport{st: st, base: http.DefaultTransport}
	}
	gw, err := cluster.NewGateway(cfg)
	if err != nil {
		st.stop()
		return nil, err
	}
	st.gw = gw
	var h http.Handler = gw
	if rec != nil {
		h = &gatewayHandler{st: st, h: gw}
	}
	if st.gwURL, err = serve(h); err != nil {
		st.stop()
		return nil, err
	}
	st.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}}
	st.bodies = make([]map[[2]int][]byte, workers)
	st.samples = make([][]sample, workers)
	for w := range st.bodies {
		st.bodies[w] = map[[2]int][]byte{}
	}
	return st, nil
}

// stop shuts the stack down and waits for its goroutines.
func (st *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range st.httpSrv {
		hs.Shutdown(ctx)
	}
	if st.gw != nil {
		st.gw.Shutdown(ctx)
	}
	for _, s := range st.shardSrv {
		s.Shutdown(ctx)
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// post sends one request through the gateway and returns the status and
// body. In traced runs it tags the request with its span ids.
func (st *stack) post(path string, body []byte, req uint64, parent int) (int, []byte, error) {
	r, err := http.NewRequest(http.MethodPost, st.gwURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	r.Header.Set("Content-Type", "application/json")
	if st.rec != nil {
		r.Header.Set(reqHeader, strconv.FormatUint(req, 10))
		r.Header.Set(spanHeader, strconv.Itoa(parent))
	}
	resp, err := st.client.Do(r)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// admit sends one admission and logs it for the replay check.
func (st *stack) admit(w int, req server.AdmitRequest, due time.Time, ph phase) (server.AdmitResponse, bool) {
	body, err := json.Marshal(req)
	if err != nil {
		st.problem("admit: encode: %v", err)
		return server.AdmitResponse{}, false
	}
	s := sample{admit: true, req: req.RequestID, due: due, sent: time.Now(), phase: ph}
	id := st.rec.begin("client.admit", -1, req.RequestID)
	status, data, err := st.post("/v1/admit", body, req.RequestID, id)
	st.rec.end(id)
	s.done = time.Now()
	var resp server.AdmitResponse
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(data, &resp)
	}
	s.ok = err == nil && status == http.StatusOK
	st.samples[w] = append(st.samples[w], s)
	if !s.ok {
		st.problem("admit %d on %s: status %d err %v body %.200s", req.RequestID, req.Node, status, err, data)
		return resp, false
	}
	n, _ := strconv.Atoi(req.Node[len("node-"):]) // node names are generated as node-<index>
	st.logs[n] = append(st.logs[n], admitEntry{req: req, resp: resp})
	return resp, true
}

// churn runs one probe add and, when admitted, its removal. It reports
// whether every request succeeded.
func (st *stack) churn(w int, op svcOp, due time.Time, ph phase) bool {
	add := server.AdmitRequest{RequestID: op.id, Node: "node-" + strconv.Itoa(op.node), Task: op.probe}
	resp, ok := st.admit(w, add, due, ph)
	if ok && resp.Admitted {
		rm := server.AdmitRequest{RequestID: op.id + 1, Node: add.Node, Remove: true,
			Task: scenario.TaskSpec{Name: op.probe.Name}}
		_, ok = st.admit(w, rm, time.Now(), ph)
	}
	return ok
}

// read sends one analyze or simulate request and keeps its body. It
// reports whether the request succeeded.
func (st *stack) read(w int, pool *readPool, op svcOp, due time.Time, ph phase) bool {
	path := "/v1/analyze"
	if op.sim {
		path = "/v1/simulate"
	}
	s := sample{req: op.id, due: due, sent: time.Now(), phase: ph}
	id := st.rec.begin("client.read", -1, op.id)
	status, data, err := st.post(path, pool.body(op.item, op.sim), op.id, id)
	st.rec.end(id)
	s.done = time.Now()
	s.ok = err == nil && status == http.StatusOK
	st.samples[w] = append(st.samples[w], s)
	if !s.ok {
		st.problem("read %s item %d: status %d err %v body %.200s", path, op.item, status, err, data)
		return false
	}
	key := [2]int{op.item, 0}
	if op.sim {
		key[1] = 1
	}
	if prev, ok := st.bodies[w][key]; !ok {
		st.bodies[w][key] = data
	} else if !bytes.Equal(prev, data) {
		st.problem("read %s item %d: two different answers", path, op.item)
	}
	return true
}

func (st *stack) problem(format string, args ...any) {
	st.mu.Lock()
	st.probs = append(st.probs, fmt.Sprintf(format, args...))
	st.mu.Unlock()
}

// run executes ops on the stack's connections: a node's churn always on
// connection node%workers, reads spread by list position. In the
// open-loop phase each connection sends its requests in due order, never
// before they are due; otherwise back to back. With a positive limit a
// connection takes no new operation once limit has passed. run returns
// its wall time and the number of operations whose requests all
// succeeded.
func (st *stack) run(pool *readPool, ops []svcOp, ph phase, limit time.Duration) (time.Duration, int64) {
	queues := make([][]svcOp, st.workers)
	for i, op := range ops {
		w := i % st.workers
		if !op.read {
			w = op.node % st.workers
		}
		queues[w] = append(queues[w], op)
	}
	start := time.Now()
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := range queues {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, op := range queues[w] {
				if limit > 0 && time.Since(start) >= limit {
					return
				}
				due := time.Now()
				if ph == phaseOpen {
					due = start.Add(op.due)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				var ok bool
				if op.read {
					ok = st.read(w, pool, op, due, ph)
				} else {
					ok = st.churn(w, op, due, ph)
				}
				if ok {
					done.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start), done.Load()
}

// setup fills every node and warms the connections and analyzers: one
// churn operation per node and two reads per connection.
func (st *stack) setup(pool *readPool) {
	fills := fillRequests()
	var wg sync.WaitGroup
	for w := 0; w < st.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < serviceNodes; j += st.workers {
				for _, r := range fills[j] {
					st.admit(w, r, time.Now(), phaseSetup)
				}
			}
		}(w)
	}
	wg.Wait()
	warm := make([]svcOp, 0, serviceNodes+2*st.workers)
	id := uint64(serviceNodes*serviceFill + 1)
	for j := 0; j < serviceNodes; j++ {
		warm = append(warm, svcOp{node: j, id: id, probe: scenario.TaskSpec{Name: "probe", Model: "tinymlp", PeriodMs: 60}})
		id += 2
	}
	for i := 0; i < 2*st.workers; i++ {
		warm = append(warm, svcOp{read: true, item: i, sim: i%2 == 1, id: readIDBase + id})
		id++
	}
	st.run(pool, warm, phaseSetup, 0)
}

// phase tells set-up requests from those of the two measured phases.
type phase int

const (
	phaseSetup phase = iota
	phaseOpen
	phaseClosed
)

// Request ids of the open-loop and closed-loop operation lists.
const (
	firstPhaseID  = 1 << 20
	firstClosedID = 1 << 32
)

// closedOpsPerS bounds the closed-loop operation list: far more than the
// stack completes per second, so no connection runs out of work.
const closedOpsPerS = 5000

func runService(opt options) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	workers := runtime.NumCPU()
	length := time.Duration(opt.seconds) * time.Second
	ops := schedule(opt.seed, length, firstPhaseID)
	closedOps := drawOps(rand.New(rand.NewSource(opt.seed^0x636c6f736564)),
		int(closedOpsPerS*length.Seconds()), firstClosedID)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}

	// Set up serviceSetups times and keep the last stack; the median is
	// the reported set-up time. One set-up is the read pool generated in
	// a child process, then the stack started, its nodes filled and its
	// connections warmed.
	var setups []float64
	var st *stack
	var pool *readPool
	refBefore, err := hostRef(3)
	if err != nil {
		return nil, err
	}
	for r := 0; r < serviceSetups; r++ {
		if st != nil {
			st.stop()
		}
		t0 := time.Now()
		res, _, err := spawnChild(exe, "pool", opt.seed, false)
		if err != nil {
			return nil, err
		}
		poolS := time.Since(t0).Seconds()
		t1 := time.Now()
		s, err := startStack(nil, nil, workers)
		if err != nil {
			return nil, err
		}
		s.setup(res.Pool)
		// The pool child is CPU-bound and is scaled to the calibration
		// host's speed by the kernel timed before set-up; starting and
		// filling the stack waits mostly on the 2 ms admission windows
		// and stays raw.
		setups = append(setups, poolS*refNominalS/refBefore+time.Since(t1).Seconds())
		st, pool = s, res.Pool
	}
	elapsed, _ := st.run(pool, ops, phaseOpen, 0)
	closedElapsed, closedDone := st.run(pool, closedOps, phaseClosed, length)
	heap := heapMB()
	st.stop()
	plain := summarize(st, phaseOpen)
	closed := summarize(st, phaseClosed)
	out.attempted = plain.attempted + closed.attempted
	out.failed = plain.failed + closed.failed
	out.problems = append(out.problems, st.probs...)
	rs := verifyAdmits(st, out)
	verifyReads(st, pool, workers, out)
	refAfter, err := hostRef(3)
	if err != nil {
		return nil, err
	}
	ref := (refBefore + refAfter) / 2

	// Request latency is mostly the two 2 ms batch windows, which do not
	// scale with host speed, so the latency and throughput metrics stay
	// raw.
	v := out.values
	v["setup_s"] = median(setups)
	v["host.ref_s"] = ref
	v["raw.p50_ms"] = quantile(plain.all, 0.50)
	v["ops_per_s"] = float64(closedDone) / closedElapsed.Seconds()
	v["p50_ms"] = quantile(plain.all, 0.50)
	v["op.p99_ms"] = quantile(plain.all, 0.99)
	v["heap_mb"] = heap
	fmt.Fprintf(os.Stderr, "service-mix: open loop %d requests in %.2fs, admit p50 %.3f p99 %.3f ms, read p50 %.3f p99 %.3f ms, lateness p99 %.3f ms; probe adds admitted %.3f\n",
		plain.attempted, elapsed.Seconds(), quantile(plain.admit, 0.5), quantile(plain.admit, 0.99),
		quantile(plain.read, 0.5), quantile(plain.read, 0.99), quantile(plain.late, 0.99), rs.admittedShare())
	fmt.Fprintf(os.Stderr, "service-mix: closed loop %d operations (%d requests) in %.2fs = %.1f ops/s; set-ups %v s; host reference %.3fs\n",
		closedDone, closed.attempted, closedElapsed.Seconds(), v["ops_per_s"], setups, ref)
	if opt.trace {
		if err := tracedService(opt, pool, ops, plain, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// phaseStats summarizes the requests of one phase.
type phaseStats struct {
	all, admit, read, late []float64
	attempted, failed      int64
	meanAll                float64
}

// summarize folds the requests of one phase. Latency runs from each
// request's due time.
func summarize(st *stack, ph phase) phaseStats {
	var ps phaseStats
	for _, ss := range st.samples {
		for _, s := range ss {
			if s.phase != ph {
				continue
			}
			ps.attempted++
			lat := ms(s.done.Sub(s.due))
			if !s.ok {
				ps.failed++
				lat = math.Inf(1) // a failed request misses any latency limit
			}
			ps.all = append(ps.all, lat)
			ps.late = append(ps.late, ms(s.sent.Sub(s.due)))
			if s.admit {
				ps.admit = append(ps.admit, lat)
			} else {
				ps.read = append(ps.read, lat)
			}
		}
	}
	ps.meanAll = mean(ps.all)
	return ps
}

// replayStats is what the in-process admission replay measured.
type replayStats struct {
	floor    map[uint64]time.Duration // request id → Evaluate+Commit time
	evalUs   []float64                // open-loop additions only
	warm     float64
	admitted float64 // open-loop additions admitted
}

// admittedShare is the share of open-loop additions that were admitted.
func (rs *replayStats) admittedShare() float64 {
	return ratio(rs.admitted, float64(len(rs.evalUs)))
}

// verifyAdmits replays every node's admission stream through a fresh
// analysis.IncrementalAnalyzer, mirroring the server's decision rules,
// and requires every verdict and each node's final committed set to
// match what the service answered.
func verifyAdmits(st *stack, out *outcome) *replayStats {
	ctx := context.Background()
	rs := &replayStats{floor: map[uint64]time.Duration{}}
	for j, log := range st.logs {
		inc := analysis.NewIncrementalAnalyzer()
		var platform, policy string
		var hz float64
		var committed []scenario.TaskSpec
		var names []string
		bound := false
		for _, e := range log {
			want := server.AdmitResponse{RequestID: e.req.RequestID, Node: e.req.Node}
			if e.req.Remove {
				at := -1
				for i, t := range committed {
					if t.Name == e.req.Task.Name {
						at = i
					}
				}
				if at < 0 {
					want.Reason = fmt.Sprintf("task %q not committed on node %q", e.req.Task.Name, e.req.Node)
				} else {
					committed = append(append([]scenario.TaskSpec(nil), committed[:at]...), committed[at+1:]...)
					t0 := time.Now()
					inc.Commit((&scenario.Scenario{Platform: platform, Policy: policy, HorizonMs: hz,
						Tasks: append([]scenario.TaskSpec(nil), committed...)}).Canonicalize())
					rs.floor[e.req.RequestID] = time.Since(t0)
					want.Removed = true
				}
			} else {
				if !bound {
					platform, policy, hz, bound = e.req.Platform, e.req.Policy, e.req.HorizonMs, true
				}
				if slices.ContainsFunc(committed, func(t scenario.TaskSpec) bool { return t.Name == e.req.Task.Name }) {
					out.fail("service-mix: node %d request %d: task %q added while committed", j, e.req.RequestID, e.req.Task.Name)
					continue
				}
				cand := (&scenario.Scenario{Platform: platform, Policy: policy, HorizonMs: hz,
					Tasks: append(append([]scenario.TaskSpec(nil), committed...), e.req.Task)}).Canonicalize()
				t0 := time.Now()
				v, es, err := inc.Evaluate(ctx, cand)
				d := time.Since(t0)
				open := e.req.RequestID >= firstPhaseID && e.req.RequestID < firstClosedID
				if open {
					rs.evalUs = append(rs.evalUs, float64(d)/1e3)
					if es.Warm {
						rs.warm++
					}
				}
				switch {
				case err != nil:
					want.Reason = err.Error()
				case !v.Schedulable:
					want.Test, want.WCRTNs, want.Reason = v.Test, wcrtNs(v), v.Reason
					if want.Reason == "" {
						want.Reason = "schedulability test failed"
					}
				default:
					want.Test, want.WCRTNs, want.Admitted = v.Test, wcrtNs(v), true
					if open {
						rs.admitted++
					}
					committed = append(committed, e.req.Task)
					t1 := time.Now()
					inc.Commit(cand)
					d += time.Since(t1)
				}
				rs.floor[e.req.RequestID] = d
			}
			names = names[:0]
			for _, t := range committed {
				names = append(names, t.Name)
			}
			sort.Strings(names)
			want.Committed = names
			if d := admitDiff(want, e.resp); d != "" {
				out.fail("service-mix: node %d request %d: replay differs: %s", j, e.req.RequestID, d)
			}
		}
		if len(log) > 0 && !sameStrings(log[len(log)-1].resp.Committed, names) {
			out.fail("service-mix: node %d final committed set %v, replay %v", j, log[len(log)-1].resp.Committed, names)
		}
	}
	return rs
}

func wcrtNs(v analysis.Verdict) map[string]int64 {
	m := make(map[string]int64, len(v.WCRT))
	for k, d := range v.WCRT {
		m[k] = int64(d)
	}
	return m
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// admitDiff names the first field where the service's answer differs
// from the replay's.
func admitDiff(want, got server.AdmitResponse) string {
	switch {
	case want.RequestID != got.RequestID || want.Node != got.Node:
		return fmt.Sprintf("identity %d/%s vs %d/%s", want.RequestID, want.Node, got.RequestID, got.Node)
	case want.Admitted != got.Admitted || want.Removed != got.Removed:
		return fmt.Sprintf("admitted/removed %t/%t vs %t/%t", want.Admitted, want.Removed, got.Admitted, got.Removed)
	case want.Test != got.Test || want.Reason != got.Reason:
		return fmt.Sprintf("test/reason %q/%q vs %q/%q", want.Test, want.Reason, got.Test, got.Reason)
	case !sameStrings(want.Committed, got.Committed):
		return fmt.Sprintf("committed %v vs %v", want.Committed, got.Committed)
	case len(want.WCRTNs) != len(got.WCRTNs):
		return fmt.Sprintf("wcrt count %d vs %d", len(want.WCRTNs), len(got.WCRTNs))
	}
	for k, x := range want.WCRTNs {
		if got.WCRTNs[k] != x {
			return fmt.Sprintf("wcrt[%s] %d vs %d", k, x, got.WCRTNs[k])
		}
	}
	return ""
}

// verifyReads requires every read answer to be byte-identical to the
// cold in-process answer: a fresh server with its result cache disabled,
// called through ServeHTTP.
func verifyReads(st *stack, pool *readPool, workers int, out *outcome) {
	got := map[[2]int][]byte{}
	for _, m := range st.bodies {
		for k, b := range m {
			if prev, ok := got[k]; ok && !bytes.Equal(prev, b) {
				out.fail("service-mix: item %d endpoint %d: connections got different answers", k[0], k[1])
			}
			got[k] = b
		}
	}
	keys := make([][2]int, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	ref := server.New(server.Config{CacheEntries: -1})
	defer ref.Shutdown(context.Background())
	bad := make([]bool, len(keys))
	parallelFor(len(keys), workers, func(i int) {
		k := keys[i]
		path := "/v1/analyze"
		if k[1] == 1 {
			path = "/v1/simulate"
		}
		rw := httptest.NewRecorder()
		ref.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(pool.body(k[0], k[1] == 1))))
		bad[i] = rw.Code != http.StatusOK || !bytes.Equal(rw.Body.Bytes(), got[k])
	})
	for i, b := range bad {
		if b {
			out.fail("service-mix: item %d endpoint %d: answer differs from the cold in-process answer", keys[i][0], keys[i][1])
		}
	}
	fmt.Fprintf(os.Stderr, "service-mix: %d distinct reads verified against the cold in-process answer\n", len(keys))
}

// Span plumbing for the traced run. The client tags each request with
// its request id and client span; the gateway wrapper opens the gateway
// span; the transport wrapper opens one shard round-trip span per
// attempt and forwards the ids to the shard wrapper in headers.

const (
	reqHeader  = "X-Perfbench-Req"
	spanHeader = "X-Perfbench-Span"
)

type spanRef struct {
	req  uint64
	span int
}

type spanKey struct{}

func headerRef(h http.Header) spanRef {
	req, _ := strconv.ParseUint(h.Get(reqHeader), 10, 64) // untagged requests get id 0
	span, err := strconv.Atoi(h.Get(spanHeader))
	if err != nil {
		span = -1
	}
	return spanRef{req: req, span: span}
}

type gatewayHandler struct {
	st *stack
	h  http.Handler
}

func (g *gatewayHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ref := headerRef(r.Header)
	id := g.st.rec.begin("gateway", ref.span, ref.req)
	if r.URL.Path == "/v1/admit" {
		g.st.mu.Lock()
		g.st.gwSpans[ref.req] = id
		g.st.mu.Unlock()
	}
	g.h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{req: ref.req, span: id})))
	g.st.rec.end(id)
}

type benchTransport struct {
	st   *stack
	base http.RoundTripper
}

// RoundTrip times one gateway → shard attempt. Reads carry their span
// in the request context; admissions are forwarded from the gateway's
// per-node lanes under its own context, so they are matched by the
// request_id in the body.
func (t *benchTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanKey{}).(spanRef)
	if !ok && r.GetBody != nil {
		if body, err := r.GetBody(); err == nil {
			var key struct {
				RequestID uint64 `json:"request_id"`
			}
			if json.NewDecoder(body).Decode(&key) == nil {
				t.st.mu.Lock()
				span, found := t.st.gwSpans[key.RequestID]
				t.st.mu.Unlock()
				if found {
					ref = spanRef{req: key.RequestID, span: span}
				}
			}
		}
	}
	id := t.st.rec.begin("shard.rtt", ref.span, ref.req)
	out := r.Clone(r.Context())
	out.Header.Set(reqHeader, strconv.FormatUint(ref.req, 10))
	out.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		t.st.rec.end(id)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { t.st.rec.end(id) }}
	return resp, nil
}

// endOnClose ends the round-trip span once the gateway has read and
// closed the shard's response body.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

type shardHandler struct {
	st *stack
	h  http.Handler
}

func (s *shardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ref := headerRef(r.Header)
	name := "shard.read"
	if r.URL.Path == "/v1/admit" {
		name = "shard.admit"
	}
	id := s.st.rec.begin(name, ref.span, ref.req)
	s.h.ServeHTTP(w, r)
	s.st.rec.end(id)
}

// tracedService repeats the phase on a traced stack (spans plus the
// metrics registry on both tiers), splits admission latency into stages
// and reports the per-layer metrics.
func tracedService(opt options, pool *readPool, ops []svcOp, plain phaseStats, out *outcome) error {
	rec := newRecorder()
	reg := metrics.NewRegistry()
	instrumentAll(reg)
	defer instrumentAll(nil)
	workers := runtime.NumCPU()
	st, err := startStack(rec, reg, workers)
	if err != nil {
		return err
	}
	st.setup(pool)
	before := reg.Snapshot()
	from := rec.count()
	st.run(pool, ops, phaseOpen, 0)
	d := reg.Snapshot().Diff(before)
	st.stop()
	traced := summarize(st, phaseOpen)
	out.attempted += traced.attempted
	out.failed += traced.failed
	out.problems = append(out.problems, st.probs...)
	rs := verifyAdmits(st, out)
	verifyReads(st, pool, workers, out)

	spans := rec.snapshot()
	v := out.values
	c := func(n string) float64 { return counter(d, n) }
	stats := aggregate(spans, from)
	v["server.admit_handler_ms"] = stats["shard.admit"].meanMs()
	v["server.read_handler_ms"] = stats["shard.read"].meanMs()
	v["server.cache_hit"] = ratio(c("server.cache_hits"), c("server.cache_hits")+c("server.cache_misses")+c("server.cache_coalesced"))
	v["server.admit_batch_size"] = ratio(float64(stats["shard.admit"].N), c("server.admit_batches"))
	v["server.rejected_busy"] = c("server.rejected_busy")
	v["cluster.gateway_self_ms"] = stats["gateway"].meanSelfMs()
	v["cluster.shard_rtt_ms"] = stats["shard.rtt"].meanMs()
	v["cluster.admit_batch_size"] = ratio(c("gateway.admit_forwarded"), c("gateway.admit_batches"))
	v["cluster.retries"] = c("gateway.proxy_retries")
	v["service.admit_p50_ms"] = quantile(traced.admit, 0.50)
	v["service.admit_p99_ms"] = quantile(traced.admit, 0.99)
	v["service.read_p50_ms"] = quantile(traced.read, 0.50)
	v["service.read_p99_ms"] = quantile(traced.read, 0.99)
	v["client.lateness_p99_ms"] = quantile(traced.late, 0.99)
	v["trace.overhead_frac"] = traced.meanAll/plain.meanAll - 1
	v["analysis.incremental_us"] = mean(rs.evalUs)
	v["analysis.warm_hit"] = ratio(rs.warm, float64(len(rs.evalUs)))
	v["service.admitted_share"] = rs.admittedShare()
	v["models.builds"] = c("workload.model_cache_misses")
	admitStages(st, spans, from, rs, v, out)

	// Scenario-path replays on the most requested read items.
	ev := &simEvents{reg: reg}
	attribFrom := rec.count()
	for i := 0; i < 16; i++ {
		var sc server.SimulateRequest
		if err := json.Unmarshal(pool.Simulate[i], &sc); err != nil {
			return err
		}
		req := readIDBase + uint64(1<<30+i)
		parent := rec.begin("attrib.scenario", -1, req)
		replayScenario(context.Background(), rec, ev, parent, req, sc.Scenario)
		rec.end(parent)
	}
	all := rec.snapshot()
	layerValues(aggregate(all, attribFrom), ev, v)
	return writePerfetto(filepath.Join(traceDir, fmt.Sprintf("service-mix-seed%d.json", opt.seed)), all)
}

// admitStages splits each measured admission's latency (from its due
// time) into client wait, gateway self time, shard hop, shard handler
// time outside analysis, and the in-process analysis floor from the
// replay, and requires the stage means to add up to within 10% of the
// mean admission latency.
func admitStages(st *stack, spans []span, from int, rs *replayStats, v map[string]float64, out *outcome) {
	self := selfTimes(spans)
	type acc struct{ gwSelf, hop, shard int64 }
	per := map[uint64]*acc{}
	for i := from; i < len(spans); i++ {
		s := spans[i]
		if s.Req >= readIDBase || s.End < 0 {
			continue
		}
		a := per[s.Req]
		if a == nil {
			a = &acc{}
			per[s.Req] = a
		}
		switch s.Name {
		case "gateway":
			a.gwSelf += self[i]
		case "shard.rtt":
			a.hop += self[i]
		case "shard.admit":
			a.shard += s.End - s.Start
		}
	}
	var wait, gw, hop, handler, floor, total float64
	n := 0.0
	for _, ss := range st.samples {
		for _, s := range ss {
			if !s.admit || s.phase != phaseOpen || !s.ok {
				continue
			}
			a := per[s.req]
			if a == nil {
				continue
			}
			f := float64(rs.floor[s.req]) / 1e6
			wait += ms(s.sent.Sub(s.due))
			gw += float64(a.gwSelf) / 1e6
			hop += float64(a.hop) / 1e6
			handler += float64(a.shard)/1e6 - f
			floor += f
			total += ms(s.done.Sub(s.due))
			n++
		}
	}
	if n == 0 {
		out.fail("service-mix: no traced admissions to split into stages")
		return
	}
	v["stage.client_wait_ms"] = wait / n
	v["stage.gateway_self_ms"] = gw / n
	v["stage.shard_hop_ms"] = hop / n
	v["stage.shard_handler_ms"] = handler / n
	v["stage.analysis_floor_ms"] = floor / n
	sum := wait + gw + hop + handler + floor
	v["stage.unattributed_ms"] = (total - sum) / n
	v["stage.sum_frac"] = sum / total
	if f := sum / total; f < 0.9 || f > 1.1 {
		out.fail("service-mix: admission stages sum to %.3f of the mean admission latency, outside 10%%", f)
	}
}
