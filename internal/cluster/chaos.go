package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rtmdm/internal/core"
)

// ChaosPartition is one asymmetric partition window: while a host's
// attempt counter is in [From, To), traffic is cut in one direction
// only. Direction "out" drops requests before they reach the server
// (the server never sees them); direction "in" delivers the request —
// the server processes it and may commit state — but drops the
// response on the way back, which is exactly the duplicate-delivery
// case idempotent handoff and admit retries must survive. Host is a
// substring match on the request host; empty matches every host.
type ChaosPartition struct {
	Host      string
	From, To  int64
	Direction string // "in" | "out"
}

// ChaosConfig parameterizes the deterministic transport chaos injector.
// All rates are probabilities in [0, 1]; decisions are pure functions of
// (Seed, host, per-host attempt index, fault class) in the same
// hash-decision style as internal/fault — no shared RNG stream, so two
// transports built from the same config make identical decisions
// regardless of goroutine interleaving.
type ChaosConfig struct {
	// Seed drives every decision; the same seed replays the same faults.
	Seed int64
	// DropOutRate drops requests before they are sent (connection error;
	// the server never observes the request).
	DropOutRate float64
	// DropInRate delivers the request but drops the response after the
	// server has fully processed it — the client observes a transport
	// error for work that actually happened.
	DropInRate float64
	// LatencyRate injects Latency of extra delay before the request is
	// sent (context-respecting, so client deadlines still fire).
	LatencyRate float64
	Latency     time.Duration
	// TruncateRate cuts the response body in half, always breaking JSON
	// framing so clients detect it and retry.
	TruncateRate float64
	// CorruptRate overwrites the first response-body byte with 0xFF —
	// invalid as both UTF-8 and JSON, so corruption is always detected at
	// decode rather than silently flipping a verdict field.
	CorruptRate float64
	// Partitions are asymmetric partition windows over per-host attempt
	// indices.
	Partitions []ChaosPartition
}

func (c ChaosConfig) validate() error {
	for name, r := range map[string]float64{
		"drop-out": c.DropOutRate, "drop-in": c.DropInRate,
		"latency": c.LatencyRate, "truncate": c.TruncateRate, "corrupt": c.CorruptRate,
	} {
		if r < 0 || r > 1 {
			return fmt.Errorf("cluster: chaos rate %s=%v outside [0,1]", name, r)
		}
	}
	if c.Latency < 0 {
		return fmt.Errorf("cluster: chaos latency must be >= 0")
	}
	for _, p := range c.Partitions {
		if p.From < 0 || p.To <= p.From {
			return fmt.Errorf("cluster: chaos partition window %d-%d invalid (want 0 <= from < to)", p.From, p.To)
		}
		if p.Direction != "in" && p.Direction != "out" {
			return fmt.Errorf("cluster: chaos partition direction %q (want in or out)", p.Direction)
		}
	}
	return nil
}

// ParseChaosSpec parses the CLI chaos spec shared by rtmdm-loadgen and
// the smoke scripts: comma-separated key=value pairs, e.g.
//
//	drop-out=0.03,drop-in=0.03,latency=0.1,latency-ms=25,truncate=0.02,corrupt=0.02,partition=120-160:in
//
// partition may repeat; its value is FROM-TO:DIR[:HOSTSUBSTR] over the
// per-host attempt counter. The seed is set by the caller (loadgen
// reuses its workload seed so one -seed replays workload and faults).
func ParseChaosSpec(spec string) (ChaosConfig, error) {
	cfg := ChaosConfig{}
	rate := func(v string) (float64, error) { return strconv.ParseFloat(v, 64) }
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("cluster: bad chaos entry %q (want key=value)", part)
		}
		var err error
		switch kv[0] {
		case "drop-out":
			cfg.DropOutRate, err = rate(kv[1])
		case "drop-in":
			cfg.DropInRate, err = rate(kv[1])
		case "latency":
			cfg.LatencyRate, err = rate(kv[1])
		case "latency-ms":
			var ms float64
			ms, err = rate(kv[1])
			cfg.Latency = time.Duration(ms * float64(time.Millisecond))
		case "truncate":
			cfg.TruncateRate, err = rate(kv[1])
		case "corrupt":
			cfg.CorruptRate, err = rate(kv[1])
		case "partition":
			var p ChaosPartition
			p, err = parsePartition(kv[1])
			cfg.Partitions = append(cfg.Partitions, p)
		default:
			return cfg, fmt.Errorf("cluster: unknown chaos key %q", kv[0])
		}
		if err != nil {
			return cfg, fmt.Errorf("cluster: bad chaos entry %q: %v", part, err)
		}
	}
	if err := cfg.validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func parsePartition(v string) (ChaosPartition, error) {
	var p ChaosPartition
	fields := strings.SplitN(v, ":", 3)
	if len(fields) < 2 {
		return p, fmt.Errorf("want FROM-TO:DIR[:HOST]")
	}
	window := strings.SplitN(fields[0], "-", 2)
	if len(window) != 2 {
		return p, fmt.Errorf("want FROM-TO attempt window")
	}
	from, err1 := strconv.ParseInt(window[0], 10, 64)
	to, err2 := strconv.ParseInt(window[1], 10, 64)
	if err1 != nil || err2 != nil {
		return p, fmt.Errorf("non-integer attempt window")
	}
	p.From, p.To, p.Direction = from, to, fields[1]
	if len(fields) == 3 {
		p.Host = fields[2]
	}
	return p, nil
}

// chaosDraw hashes one decision coordinate (seed, class, host, attempt)
// to a uniform uint64. Each fault class gets an independent draw so
// e.g. enabling latency never shifts which attempts drop.
func chaosDraw(seed int64, class, host string, attempt int64) uint64 {
	h := core.Mix64(uint64(seed) ^ 0x9e3779b97f4a7c15)
	for _, s := range []string{class, host} {
		for _, b := range []byte(s) {
			h = core.Mix64(h ^ uint64(b))
		}
		h = core.Mix64(h ^ 0xff)
	}
	return core.Mix64(h ^ uint64(attempt))
}

// chaosUnit maps a draw into [0, 1).
func chaosUnit(d uint64) float64 { return float64(d>>11) / float64(1<<53) }

// chaosErr is the injected transport failure. It satisfies net-style
// temporary semantics only in the sense clients already handle: any
// RoundTrip error is retryable at the gateway and the loadgen.
type chaosErr struct{ class, host string }

func (e *chaosErr) Error() string {
	return fmt.Sprintf("chaos: injected %s fault (host %s)", e.class, e.host)
}

// ChaosTransport is a deterministic fault-injecting http.RoundTripper.
// It wraps an inner transport and, per request, draws each fault class
// from the (seed, host, attempt) coordinate — attempt being a per-host
// counter, so a fixed request sequence against a fixed topology replays
// the identical fault schedule. Corruption always breaks JSON framing
// (truncate to half / first byte 0xFF), never silently altering fields:
// the cluster's safety argument needs detectable faults, and its
// integrity argument is carried by the snapshot checksums underneath.
type ChaosTransport struct {
	cfg   ChaosConfig
	inner http.RoundTripper

	mu       sync.Mutex
	attempts map[string]int64
	injected map[string]int64
}

// NewChaosTransport validates cfg and wraps inner (nil inner uses
// http.DefaultTransport).
func NewChaosTransport(cfg ChaosConfig, inner http.RoundTripper) (*ChaosTransport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &ChaosTransport{
		cfg:      cfg,
		inner:    inner,
		attempts: map[string]int64{},
		injected: map[string]int64{},
	}, nil
}

// next claims the host's next attempt index.
func (t *ChaosTransport) next(host string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.attempts[host]
	t.attempts[host] = n + 1
	return n
}

func (t *ChaosTransport) count(class string) {
	t.mu.Lock()
	t.injected[class]++
	t.mu.Unlock()
}

// Stats snapshots the injected-fault counts by class (for loadgen
// reports and smoke-script non-vacuity checks).
func (t *ChaosTransport) Stats() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.injected))
	for k, v := range t.injected {
		out[k] = v
	}
	return out
}

// partitioned reports whether attempt n to host falls inside a
// partition window, and the cut direction if so.
func (t *ChaosTransport) partitioned(host string, n int64) (string, bool) {
	for _, p := range t.cfg.Partitions {
		if n >= p.From && n < p.To && (p.Host == "" || strings.Contains(host, p.Host)) {
			return p.Direction, true
		}
	}
	return "", false
}

// RoundTrip implements http.RoundTripper with the deterministic fault
// schedule. Decision order: outbound cut (partition out / drop-out),
// injected latency, real round trip, inbound cut (partition in /
// drop-in), then response tampering (truncate / corrupt).
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	n := t.next(host)
	seed := t.cfg.Seed

	dir, cut := t.partitioned(host, n)
	if cut && dir == "out" {
		t.count("partition-out")
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &chaosErr{class: "partition-out", host: host}
	}
	if chaosUnit(chaosDraw(seed, "drop-out", host, n)) < t.cfg.DropOutRate {
		t.count("drop-out")
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &chaosErr{class: "drop-out", host: host}
	}
	if t.cfg.Latency > 0 && chaosUnit(chaosDraw(seed, "latency", host, n)) < t.cfg.LatencyRate {
		t.count("latency")
		timer := time.NewTimer(t.cfg.Latency)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		}
	}

	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}

	// Inbound faults happen after the server fully processed the request:
	// drain the body so the server side completes, then fail the client.
	if cut && dir == "in" {
		t.count("partition-in")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &chaosErr{class: "partition-in", host: host}
	}
	if chaosUnit(chaosDraw(seed, "drop-in", host, n)) < t.cfg.DropInRate {
		t.count("drop-in")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &chaosErr{class: "drop-in", host: host}
	}

	truncate := chaosUnit(chaosDraw(seed, "truncate", host, n)) < t.cfg.TruncateRate
	corrupt := chaosUnit(chaosDraw(seed, "corrupt", host, n)) < t.cfg.CorruptRate
	if !truncate && !corrupt {
		return resp, nil
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	if truncate && len(body) > 0 {
		t.count("truncate")
		body = body[:len(body)/2]
	}
	if corrupt && len(body) > 0 {
		t.count("corrupt")
		body = append([]byte(nil), body...)
		body[0] = 0xff
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}
