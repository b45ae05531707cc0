package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/exec"
	"rtmdm/internal/scenario"
	"rtmdm/internal/trace"
)

// AnalyzeRequest asks for schedulability verdicts. Policies defaults to
// every canonical policy name; each is analyzed against the scenario's
// task set (re-segmented under that policy's limits).
type AnalyzeRequest struct {
	Scenario json.RawMessage `json:"scenario"`
	Policies []string        `json:"policies,omitempty"`
}

// PolicyResult is one policy's verdict. Error is set when the scenario
// cannot even be built or tested under the policy (e.g. SRAM
// provisioning fails, or the policy has no sound offline test).
type PolicyResult struct {
	Policy      string           `json:"policy"`
	Test        string           `json:"test,omitempty"`
	Schedulable bool             `json:"schedulable"`
	WCRTNs      map[string]int64 `json:"wcrt_ns,omitempty"`
	Reason      string           `json:"reason,omitempty"`
	Error       string           `json:"error,omitempty"`
}

// AnalyzeResponse carries per-policy verdicts plus the canonical hash
// the result was computed (and cached) under.
type AnalyzeResponse struct {
	ScenarioHash string         `json:"scenario_hash"`
	Platform     string         `json:"platform"`
	Results      []PolicyResult `json:"results"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sc, hash, err := s.parseScenario(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	policies := req.Policies
	if len(policies) == 0 {
		policies = core.PolicyNames()
	}
	for _, p := range policies {
		if _, err := core.PolicyByName(p); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	key := "analyze\x00" + hash + "\x00" + strings.Join(policies, ",")
	s.compute(w, r, key, func(ctx context.Context) ([]byte, error) {
		resp := AnalyzeResponse{ScenarioHash: hash, Platform: sc.Platform}
		for _, p := range policies {
			resp.Results = append(resp.Results, analyzeOne(ctx, sc, p))
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		return json.Marshal(resp)
	})
}

// analyzeOne runs one policy's offline test against the scenario,
// folding build and test-construction failures into the result.
func analyzeOne(ctx context.Context, sc *scenario.Scenario, policy string) PolicyResult {
	res := PolicyResult{Policy: policy}
	cand := *sc
	cand.Policy = policy
	set, plat, pol, err := cand.Build()
	if err != nil {
		res.Error = err.Error()
		return res
	}
	test, err := analysis.ForPolicyContext(ctx, pol)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	v := test(set, plat)
	res.Test = v.Test
	res.Schedulable = v.Schedulable
	res.Reason = v.Reason
	res.WCRTNs = wcrtNs(v.WCRT)
	return res
}

// SimulateRequest asks for a bounded deterministic simulation run.
// IncludeTrace embeds the Trace Event Format export in the response.
type SimulateRequest struct {
	Scenario     json.RawMessage `json:"scenario"`
	IncludeTrace bool            `json:"include_trace,omitempty"`
}

// TaskSummary condenses one task's outcomes over the horizon.
type TaskSummary struct {
	Released      int     `json:"released"`
	Completed     int     `json:"completed"`
	Misses        int     `json:"misses"`
	MissRatio     float64 `json:"miss_ratio"`
	MaxResponseNs int64   `json:"max_response_ns"`
	AvgResponseNs int64   `json:"avg_response_ns"`
	P50ResponseNs int64   `json:"p50_response_ns"`
	P95ResponseNs int64   `json:"p95_response_ns"`
	P99ResponseNs int64   `json:"p99_response_ns"`
}

// SimulateResponse summarizes a run; Trace (optional) is the Perfetto-
// compatible Trace Event Format export.
type SimulateResponse struct {
	ScenarioHash   string                 `json:"scenario_hash"`
	HorizonNs      int64                  `json:"horizon_ns"`
	Tasks          map[string]TaskSummary `json:"tasks"`
	TotalMissRatio float64                `json:"total_miss_ratio"`
	AnyMiss        bool                   `json:"any_miss"`
	CPUUtilization float64                `json:"cpu_utilization"`
	DMAUtilization float64                `json:"dma_utilization"`
	SRAMPeakBytes  int64                  `json:"sram_peak_bytes"`
	FlashBytes     int64                  `json:"flash_bytes"`
	EnergyMicroJ   float64                `json:"energy_uj"`
	FaultsInjected int64                  `json:"faults_injected,omitempty"`
	JobsAborted    int64                  `json:"jobs_aborted,omitempty"`
	DMARetries     int64                  `json:"dma_retries,omitempty"`
	Trace          json.RawMessage        `json:"trace,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sc, hash, err := s.parseScenario(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := fmt.Sprintf("simulate\x00%s\x00trace=%t", hash, req.IncludeTrace)
	s.compute(w, r, key, func(ctx context.Context) ([]byte, error) {
		return simulateScenario(ctx, sc, hash, req.IncludeTrace)
	})
}

// simulateScenario builds and runs the canonicalized scenario and
// marshals the summary. The run itself is deterministic, which is what
// licenses caching the marshaled bytes.
func simulateScenario(ctx context.Context, sc *scenario.Scenario, hash string, includeTrace bool) ([]byte, error) {
	set, plat, pol, err := sc.Build()
	if err != nil {
		return nil, err
	}
	plan, err := sc.FaultPlan()
	if err != nil {
		return nil, err
	}
	var rec *trace.Trace
	if includeTrace {
		rec = &trace.Trace{}
	}
	res, err := exec.RunWithFaultsContext(ctx, set, plat, pol, sc.Horizon(), plan, rec)
	if err != nil {
		return nil, err
	}
	resp := SimulateResponse{
		ScenarioHash:   hash,
		HorizonNs:      int64(res.Horizon),
		Tasks:          make(map[string]TaskSummary, len(res.Metrics.PerTask)),
		TotalMissRatio: res.Metrics.TotalMissRatio(),
		AnyMiss:        res.Metrics.AnyMiss(),
		CPUUtilization: res.CPUUtilization(),
		DMAUtilization: res.DMAUtilization(),
		SRAMPeakBytes:  res.SRAMPeak,
		FlashBytes:     res.FlashBytes,
		EnergyMicroJ:   res.EnergyMicroJ,
		FaultsInjected: res.FaultsInjected,
		JobsAborted:    res.JobsAborted,
		DMARetries:     res.DMARetries,
	}
	for name, tm := range res.Metrics.PerTask {
		resp.Tasks[name] = TaskSummary{
			Released:      tm.Released,
			Completed:     tm.Completed,
			Misses:        tm.Misses,
			MissRatio:     tm.MissRatio(),
			MaxResponseNs: int64(tm.MaxResponse),
			AvgResponseNs: int64(tm.AvgResponse()),
			P50ResponseNs: int64(tm.Percentile(50)),
			P95ResponseNs: int64(tm.Percentile(95)),
			P99ResponseNs: int64(tm.Percentile(99)),
		}
	}
	if includeTrace {
		var buf bytes.Buffer
		if err := trace.ExportJSON(&buf, res.Trace, res.Infos); err != nil {
			return nil, err
		}
		resp.Trace = buf.Bytes()
	}
	return json.Marshal(&resp)
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req AdmitRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.RequestID == 0 {
		writeError(w, http.StatusBadRequest, "request_id must be a positive integer")
		return
	}
	if req.Node == "" {
		writeError(w, http.StatusBadRequest, "node must be set")
		return
	}
	if req.Task.Name == "" {
		writeError(w, http.StatusBadRequest, "task.name must be set")
		return
	}
	if req.HorizonMs > s.cfg.MaxHorizonMs {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"horizon %v ms exceeds the server bound %v ms", req.HorizonMs, s.cfg.MaxHorizonMs))
		return
	}
	// Admission consumes a worker slot like any other computation; the
	// decision itself happens on the node's drain goroutine.
	release, err := s.pool.acquire(r.Context())
	if err == errBusy {
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "worker pool saturated; retry shortly")
		return
	}
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer release()
	resp, err := s.adm.submit(r.Context(), req)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
