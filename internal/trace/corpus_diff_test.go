package trace_test

import (
	"context"
	"testing"

	"rtmdm/internal/corpus"
	"rtmdm/internal/exec"
	"rtmdm/internal/fault"
	"rtmdm/internal/trace"
)

// TestStreamMatchesPostHocOverSmokeCorpus runs every smoke-corpus
// scenario, nominal and faulted, with its events recorded, and requires
// the streaming checker's verdict and metrics to match the post-hoc
// reference: CheckInvariants over the recorded trace and the map-based
// Analyze the executor used before metrics were streamed.
func TestStreamMatchesPostHocOverSmokeCorpus(t *testing.T) {
	gen, err := corpus.NewGenerator(corpus.SmokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	n := gen.Count()
	if testing.Short() {
		n = 100
	}
	ctx := context.Background()
	runs := 0
	for i := 0; i < n; i++ {
		item, err := gen.At(i)
		if err != nil {
			continue // generate errors are counted by the corpus, not run
		}
		sc := item.Scenario.Canonicalize()
		set, plat, pol, err := sc.Build()
		if err != nil {
			t.Fatalf("%s: %v", item.ID, err)
		}
		plans := []*fault.Plan{nil}
		if sc.Faults != nil {
			plan, err := sc.FaultPlan()
			if err != nil {
				t.Fatalf("%s: %v", item.ID, err)
			}
			plans = append(plans, plan)
		}
		for _, plan := range plans {
			rec := &trace.Trace{}
			res, err := exec.RunWithFaultsContext(ctx, set, plat, pol, sc.Horizon(), plan, rec)
			if err != nil {
				t.Fatalf("%s (faulted %t): streaming run failed: %v", item.ID, plan != nil, err)
			}
			if err := rec.CheckInvariants(res.Infos); err != nil {
				t.Fatalf("%s (faulted %t): streaming checker passed, CheckInvariants: %v", item.ID, plan != nil, err)
			}
			ref := rec.AnalyzeReference(res.Infos, res.Horizon)
			if d := trace.MetricsDiff(ref, res.Metrics); d != "" {
				t.Fatalf("%s (faulted %t): streamed metrics: %s", item.ID, plan != nil, d)
			}
			runs++
		}
	}
	t.Logf("%d runs over %d scenarios", runs, n)
}
