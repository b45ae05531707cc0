package analysis

import (
	"context"
	"strings"
	"testing"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/models"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
)

func ctxTestSet(t *testing.T, plat cost.Platform, pol core.Policy) *task.Set {
	t.Helper()
	names := []string{"ds-cnn", "autoencoder"}
	periods := []sim.Duration{50 * sim.Millisecond, 100 * sim.Millisecond}
	var ts []*task.Task
	for i, n := range names {
		m, err := models.Reference(n)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := segment.BuildLimits(m, plat, pol.Limits(plat, len(names)), segment.Greedy)
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, &task.Task{
			Name: n, Plan: pl, Period: periods[i], Deadline: periods[i], Priority: i,
		})
	}
	return task.NewSet(ts...)
}

// TestForPolicyContextCanceled verifies every analyzable branch of the
// policy dispatch reports an unschedulable "canceled" verdict under a dead
// context, and that the same test under a live context still decides
// normally.
func TestForPolicyContextCanceled(t *testing.T) {
	plat := cost.STM32H743
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	het := core.RTMDMPerTaskDepth(map[string]int{"ds-cnn": 3, "autoencoder": 1})
	hetEDF := het
	hetEDF.EDF = true
	pols := []core.Policy{
		core.RTMDM(), core.RTMDMEDF(), core.SerialSegFP(), core.SerialNPFP(),
		core.RTMDMFIFODMA(), core.RTMDMChunked(4 << 10), het, hetEDF,
	}
	for _, pol := range pols {
		set := ctxTestSet(t, plat, pol)
		test, err := ForPolicyContext(dead, pol)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		v := test(set, plat)
		if v.Schedulable || !strings.Contains(v.Reason, "canceled") {
			t.Fatalf("%s: verdict %+v; want canceled", pol.Name, v)
		}

		live, err := ForPolicyContext(context.Background(), pol)
		if err != nil {
			t.Fatal(err)
		}
		lv := live(set, plat)
		if strings.Contains(lv.Reason, "canceled") {
			t.Fatalf("%s: live context produced canceled verdict %+v", pol.Name, lv)
		}
		// The live verdict must match the context-free API exactly.
		plain, err := ForPolicy(pol)
		if err != nil {
			t.Fatal(err)
		}
		pv := plain(set, plat)
		if pv.Schedulable != lv.Schedulable || pv.Test != lv.Test {
			t.Fatalf("%s: context verdict %+v diverges from plain %+v", pol.Name, lv, pv)
		}
	}
}
