package exec

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/models"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
)

func ctxTestSet(t *testing.T, plat cost.Platform, pol core.Policy) *task.Set {
	t.Helper()
	names := []string{"ds-cnn", "mobilenetv1-0.25"}
	periods := []sim.Duration{50 * sim.Millisecond, 150 * sim.Millisecond}
	var ts []*task.Task
	for i, n := range names {
		m, err := models.Build(n, 1)
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
	set := task.NewSet(ts...)
	if err := core.Provision(set, plat, pol); err != nil {
		t.Fatal(err)
	}
	return set
}

// TestRunContextCanceled verifies a pre-canceled context aborts the run
// with the context's error instead of returning a partial result.
func TestRunContextCanceled(t *testing.T) {
	plat := cost.STM32H743
	pol := core.RTMDM()
	set := ctxTestSet(t, plat, pol)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, set, plat, pol, sim.Second)
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
}

// TestRunContextDeadline verifies an already-expired deadline aborts with
// DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	plat := cost.STM32H743
	pol := core.RTMDM()
	set := ctxTestSet(t, plat, pol)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := RunContext(ctx, set, plat, pol, sim.Second); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded", err)
	}
}

// TestRunContextNominalIdentical pins that threading a live context
// through a run that completes changes nothing: same trace, same metrics.
func TestRunContextNominalIdentical(t *testing.T) {
	plat := cost.STM32H743
	pol := core.RTMDM()
	set := ctxTestSet(t, plat, pol)

	want, err := runRec(set, plat, pol, 300*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := runCtxRec(ctx, set, plat, pol, 300*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) || !reflect.DeepEqual(got.Metrics, want.Metrics) {
		t.Fatalf("trace or metrics differ under context: %d vs %d events", got.Trace.Len(), want.Trace.Len())
	}
	if got.CPUBusyNs != want.CPUBusyNs || got.DMABusyNs != want.DMABusyNs {
		t.Fatalf("busy counters diverge: ctx (%d, %d) vs plain (%d, %d)",
			got.CPUBusyNs, got.DMABusyNs, want.CPUBusyNs, want.DMABusyNs)
	}
}
