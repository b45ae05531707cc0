package corpus

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"rtmdm/internal/analysis"
	"rtmdm/internal/exec"
	"rtmdm/internal/scenario"
	"rtmdm/internal/trace"
)

// Outcome classes. Every scenario lands in exactly one.
const (
	// ClassOK: all checks ran and held.
	ClassOK = "ok"
	// ClassGenerateError: no activation-feasible workload for the drawn
	// axes (counted, not fatal — the axis draw is still deterministic).
	ClassGenerateError = "generate-error"
	// ClassUnsupported: the drawn policy has no sound schedulability
	// test (e.g. serial EDF); the simulator still runs for
	// crash-freedom, but there is no verdict to check soundness against.
	ClassUnsupported = "analysis-unsupported"
	// ClassViolation: a soundness or parity property failed — the only
	// class that fails a corpus run. A generated scenario that does not
	// even build lands here too: generation only draws validated axes,
	// so an unbuildable instance is itself a corpus bug.
	ClassViolation = "violation"
	// ClassCanceled: the context expired mid-check.
	ClassCanceled = "canceled"
)

// Outcome is the oracle's record for one scenario instance. Fields are
// serialized deterministically; the runner's manifest is a pure function
// of the outcome sequence.
type Outcome struct {
	Index         int      `json:"index"`
	ID            string   `json:"id"`
	Axes          Axes     `json:"axes"`
	Class         string   `json:"class"`
	Test          string   `json:"test,omitempty"`
	Schedulable   bool     `json:"schedulable,omitempty"`
	Reason        string   `json:"reason,omitempty"`
	Misses        int64    `json:"misses"`
	FaultedMisses int64    `json:"faulted_misses,omitempty"`
	Warm          bool     `json:"warm,omitempty"`
	Violations    []string `json:"violations,omitempty"`

	supported bool
	canceled  bool
}

// manifestLine renders the outcome's digest-relevant fields as one
// stable text line. Throughput and timing never appear here — the
// manifest must be byte-identical across machines and worker counts.
func (o *Outcome) manifestLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %s %s test=%s sched=%t misses=%d fmisses=%d",
		o.Index, o.ID, o.Class, o.Test, o.Schedulable, o.Misses, o.FaultedMisses)
	for _, v := range o.Violations {
		fmt.Fprintf(&b, " violation=%q", v)
	}
	return b.String()
}

// Oracle runs the differential soundness checks for corpus instances:
// cold RTA, incremental-vs-cold verdict parity (fresh and warm), nominal
// simulation soundness (analysis-schedulable ⇒ zero simulated misses and
// every task's simulated maximum response within its WCRT bound), and
// faulted-simulation crash-freedom.
type Oracle struct {
	gen *Generator
	// InjectVerdictBug deliberately corrupts the analysis verdict
	// (claiming every analyzable task set schedulable, with every WCRT
	// bound halved) before the soundness checks. Used by the self-check
	// tier to prove the oracle actually fails when the analysis is
	// wrong; never set in real runs.
	InjectVerdictBug bool
}

// NewOracle returns an oracle over the generator's corpus.
func NewOracle(g *Generator) *Oracle { return &Oracle{gen: g} }

// Check generates instance i and runs every applicable property against
// it. Property failures are recorded in the outcome, never returned as
// errors, so a sweep always completes.
func (o *Oracle) Check(ctx context.Context, i int) Outcome {
	ins := instr.Load()
	item, err := o.gen.At(i)
	if err != nil {
		out := Outcome{Index: i, ID: item.ID, Axes: item.Axes}
		if ctx.Err() != nil {
			out.Class = ClassCanceled
			return out
		}
		out.Class = ClassGenerateError
		out.Reason = err.Error()
		ins.generateErrors.Add(1)
		return out
	}
	ins.generated.Add(1)

	out := o.evaluate(ctx, item.Scenario)
	out.Index = i
	out.ID = item.ID
	out.Axes = item.Axes
	switch {
	case out.canceled:
		out.Class = ClassCanceled
	case len(out.Violations) > 0:
		out.Class = ClassViolation
		ins.violations.Add(1)
	case !out.supported:
		out.Class = ClassUnsupported
		ins.unsupported.Add(1)
	default:
		out.Class = ClassOK
	}
	return out
}

// CheckScenario runs the oracle properties against an arbitrary
// scenario and returns the violations — the shrinker's predicate. A
// scenario that no longer builds (e.g. zero tasks after a shrink step)
// returns nil: an invalid candidate, not a violation.
func (o *Oracle) CheckScenario(ctx context.Context, sc *scenario.Scenario) []string {
	return o.evaluate(ctx, sc).Violations
}

// Generated regenerates instance i (for the shrinker and repro tools).
func (o *Oracle) Generated(i int) (Item, error) { return o.gen.At(i) }

// evaluate runs every property against one concrete scenario. The
// caller classifies from supported/canceled/Violations.
func (o *Oracle) evaluate(ctx context.Context, sc *scenario.Scenario) Outcome {
	ins := instr.Load()
	var out Outcome
	sc = sc.Canonicalize()
	set, plat, pol, err := sc.Build()
	if err != nil {
		if ctx.Err() != nil {
			out.canceled = true
			return out
		}
		if len(sc.Tasks) == 0 {
			return out
		}
		out.Reason = err.Error()
		out.Violations = append(out.Violations, "build: "+err.Error())
		return out
	}

	// Cold analysis is the reference verdict.
	cold, coldErr := analysis.EvaluateScenario(ctx, sc)
	if coldErr != nil && ctx.Err() != nil {
		out.canceled = true
		return out
	}
	out.supported = coldErr == nil
	if out.supported {
		out.Test = cold.Test
		out.Schedulable = cold.Schedulable
		out.Reason = cold.Reason
	} else {
		out.Reason = coldErr.Error()
	}

	// Differential parity: a fresh incremental analyzer must agree with
	// the cold path bit-for-bit, both on its first (cold-path)
	// evaluation and warm after committing the same scenario.
	inc := analysis.NewIncrementalAnalyzer()
	fresh, _, freshErr := inc.Evaluate(ctx, sc)
	if d := verdictDiff("incremental-cold", cold, coldErr, fresh, freshErr); d != "" {
		out.Violations = append(out.Violations, d)
	}
	if freshErr == nil {
		inc.Commit(sc)
		warm, st, warmErr := inc.Evaluate(ctx, sc)
		out.Warm = st.Warm
		if d := verdictDiff("incremental-warm", cold, coldErr, warm, warmErr); d != "" {
			out.Violations = append(out.Violations, d)
		}
	}

	// Nominal simulation: the soundness property proper. The nominal run
	// carries no fault plan — injected overruns and slowdowns exceed the
	// modeled WCETs the analysis is sound against, so soundness is only
	// claimable at modeled timing.
	res, simErr := exec.RunContext(ctx, set, plat, pol, sc.Horizon())
	if simErr != nil {
		if ctx.Err() != nil {
			out.canceled = true
			return out
		}
		out.Violations = append(out.Violations, "nominal-exec: "+simErr.Error())
		return out
	}
	out.Misses = totalMisses(res.Metrics)
	ins.simRuns.Add(1)
	claims := out.supported && cold.Schedulable
	if o.InjectVerdictBug && out.supported {
		claims = true
	}
	if claims && out.Misses > 0 {
		out.Violations = append(out.Violations,
			fmt.Sprintf("soundness: analysis says schedulable (test=%s) but nominal simulation missed %d deadlines", cold.Test, out.Misses))
	}
	if claims {
		// Bound dominance: a schedulable verdict bounds every response,
		// not just the deadline, so each simulated maximum must sit
		// within its task's WCRT (tests without per-task bounds, such as
		// the EDF demand test, report none and are skipped).
		for _, t := range set.Tasks {
			bound, ok := cold.WCRT[t.Name]
			if !ok {
				continue
			}
			if o.InjectVerdictBug {
				bound /= 2
			}
			if got := res.Metrics.PerTask[t.Name].MaxResponse; got > bound {
				out.Violations = append(out.Violations,
					fmt.Sprintf("dominance: task %s simulated max response %v exceeds its WCRT bound %v (test=%s)", t.Name, got, bound, cold.Test))
			}
		}
	}

	// Faulted simulation: crash-freedom only. The executor must survive
	// any generated fault plan without an internal error.
	if sc.Faults != nil {
		plan, planErr := sc.FaultPlan()
		if planErr != nil {
			out.Violations = append(out.Violations, "fault-plan: "+planErr.Error())
			return out
		}
		fres, fErr := exec.RunWithFaultsContext(ctx, set, plat, pol, sc.Horizon(), plan, nil)
		if fErr != nil {
			if ctx.Err() != nil {
				out.canceled = true
				return out
			}
			out.Violations = append(out.Violations, "faulted-exec: "+fErr.Error())
			return out
		}
		out.FaultedMisses = totalMisses(fres.Metrics)
		ins.faultedRuns.Add(1)
	}
	return out
}

// verdictDiff compares two (verdict, error) pairs for bit-identity and
// returns a one-line description of the first difference, or "".
func verdictDiff(label string, ref analysis.Verdict, refErr error, got analysis.Verdict, gotErr error) string {
	if (refErr == nil) != (gotErr == nil) {
		return fmt.Sprintf("%s: error parity: ref=%v got=%v", label, refErr, gotErr)
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			return fmt.Sprintf("%s: error text: ref=%q got=%q", label, refErr, gotErr)
		}
		return ""
	}
	if ref.Test != got.Test || ref.Schedulable != got.Schedulable || ref.Reason != got.Reason {
		return fmt.Sprintf("%s: verdict: ref={%s %t %q} got={%s %t %q}",
			label, ref.Test, ref.Schedulable, ref.Reason, got.Test, got.Schedulable, got.Reason)
	}
	if len(ref.WCRT) != len(got.WCRT) {
		return fmt.Sprintf("%s: wcrt count: ref=%d got=%d", label, len(ref.WCRT), len(got.WCRT))
	}
	names := make([]string, 0, len(ref.WCRT))
	for name := range ref.WCRT {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got.WCRT[name]
		if !ok || g != ref.WCRT[name] {
			return fmt.Sprintf("%s: wcrt[%s]: ref=%v got=%v", label, name, ref.WCRT[name], g)
		}
	}
	return ""
}

// totalMisses sums deadline misses across tasks.
func totalMisses(m *trace.Metrics) int64 {
	if m == nil {
		return 0
	}
	var n int64
	for _, tm := range m.PerTask {
		n += int64(tm.Misses)
	}
	return n
}
