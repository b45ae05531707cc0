package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/models"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
)

// PT-4: UUniFast shares sum to the target and are all nonnegative.
func TestPropertyUUniFast(t *testing.T) {
	f := func(seed int64, nRaw uint8, uRaw uint8) bool {
		n := int(nRaw%10) + 1
		total := float64(uRaw%40)/10.0 + 0.05
		rng := rand.New(rand.NewSource(seed))
		u := UUniFast(rng, n, total)
		if len(u) != n {
			return false
		}
		var sum float64
		for _, v := range u {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateHitsTargetUtilization(t *testing.T) {
	plat := cost.STM32H743
	for _, util := range []float64{0.3, 0.6, 0.9} {
		spec, err := Generate(Params{Seed: 42, N: 4, Util: util, Platform: plat})
		if err != nil {
			t.Fatal(err)
		}
		if len(spec.Tasks) != 4 {
			t.Fatalf("got %d tasks", len(spec.Tasks))
		}
		// Instantiate at the reference budget and check the realized
		// serial utilization is close to the target (clamping and
		// re-segmentation introduce slack).
		s, err := spec.InstantiateLimits(plat, segment.Limits{Bytes: refBudget(plat, 4)})
		if err != nil {
			t.Fatal(err)
		}
		got := s.SerialUtilization()
		if math.Abs(got-util) > 0.05*util+0.02 {
			t.Errorf("target %v realized %v", util, got)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Seed: 7, N: 5, Util: 0.5, Platform: cost.STM32H743}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("spec differs at task %d: %+v vs %+v", i, a.Tasks[i], b.Tasks[i])
		}
	}
	c, err := Generate(Params{Seed: 8, N: 5, Util: 0.5, Platform: cost.STM32H743})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Tasks {
		if a.Tasks[i] != c.Tasks[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical specs")
	}
}

func TestInstantiatePerPolicyBudgets(t *testing.T) {
	plat := cost.STM32H743
	spec, err := Generate(Params{Seed: 1, N: 3, Util: 0.4, Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := spec.Instantiate(plat, core.RTMDM())
	if err != nil {
		t.Fatal(err)
	}
	np, err := spec.Instantiate(plat, core.SerialNPFP())
	if err != nil {
		t.Fatal(err)
	}
	// RT-MDM splits the SRAM across tasks and buffers → more segments.
	var rtSegs, npSegs int
	for i := range rt.Tasks {
		rtSegs += rt.Tasks[i].NumSegments()
		npSegs += np.Tasks[i].NumSegments()
	}
	if rtSegs < npSegs {
		t.Fatalf("RT-MDM budget produced fewer segments (%d) than NP (%d)", rtSegs, npSegs)
	}
	// Instantiated sets must provision under their policies.
	if err := core.Provision(rt, plat, core.RTMDM()); err != nil {
		t.Fatal(err)
	}
	if err := core.Provision(np, plat, core.SerialNPFP()); err != nil {
		t.Fatal(err)
	}
	// Same periods across policies (the comparison axis).
	for i := range rt.Tasks {
		if rt.Tasks[i].Period != np.Tasks[i].Period {
			t.Fatal("periods differ across policy instantiations")
		}
	}
}

func TestPeriodClamping(t *testing.T) {
	plat := cost.STM32H743
	spec, err := Generate(Params{
		Seed: 3, N: 4, Util: 0.5, Platform: plat,
		MinPeriod: 50 * sim.Millisecond, MaxPeriod: 500 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range spec.Tasks {
		if tk.Period < 50*sim.Millisecond || tk.Period > 500*sim.Millisecond {
			t.Fatalf("period %v escaped clamp", tk.Period)
		}
	}
}

func TestDeadlineFraction(t *testing.T) {
	plat := cost.STM32H743
	spec, err := Generate(Params{Seed: 3, N: 4, Util: 0.5, Platform: plat, DeadlineFrac: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range spec.Tasks {
		want := sim.Duration(float64(tk.Period) * 0.8)
		if diff := tk.Deadline - want; diff < -1 || diff > 1 {
			t.Fatalf("deadline %v, want ≈ %v", tk.Deadline, want)
		}
	}
	if _, err := Generate(Params{Seed: 3, N: 4, Util: 0.5, Platform: plat, DeadlineFrac: 1.5}); err == nil {
		t.Fatal("deadline fraction > 1 accepted (constrained model)")
	}
}

func TestModelSubset(t *testing.T) {
	plat := cost.STM32H743
	spec, err := Generate(Params{
		Seed: 11, N: 6, Util: 0.5, Platform: plat,
		Models: []string{"ds-cnn", "lenet5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range spec.Tasks {
		if tk.Model != "ds-cnn" && tk.Model != "lenet5" {
			t.Fatalf("model %q outside subset", tk.Model)
		}
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	plat := cost.STM32H743
	if _, err := Generate(Params{Seed: 1, N: 0, Util: 0.5, Platform: plat}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Generate(Params{Seed: 1, N: 2, Util: 0, Platform: plat}); err == nil {
		t.Fatal("U=0 accepted")
	}
	if _, err := Generate(Params{Seed: 1, N: 2, Util: 0.5}); err == nil {
		t.Fatal("zero platform accepted")
	}
}

func TestInstantiateEmptySpecFails(t *testing.T) {
	if _, err := (SetSpec{}).Instantiate(cost.STM32H743, core.RTMDM()); err == nil {
		t.Fatal("empty spec instantiated")
	}
}

func TestCacheReturnsEquivalentModels(t *testing.T) {
	a, err := refModel("ds-cnn")
	if err != nil {
		t.Fatal(err)
	}
	b, err := refModel("ds-cnn")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := models.Reference("ds-cnn")
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a != shared {
		t.Fatal("lookups did not share the reference instance")
	}
	fresh, err := models.Build("ds-cnn", 5)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.TotalParamBytes() != a.TotalParamBytes() || fresh.TotalMACs() != a.TotalMACs() {
		t.Fatal("shared model's accounting differs from a fresh build")
	}
}
