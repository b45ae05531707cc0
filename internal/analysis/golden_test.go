package analysis

import (
	"testing"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
)

// Golden regression tests: exact WCRT bounds for a fixed scenario catalog.
// Any change to a blocking term, derating rule, jitter model or iteration
// scheme shows up here as a precise diff. (Values were derived from the
// analysis definitions in docs/ANALYSIS.md; the relative ordering —
// chunked ≤ rt-mdm ≤ segfp ≤ npfp ≤ fifo on the urgent task — is the
// structural claim.)
func TestGoldenWCRTBounds(t *testing.T) {
	plain := testPlat()
	con := testPlat()
	con.Bus = cost.Contention{CPUNum: 4, CPUDen: 5, DMANum: 4, DMADen: 5}
	sw := testPlat()
	sw.CPU.SwitchNs = 200

	type golden struct {
		hi, lo sim.Duration
	}
	cases := []struct {
		name string
		plat cost.Platform
		set  *task.Set
		want map[string]golden
		edf  bool
	}{
		{
			name: "two-task",
			plat: plain,
			set: task.NewSet(
				mkTask(plain, "hi", 20_000, 0, segSpec{1000, 1500}, segSpec{500, 2000}),
				mkTask(plain, "lo", 60_000, 1, segSpec{3000, 2500})),
			want: map[string]golden{
				"rtmdm": {10_000, 15_500},
				"segfp": {10_500, 15_500},
				"npfp":  {13_500, 15_500},
				"fifo":  {18_500, 15_500},
				"chunk": {8_000, 10_500},
			},
			edf: true,
		},
		{
			name: "contended",
			plat: con,
			set: task.NewSet(
				mkTask(con, "hi", 30_000, 0, segSpec{2000, 2000}),
				mkTask(con, "lo", 90_000, 1, segSpec{4000, 1000}, segSpec{1000, 4000})),
			want: map[string]golden{
				"rtmdm": {15_000, 22_500},
				"segfp": {15_000, 22_500},
				"npfp":  {22_500, 22_500},
				"fifo":  {27_500, 21_250},
				"chunk": {11_250, 17_500},
			},
			edf: true,
		},
		{
			name: "switchcost",
			plat: sw,
			set: task.NewSet(
				mkTask(sw, "hi", 25_000, 0, segSpec{800, 1200}, segSpec{800, 1200}),
				mkTask(sw, "lo", 70_000, 1, segSpec{2500, 2500})),
			want: map[string]golden{
				"rtmdm": {8_800, 9_600},
				"segfp": {9_600, 9_600},
				"npfp":  {12_100, 9_600},
				"fifo":  {16_500, 14_000},
				"chunk": {7_300, 9_600},
			},
			edf: true,
		},
	}

	pols := map[string]core.Policy{
		"rtmdm": core.RTMDM(),
		"segfp": core.SerialSegFP(),
		"npfp":  core.SerialNPFP(),
		"fifo":  core.RTMDMFIFODMA(),
		"chunk": core.RTMDMChunked(1000),
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := map[string]Verdict{}
			for name, pol := range pols {
				run[name] = policyTest(t, pol)(c.set, c.plat)
			}
			for name, want := range c.want {
				v := run[name]
				if !v.Schedulable {
					t.Errorf("%s: unexpectedly unschedulable (%s)", name, v.Reason)
					continue
				}
				if v.WCRT["hi"] != want.hi || v.WCRT["lo"] != want.lo {
					t.Errorf("%s: WCRT hi=%v lo=%v, want hi=%v lo=%v",
						name, v.WCRT["hi"], v.WCRT["lo"], want.hi, want.lo)
				}
			}
			// Structural ordering on the urgent task.
			hi := func(n string) sim.Duration { return run[n].WCRT["hi"] }
			if !(hi("chunk") <= hi("rtmdm") && hi("rtmdm") <= hi("segfp") &&
				hi("segfp") <= hi("npfp") && hi("npfp") <= hi("fifo")) {
				t.Errorf("urgent-task bound ordering violated: chunk=%v rtmdm=%v segfp=%v npfp=%v fifo=%v",
					hi("chunk"), hi("rtmdm"), hi("segfp"), hi("npfp"), hi("fifo"))
			}
			if got := policyTest(t, core.RTMDMEDF())(c.set, c.plat).Schedulable; got != c.edf {
				t.Errorf("edf verdict %v, want %v", got, c.edf)
			}
		})
	}
}
