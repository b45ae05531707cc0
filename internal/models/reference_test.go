package models

import (
	"reflect"
	"sync"
	"testing"

	"rtmdm/internal/cost"
	"rtmdm/internal/nn"
	"rtmdm/internal/segment"
)

// TestReferenceShared checks that concurrent first lookups of a shared
// instance converge on one pointer (run under -race), that Reference
// serves that instance with seed 1's weights, and that unknown names fail.
func TestReferenceShared(t *testing.T) {
	names := Names()
	const workers = 8
	fresh := make([]*refEntry, len(names))
	for i, name := range names {
		fresh[i] = &refEntry{info: catalog[name]}
	}
	got := make([][]*nn.Model, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, name := range names {
				shared, err := Reference(name)
				if err != nil {
					t.Error(err)
					return
				}
				if again, _ := Reference(name); again != shared {
					t.Errorf("%s: Reference returned two instances", name)
				}
				got[w] = append(got[w], fresh[i].model())
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, name := range names {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("%s: concurrent first lookups returned different instances", name)
			}
		}
		shared, _ := Reference(name)
		seed1, _ := Build(name, 1)
		ws, ok1 := firstWeights(shared)
		w1, ok2 := firstWeights(seed1)
		if ok1 != ok2 || !reflect.DeepEqual(ws, w1) {
			t.Fatalf("%s: shared instance does not carry seed 1's weights", name)
		}
	}
	if _, err := Reference("no-such-model"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestSeedChangesWeightsOnly pins the premise of Reference: a model's
// weight seed never reaches the static accounting that segmentation, the
// cost model and the analyses read. For every catalog model and a spread
// of seeds, the graph, the per-node accounting, the activation liveness
// and the segmentation plans under two platforms match seed 1's.
func TestSeedChangesWeightsOnly(t *testing.T) {
	plats := []cost.Platform{cost.STM32H743, cost.STM32F746}
	lim := func(p cost.Platform) segment.Limits {
		return segment.Limits{Bytes: p.WeightBufBytes / 6, ComputeNs: 500_000}
	}
	for _, name := range Names() {
		ref, err := Reference(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 65535} {
			m, err := Build(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Nodes) != len(ref.Nodes) || m.Output != ref.Output ||
				m.Input != ref.Input || m.InQuant != ref.InQuant {
				t.Fatalf("%s seed %d: graph differs from seed 1", name, seed)
			}
			for i, nd := range m.Nodes {
				if d := nodeDiff(nd, ref.Nodes[i]); d != "" {
					t.Fatalf("%s seed %d node %d: %s differs from seed 1", name, seed, i, d)
				}
			}
			ma, md := m.Liveness()
			ra, rd := ref.Liveness()
			if !reflect.DeepEqual(ma, ra) || !reflect.DeepEqual(md, rd) {
				t.Fatalf("%s seed %d: Liveness differs from seed 1", name, seed)
			}
			if m.PeakActivationBytes() != ref.PeakActivationBytes() {
				t.Fatalf("%s seed %d: PeakActivationBytes differs from seed 1", name, seed)
			}
			for _, p := range plats {
				a, err := segment.BuildLimits(m, p, lim(p), segment.Greedy)
				if err != nil {
					t.Fatal(err)
				}
				b, err := segment.BuildLimits(ref, p, lim(p), segment.Greedy)
				if err != nil {
					t.Fatal(err)
				}
				if a.BudgetBytes != b.BudgetBytes || !reflect.DeepEqual(a.Segments, b.Segments) {
					t.Fatalf("%s seed %d on %s: plan differs from seed 1", name, seed, p.Name)
				}
			}
		}
	}
}

// nodeDiff names the first static property in which two nodes differ, or
// returns "".
func nodeDiff(a, b nn.Node) string {
	la, lb := a.Layer, b.Layer
	switch {
	case la.Kind() != lb.Kind():
		return "Kind"
	case !reflect.DeepEqual(a.Inputs, b.Inputs):
		return "Inputs"
	case la.InShape() != lb.InShape():
		return "InShape"
	case la.OutShape() != lb.OutShape():
		return "OutShape"
	case la.ParamBytes() != lb.ParamBytes():
		return "ParamBytes"
	case la.MACs() != lb.MACs():
		return "MACs"
	}
	return ""
}
