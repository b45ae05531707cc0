package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// liveBytesAfter is the direct O(n²·E) definition Liveness must match: the
// bytes of activation tensors still live after node `node` has executed —
// outputs of nodes ≤ node (and the model input) that some node > node
// consumes, plus the model output once produced.
func liveBytesAfter(m *Model, node int) int64 {
	var live int64
	for src := -1; src <= node; src++ {
		needed := src == m.Output
		for i := node + 1; i < len(m.Nodes) && !needed; i++ {
			for _, in := range m.Nodes[i].Inputs {
				if in == src {
					needed = true
					break
				}
			}
		}
		if needed {
			live += nodeBytes(m, src)
		}
	}
	return live
}

// liveBytesDuring is the direct definition of Liveness's during[node]:
// everything live after node-1 (the model input for node 0) plus the
// output being produced.
func liveBytesDuring(m *Model, node int) int64 {
	prev := nodeBytes(m, -1)
	if node > 0 {
		prev = liveBytesAfter(m, node-1)
	}
	return prev + nodeBytes(m, node)
}

func nodeBytes(m *Model, i int) int64 {
	if i == -1 {
		return int64(m.Input.Elems())
	}
	return int64(m.Nodes[i].Layer.OutShape().Elems())
}

// checkLiveness asserts Liveness equals the direct definitions at every node.
func checkLiveness(t *testing.T, m *Model) {
	t.Helper()
	after, during := m.Liveness()
	if len(after) != len(m.Nodes) || len(during) != len(m.Nodes) {
		t.Fatalf("%s: Liveness lengths %d/%d, want %d", m.Name, len(after), len(during), len(m.Nodes))
	}
	for i := range m.Nodes {
		if want := liveBytesAfter(m, i); after[i] != want {
			t.Fatalf("%s node %d: after = %d, want %d", m.Name, i, after[i], want)
		}
		if want := liveBytesDuring(m, i); during[i] != want {
			t.Fatalf("%s node %d: during = %d, want %d", m.Name, i, during[i], want)
		}
	}
}

func TestLiveBytesChain(t *testing.T) {
	// A simple chain: input 2x2x4 → relu → gap(4).
	qp := q(1.0/32, 0)
	in := Shape{2, 2, 4}
	b := NewBuilder("live", in, qp)
	b.Add(NewReLU("r", in, qp))
	b.Add(NewGlobalAvgPool("g", in, qp, qp))
	m := b.MustBuild()
	checkLiveness(t, m)
	after, during := m.Liveness()

	// After node 0 (relu): its output (16) is needed by gap; input dead.
	if after[0] != 16 {
		t.Fatalf("after(relu) = %d, want 16", after[0])
	}
	// After node 1 (gap, the output): only the model output (4) remains.
	if after[1] != 4 {
		t.Fatalf("after(gap) = %d, want 4", after[1])
	}
	// During node 1: relu output (16) + gap output (4).
	if during[1] != 20 {
		t.Fatalf("during(gap) = %d, want 20", during[1])
	}
	// During node 0: model input (16) + relu output (16).
	if during[0] != 32 {
		t.Fatalf("during(relu) = %d, want 32", during[0])
	}
}

func TestLiveBytesSkipConnection(t *testing.T) {
	// input → c1 → c2 → add(c1, c2): c1's output must stay live across c2.
	rng := rand.New(rand.NewSource(2))
	qp := q(1.0/32, 0)
	in := Shape{4, 4, 2}
	b := NewBuilder("skip", in, qp)
	mk := func(name string) *Conv2D {
		return NewConv2D(name, in, 2, 3, 3, 1, PadSame, qp, q(0.01, 0), qp,
			randWeights(rng, 2*9*2), randBias(rng, 2, 10), true)
	}
	n1 := b.Add(mk("c1"))
	n2 := b.Add(mk("c2"))
	b.Add(NewAdd("add", in, qp, qp, qp, false), n1, n2)
	m := b.MustBuild()
	checkLiveness(t, m)
	// After c2: c1 out (32) + c2 out (32) both live for the add.
	if after, _ := m.Liveness(); after[1] != 64 {
		t.Fatalf("after(c2) = %d, want 64", after[1])
	}
	if m.OutShape() != in {
		t.Fatalf("OutShape = %v", m.OutShape())
	}
	if m.NumLayers() != 3 {
		t.Fatalf("NumLayers = %d", m.NumLayers())
	}
}

// TestLivenessRandomDAGs checks the one-pass liveness against the direct
// definitions on seeded random graphs with the shapes a hand-written model
// rarely has: multi-consumer edges, a node consumed twice by one layer,
// never-consumed nodes, an output that is not the last node, and a model
// input consumed late.
func TestLivenessRandomDAGs(t *testing.T) {
	qp := q(1.0/32, 0)
	var multiConsumer, neverConsumed, outputNotLast int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		m := &Model{Name: fmt.Sprintf("dag-%d", seed), Input: Shape{1, 1, 1 + rng.Intn(8)}, InQuant: qp}
		for i := 0; i < n; i++ {
			// Every node is an elementwise Add so any two earlier tensors
			// can feed it; output sizes vary through the input shape each
			// node declares (liveness reads OutShape only).
			sh := Shape{1, 1, 1 + rng.Intn(16)}
			a, b := rng.Intn(i+1)-1, rng.Intn(i+1)-1
			if rng.Intn(4) == 0 {
				b = a // one layer consuming a tensor twice
			}
			m.Nodes = append(m.Nodes, Node{Layer: NewAdd(fmt.Sprintf("n%d", i), sh, qp, qp, qp, false), Inputs: []int{a, b}})
		}
		m.Output = rng.Intn(n)
		checkLiveness(t, m)

		consumers := make([]int, n+1) // slot 0: the model input
		for _, nd := range m.Nodes {
			for _, in := range nd.Inputs {
				consumers[in+1]++
			}
		}
		for i := 0; i < n; i++ {
			if consumers[i+1] > 1 {
				multiConsumer++
			}
			if consumers[i+1] == 0 && i != m.Output {
				neverConsumed++
			}
		}
		if m.Output != n-1 {
			outputNotLast++
		}
	}
	if multiConsumer == 0 || neverConsumed == 0 || outputNotLast == 0 {
		t.Fatalf("random graphs missed a case: multi-consumer %d, never-consumed %d, output-not-last %d",
			multiConsumer, neverConsumed, outputNotLast)
	}
}

func TestBuilderAccessors(t *testing.T) {
	qp := q(1.0/32, 0)
	in := Shape{2, 2, 1}
	b := NewBuilder("acc", in, qp)
	if b.Last() != -1 {
		t.Fatal("Last before any node")
	}
	if b.NodeShape(-1) != in || b.NodeQuant(-1) != qp {
		t.Fatal("NodeShape/Quant(-1) should describe the input")
	}
	idx := b.Add(NewReLU("r", in, qp))
	if b.Last() != idx || b.NodeShape(idx) != in || b.NodeQuant(idx) != qp {
		t.Fatal("builder accessors after Add")
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindConv2D; k <= KindPad; k++ {
		if s := k.String(); s == "" || s[0] == 'k' && len(s) > 4 && s[:5] == "kind(" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind string")
	}
}

func TestConstructorPanics(t *testing.T) {
	qp := q(1.0/32, 0)
	in := Shape{4, 4, 2}
	cases := map[string]func(){
		"conv geometry": func() {
			NewConv2D("c", in, 0, 3, 3, 1, PadSame, qp, qp, qp, nil, nil, false)
		},
		"conv weights": func() {
			NewConv2D("c", in, 2, 3, 3, 1, PadSame, qp, qp, qp, make([]int8, 5), make([]int32, 2), false)
		},
		"conv bias": func() {
			NewConv2D("c", in, 2, 3, 3, 1, PadSame, qp, qp, qp, make([]int8, 2*9*2), make([]int32, 1), false)
		},
		"conv shrink to nothing": func() {
			NewConv2D("c", Shape{2, 2, 1}, 1, 5, 5, 1, PadValid, qp, qp, qp, make([]int8, 25), make([]int32, 1), false)
		},
		"per-channel scales": func() {
			NewConv2DPerChannel("c", in, 2, 3, 3, 1, PadSame, qp, []float64{0.1}, qp,
				make([]int8, 2*9*2), make([]int32, 2), false)
		},
		"dw weights": func() {
			NewDWConv2D("d", in, 3, 3, 1, PadSame, qp, qp, qp, make([]int8, 5), make([]int32, 2), false)
		},
		"dw bias": func() {
			NewDWConv2D("d", in, 3, 3, 1, PadSame, qp, qp, qp, make([]int8, 9*2), make([]int32, 1), false)
		},
		"dense weights": func() {
			NewDense("f", in, 3, qp, qp, qp, make([]int8, 5), make([]int32, 3), false)
		},
		"dense bias": func() {
			NewDense("f", in, 3, qp, qp, qp, make([]int8, 32*3), make([]int32, 1), false)
		},
		"softmax shape": func() {
			NewSoftmax("s", in, qp)
		},
		"maxpool shrink": func() {
			NewMaxPool2D("p", Shape{1, 1, 1}, 3, 1, PadValid, qp)
		},
		"avgpool shrink": func() {
			NewAvgPool2D("p", Shape{1, 1, 1}, 3, 1, PadValid, qp, qp)
		},
		"pad negative": func() {
			NewZeroPad2D("z", in, -1, 0, 0, 0, qp)
		},
		"tensor shape": func() {
			NewTensor(Shape{0, 1, 1}, qp)
		},
		"wrong input shape": func() {
			NewReLU("r", in, qp).Forward(NewTensor(Shape{1, 1, 1}, qp))
		},
	}
	for name, f := range cases {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		})
	}
}
