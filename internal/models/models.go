// Package models provides the DNN model zoo used throughout the RT-MDM
// reproduction. The topologies mirror the MLPerf Tiny reference models —
// the de-facto multi-DNN MCU workload mix (person detection, keyword
// spotting, image classification, anomaly detection) — so parameter counts,
// MAC counts and working sets match published magnitudes. Weights are
// synthetic but deterministic (seeded), with per-layer scales chosen so
// activations stay in-range; the graphs really execute via internal/nn.
package models

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"rtmdm/internal/nn"
)

// ActScale is the uniform activation quantization scale used by the zoo.
const ActScale = 1.0 / 32.0

var actQ = nn.QuantParams{Scale: ActScale, Zero: 0}

// wScale picks a weight scale so that random int8 weights behave like a
// He initialization: std ≈ gain/sqrt(fanIn), with gain √2 for layers
// followed by ReLU (which halves the activation variance) and 1 otherwise.
// (Uniform int8 has std ≈ 127/sqrt(3) ≈ 73.3.)
func wScale(fanIn int, relu bool) float64 {
	if fanIn < 1 {
		fanIn = 1
	}
	gain := 1.0
	if relu {
		gain = math.Sqrt2
	}
	return gain / (73.3 * math.Sqrt(float64(fanIn)))
}

// gen holds the deterministic weight stream for one model build.
type gen struct {
	rng *rand.Rand
	b   *nn.Builder
	n   int // layer counter for unique names
}

func newGen(name string, in nn.Shape, seed int64) *gen {
	// Mix the model name into the seed so different models built with the
	// same seed do not share weight streams.
	var h int64 = 1469598103934665603
	for _, c := range name {
		h = (h ^ int64(c)) * 1099511628211
	}
	return &gen{
		rng: rand.New(rand.NewSource(seed ^ h)),
		b:   nn.NewBuilder(name, in, actQ),
	}
}

func (g *gen) weights(n int) []int8 {
	w := make([]int8, n)
	for i := range w {
		w[i] = int8(g.rng.Intn(255) - 127)
	}
	return w
}

func (g *gen) bias(n int) []int32 {
	b := make([]int32, n)
	for i := range b {
		b[i] = int32(g.rng.Intn(129) - 64)
	}
	return b
}

func (g *gen) name(kind string) string {
	g.n++
	return fmt.Sprintf("%s%d", kind, g.n)
}

// conv appends a Conv2D chained from the previous node.
func (g *gen) conv(outC, kh, kw, stride int, pad nn.Padding, relu bool) {
	in := g.b.LastShape()
	fanIn := kh * kw * in.C
	l := nn.NewConv2D(g.name("conv"), in, outC, kh, kw, stride, pad,
		g.b.LastQuant(), nn.QuantParams{Scale: wScale(fanIn, relu)}, actQ,
		g.weights(outC*kh*kw*in.C), g.bias(outC), relu)
	g.b.Add(l)
}

// dw appends a depthwise conv chained from the previous node.
func (g *gen) dw(k, stride int, pad nn.Padding, relu bool) {
	in := g.b.LastShape()
	fanIn := k * k
	l := nn.NewDWConv2D(g.name("dwconv"), in, k, k, stride, pad,
		g.b.LastQuant(), nn.QuantParams{Scale: wScale(fanIn, relu)}, actQ,
		g.weights(k*k*in.C), g.bias(in.C), relu)
	g.b.Add(l)
}

// dense appends a fully-connected layer chained from the previous node.
func (g *gen) dense(outN int, relu bool) {
	in := g.b.LastShape()
	l := nn.NewDense(g.name("fc"), in, outN,
		g.b.LastQuant(), nn.QuantParams{Scale: wScale(in.Elems(), relu)}, actQ,
		g.weights(in.Elems()*outN), g.bias(outN), relu)
	g.b.Add(l)
}

func (g *gen) maxpool(k, stride int) {
	g.b.Add(nn.NewMaxPool2D(g.name("pool"), g.b.LastShape(), k, stride, nn.PadValid, g.b.LastQuant()))
}

func (g *gen) gap() {
	g.b.Add(nn.NewGlobalAvgPool(g.name("gap"), g.b.LastShape(), g.b.LastQuant(), actQ))
}

func (g *gen) flatten() {
	g.b.Add(nn.NewFlatten(g.name("flat"), g.b.LastShape(), g.b.LastQuant()))
}

func (g *gen) softmax() {
	g.b.Add(nn.NewSoftmax(g.name("softmax"), g.b.LastShape(), g.b.LastQuant()))
}

// MobileNetV1Q25 is the MLPerf-Tiny person-detection ("visual wake words")
// topology: MobileNetV1 with width multiplier 0.25 on 96x96 grayscale,
// 2 output classes. ≈ 220 K parameters, ≈ 7.5 M MACs.
func MobileNetV1Q25(seed int64) *nn.Model {
	g := newGen("mobilenetv1-0.25", nn.Shape{H: 96, W: 96, C: 1}, seed)
	g.conv(8, 3, 3, 2, nn.PadSame, true)
	type block struct{ stride, outC int }
	blocks := []block{
		{1, 16}, {2, 32}, {1, 32}, {2, 64}, {1, 64},
		{2, 128}, {1, 128}, {1, 128}, {1, 128}, {1, 128}, {1, 128},
		{2, 256}, {1, 256},
	}
	for _, bl := range blocks {
		g.dw(3, bl.stride, nn.PadSame, true)
		g.conv(bl.outC, 1, 1, 1, nn.PadSame, true)
	}
	g.gap()
	g.dense(2, false)
	g.softmax()
	return g.b.MustBuild()
}

// ResNet8 is the MLPerf-Tiny image-classification topology: an 8-layer
// residual CNN on 32x32x3 with 10 classes. ≈ 78 K parameters, ≈ 12.5 M MACs.
func ResNet8(seed int64) *nn.Model {
	g := newGen("resnet8", nn.Shape{H: 32, W: 32, C: 3}, seed)
	g.conv(16, 3, 3, 1, nn.PadSame, true) // stem

	stack := func(outC, stride int) {
		trunkIn := g.b.Last()
		inShape := g.b.LastShape()
		inQ := g.b.LastQuant()
		// Main path: conv(s) + conv(1).
		g.conv(outC, 3, 3, stride, nn.PadSame, true)
		g.conv(outC, 3, 3, 1, nn.PadSame, false)
		main := g.b.Last()
		mainQ := g.b.LastQuant()
		skip := trunkIn
		skipQ := inQ
		if stride != 1 || inShape.C != outC {
			// Projection shortcut: 1x1 conv with matching stride.
			fanIn := inShape.C
			l := nn.NewConv2D(g.name("proj"), inShape, outC, 1, 1, stride, nn.PadSame,
				inQ, nn.QuantParams{Scale: wScale(fanIn, false)}, actQ,
				g.weights(outC*inShape.C), g.bias(outC), false)
			skip = g.b.Add(l, trunkIn)
			skipQ = actQ
		}
		outShape := g.b.NodeShape(main)
		add := nn.NewAdd(g.name("add"), outShape, mainQ, skipQ, actQ, true)
		g.b.Add(add, main, skip)
	}
	stack(16, 1)
	stack(32, 2)
	stack(64, 2)
	g.gap()
	g.dense(10, false)
	g.softmax()
	return g.b.MustBuild()
}

// DSCNN is the MLPerf-Tiny keyword-spotting topology: a depthwise-separable
// CNN over a 49x10 MFCC spectrogram with 12 output classes.
// ≈ 22 K parameters, ≈ 2.7 M MACs.
func DSCNN(seed int64) *nn.Model {
	g := newGen("ds-cnn", nn.Shape{H: 49, W: 10, C: 1}, seed)
	g.conv(64, 10, 4, 2, nn.PadSame, true)
	for i := 0; i < 4; i++ {
		g.dw(3, 1, nn.PadSame, true)
		g.conv(64, 1, 1, 1, nn.PadSame, true)
	}
	g.gap()
	g.dense(12, false)
	g.softmax()
	return g.b.MustBuild()
}

// Autoencoder is the MLPerf-Tiny anomaly-detection topology: a symmetric
// dense autoencoder over a 640-dimensional log-mel input window.
// ≈ 264 K parameters (the heaviest parameter load in the zoo relative to
// its compute).
func Autoencoder(seed int64) *nn.Model {
	g := newGen("autoencoder", nn.Shape{H: 1, W: 1, C: 640}, seed)
	for i := 0; i < 4; i++ {
		g.dense(128, true)
	}
	g.dense(8, true) // bottleneck
	for i := 0; i < 4; i++ {
		g.dense(128, true)
	}
	g.dense(640, false)
	return g.b.MustBuild()
}

// LeNet5 is the classic MNIST CNN (28x28x1 → 10), the smallest member of
// the zoo. ≈ 61 K parameters.
func LeNet5(seed int64) *nn.Model {
	g := newGen("lenet5", nn.Shape{H: 28, W: 28, C: 1}, seed)
	g.conv(6, 5, 5, 1, nn.PadSame, true)
	g.maxpool(2, 2)
	g.conv(16, 5, 5, 1, nn.PadValid, true)
	g.maxpool(2, 2)
	g.flatten()
	g.dense(120, true)
	g.dense(84, true)
	g.dense(10, false)
	g.softmax()
	return g.b.MustBuild()
}

// TinyMLP is a small dense classifier useful for low-utilization filler
// tasks in synthetic task sets. ≈ 42 K parameters.
func TinyMLP(seed int64) *nn.Model {
	g := newGen("tinymlp", nn.Shape{H: 1, W: 1, C: 256}, seed)
	g.dense(128, true)
	g.dense(64, true)
	g.dense(10, false)
	g.softmax()
	return g.b.MustBuild()
}

// Info describes one zoo entry.
type Info struct {
	Name        string
	Description string
	Build       func(seed int64) *nn.Model
}

var catalog = map[string]Info{
	"mobilenetv1-0.25":  {"mobilenetv1-0.25", "person detection (visual wake words), 96x96x1", MobileNetV1Q25},
	"resnet8":           {"resnet8", "image classification, 32x32x3 CIFAR-style", ResNet8},
	"ds-cnn":            {"ds-cnn", "keyword spotting over 49x10 MFCC", DSCNN},
	"autoencoder":       {"autoencoder", "acoustic anomaly detection, 640-d window", Autoencoder},
	"lenet5":            {"lenet5", "MNIST digit classification, 28x28x1", LeNet5},
	"tinymlp":           {"tinymlp", "small dense classifier, 256-d input", TinyMLP},
	"mobilenetv2-micro": {"mobilenetv2-micro", "inverted-residual CNN, 96x96x3, per-channel quant", MobileNetV2Micro},
	"squeezenet-micro":  {"squeezenet-micro", "fire-module CNN with concat, 32x32x3", SqueezeNetMicro},
}

// Catalog lists zoo entries sorted by name.
func Catalog() []Info {
	out := make([]Info, 0, len(catalog))
	for _, v := range catalog {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names lists the zoo model names sorted alphabetically.
func Names() []string {
	infos := Catalog()
	names := make([]string, len(infos))
	for i, in := range infos {
		names[i] = in.Name
	}
	return names
}

// Lookup returns the catalog entry of a zoo model without building it.
func Lookup(name string) (Info, error) {
	info, ok := catalog[name]
	if !ok {
		return Info{}, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	return info, nil
}

// Build constructs a fresh zoo model by name with the seed's weights.
func Build(name string, seed int64) (*nn.Model, error) {
	info, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return info.Build(seed), nil
}

// refEntry builds one catalog model's shared instance at most once.
type refEntry struct {
	once sync.Once
	info Info
	m    *nn.Model
}

// references holds one entry per catalog model. The map itself is never
// written after init, so concurrent lookups need no lock.
var references = func() map[string]*refEntry {
	refs := make(map[string]*refEntry, len(catalog))
	for name, info := range catalog {
		refs[name] = &refEntry{info: info}
	}
	return refs
}()

// Reference returns the shared seed-1 instance of a zoo model, built at
// most once per name per process; concurrent first lookups converge on
// one pointer. Every scheduling quantity — shapes, ParamBytes, MACs,
// activation liveness, and so every segmentation plan, cost and WCRT —
// is a function of the topology alone, which the seed does not touch.
// The instance is shared and must be treated as read-only. Callers that
// execute kernels and need a chosen seed's weights use Build(name, seed).
func Reference(name string) (*nn.Model, error) {
	e, ok := references[name]
	if !ok {
		_, err := Lookup(name)
		return nil, err
	}
	return e.model(), nil
}

func (e *refEntry) model() *nn.Model {
	e.once.Do(func() { e.m = e.info.Build(1) })
	return e.m
}
