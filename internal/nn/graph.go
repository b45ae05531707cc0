package nn

import "fmt"

// Node is one vertex of a model graph: a layer plus the indices of the
// nodes producing its inputs. An input index of -1 denotes the model input.
type Node struct {
	Layer  Layer
	Inputs []int
}

// Model is a directed acyclic graph of layers in topological order: node i
// may only consume outputs of nodes j < i (or the model input).
type Model struct {
	Name    string
	Input   Shape
	InQuant QuantParams
	Nodes   []Node
	// Output is the index of the node whose tensor is the model output.
	Output int
}

// Validate checks the structural invariants of the graph: topological input
// references, arity, and shape agreement along every edge.
func (m *Model) Validate() error {
	if !m.Input.Valid() {
		return fmt.Errorf("nn: model %s: invalid input shape %v", m.Name, m.Input)
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("nn: model %s: empty graph", m.Name)
	}
	if m.Output < 0 || m.Output >= len(m.Nodes) {
		return fmt.Errorf("nn: model %s: output index %d out of range", m.Name, m.Output)
	}
	names := make(map[string]bool, len(m.Nodes))
	for i, n := range m.Nodes {
		l := n.Layer
		if l == nil {
			return fmt.Errorf("nn: model %s: node %d has nil layer", m.Name, i)
		}
		if names[l.Name()] {
			return fmt.Errorf("nn: model %s: duplicate layer name %q", m.Name, l.Name())
		}
		names[l.Name()] = true
		if len(n.Inputs) != l.Arity() {
			return fmt.Errorf("nn: model %s: node %d (%s) has %d inputs, arity %d",
				m.Name, i, l.Name(), len(n.Inputs), l.Arity())
		}
		for _, in := range n.Inputs {
			if in < -1 || in >= i {
				return fmt.Errorf("nn: model %s: node %d (%s) references input %d (not topological)",
					m.Name, i, l.Name(), in)
			}
			var s Shape
			if in == -1 {
				s = m.Input
			} else {
				s = m.Nodes[in].Layer.OutShape()
			}
			// Only the primary input shape is checked statically; binary
			// ops verify secondary inputs at Forward time.
			if n.Inputs[0] == in && s != l.InShape() {
				return fmt.Errorf("nn: model %s: node %d (%s) input shape %v, want %v",
					m.Name, i, l.Name(), s, l.InShape())
			}
		}
	}
	return nil
}

// OutShape returns the model's output tensor shape.
func (m *Model) OutShape() Shape { return m.Nodes[m.Output].Layer.OutShape() }

// TotalParamBytes sums parameter bytes over all layers: the total volume
// that must be staged from external memory per inference.
func (m *Model) TotalParamBytes() int64 {
	var n int64
	for _, nd := range m.Nodes {
		n += nd.Layer.ParamBytes()
	}
	return n
}

// TotalMACs sums MAC counts over all layers.
func (m *Model) TotalMACs() int64 {
	var n int64
	for _, nd := range m.Nodes {
		n += nd.Layer.MACs()
	}
	return n
}

// NumLayers returns the layer count.
func (m *Model) NumLayers() int { return len(m.Nodes) }

// PeakActivationBytes computes the exact peak of live activation bytes when
// nodes execute in graph order and tensors die after their last consumer.
// The model input is live from the start; the output stays live to the end.
func (m *Model) PeakActivationBytes() int64 {
	lastUse := make([]int, len(m.Nodes)+1)  // +1 slot for model input at index 0-shifted
	idx := func(i int) int { return i + 1 } // -1 → 0
	lastUse[idx(m.Output)] = len(m.Nodes)
	for i, n := range m.Nodes {
		for _, in := range n.Inputs {
			if i > lastUse[idx(in)] {
				lastUse[idx(in)] = i
			}
		}
	}
	size := func(i int) int64 {
		if i == -1 {
			return int64(m.Input.Elems())
		}
		return int64(m.Nodes[i].Layer.OutShape().Elems())
	}
	var peak int64
	live := size(-1)
	for i := range m.Nodes {
		live += size(i) // output of node i materializes during its execution
		if live > peak {
			peak = live
		}
		for j := -1; j < i; j++ {
			if lastUse[idx(j)] == i {
				live -= size(j)
			}
		}
	}
	return peak
}

// Liveness returns the activation liveness of every node, computed in one
// O(V+E) pass. after[i] is the bytes still live once node i has executed:
// outputs of nodes ≤ i (and the model input) that a later node consumes,
// plus the model output once produced — the state a preempted job keeps
// resident when paused at the boundary after node i. during[i] is the bytes
// resident while node i executes: after[i-1] (the model input for node 0)
// plus node i's output. A never-consumed node other than the output is dead
// as soon as it is produced here, unlike in PeakActivationBytes, which
// keeps it live to the end.
func (m *Model) Liveness() (after, during []int64) {
	n := len(m.Nodes)
	buf := make([]int64, 2*n)
	after, during = buf[:n:n], buf[n:]
	size := func(i int) int64 {
		if i == -1 {
			return int64(m.Input.Elems())
		}
		return int64(m.Nodes[i].Layer.OutShape().Elems())
	}
	// lastUse[i+1] is the last node consuming node i's output (slot 0: the
	// model input), -1 when no node does.
	lastUse := make([]int, n+1)
	for i := range lastUse {
		lastUse[i] = -1
	}
	for i, nd := range m.Nodes {
		for _, in := range nd.Inputs {
			lastUse[in+1] = i
		}
	}
	var live int64
	if lastUse[0] >= 0 {
		live = size(-1)
	}
	prev := size(-1)
	for i, nd := range m.Nodes {
		during[i] = prev + size(i)
		if i == m.Output || lastUse[i+1] > i {
			live += size(i)
		}
		for _, in := range nd.Inputs {
			if lastUse[in+1] == i && in != m.Output {
				live -= size(in)
				lastUse[in+1] = n // released; a repeated input must not release twice
			}
		}
		after[i] = live
		prev = live
	}
	return after, during
}

// Forward runs the whole graph on one input tensor.
func (m *Model) Forward(input *Tensor) *Tensor {
	if input.Shape != m.Input {
		panic(fmt.Sprintf("nn: model %s input %v, want %v", m.Name, input.Shape, m.Input))
	}
	outs := make([]*Tensor, len(m.Nodes))
	get := func(i int) *Tensor {
		if i == -1 {
			return input
		}
		return outs[i]
	}
	for i, n := range m.Nodes {
		ins := make([]*Tensor, len(n.Inputs))
		for k, in := range n.Inputs {
			ins[k] = get(in)
		}
		outs[i] = n.Layer.Forward(ins...)
	}
	return outs[m.Output]
}

// Builder incrementally assembles a Model as a chain with optional skips.
type Builder struct {
	m    *Model
	last int
}

// NewBuilder starts a model with the given input description.
func NewBuilder(name string, input Shape, inQuant QuantParams) *Builder {
	return &Builder{
		m:    &Model{Name: name, Input: input, InQuant: inQuant},
		last: -1,
	}
}

// Last returns the index of the most recently added node (-1 if none; that
// value also denotes the model input when used as an input reference).
func (b *Builder) Last() int { return b.last }

// LastShape returns the output shape of the most recent node, or the model
// input shape if no node has been added.
func (b *Builder) LastShape() Shape {
	if b.last == -1 {
		return b.m.Input
	}
	return b.m.Nodes[b.last].Layer.OutShape()
}

// LastQuant returns the output quantization of the most recent node, or the
// model input quantization.
func (b *Builder) LastQuant() QuantParams {
	if b.last == -1 {
		return b.m.InQuant
	}
	return b.m.Nodes[b.last].Layer.OutQuant()
}

// NodeShape returns the output shape of node i; i == -1 denotes the model
// input.
func (b *Builder) NodeShape(i int) Shape {
	if i == -1 {
		return b.m.Input
	}
	return b.m.Nodes[i].Layer.OutShape()
}

// NodeQuant returns the output quantization of node i; i == -1 denotes the
// model input.
func (b *Builder) NodeQuant(i int) QuantParams {
	if i == -1 {
		return b.m.InQuant
	}
	return b.m.Nodes[i].Layer.OutQuant()
}

// Add appends a layer consuming the given inputs; with no inputs it chains
// from the previous node. It returns the new node's index.
func (b *Builder) Add(l Layer, inputs ...int) int {
	if len(inputs) == 0 {
		inputs = []int{b.last}
	}
	b.m.Nodes = append(b.m.Nodes, Node{Layer: l, Inputs: inputs})
	b.last = len(b.m.Nodes) - 1
	return b.last
}

// Build finalizes the model, validating it. The output defaults to the last
// node.
func (b *Builder) Build() (*Model, error) {
	b.m.Output = b.last
	if err := b.m.Validate(); err != nil {
		return nil, err
	}
	return b.m, nil
}

// MustBuild is Build that panics on error, for static model definitions.
func (b *Builder) MustBuild() *Model {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}
