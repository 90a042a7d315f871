// Package train is a from-scratch neural-network training library used to
// reproduce the paper's convergence study (Fig. 9): data-parallel SGD where
// the gradient all-reduce runs through a pluggable reducer — exact FP32
// addition, FPISA / FPISA-A addition (the bit-exact software model, the
// same methodology as the paper's C library in PyTorch), each optionally
// under FP16 gradient precision.
//
// The paper trains CNNs on CIFAR-10; offline we train four distinct
// architectures on a synthetic classification task. The claim under test —
// FPISA-A aggregation does not change convergence — is a property of the
// aggregation operator exercised identically here.
package train

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is one dense layer with an activation.
type Layer struct {
	In, Out    int
	Activation Activation
	w          []float32 // Out×In, row-major
	b          []float32
	// scratch for backward
	lastIn  []float32
	lastPre []float32
	gw      []float32
	gb      []float32
}

// Activation selects the layer nonlinearity.
type Activation int

const (
	// ActReLU is max(0, x).
	ActReLU Activation = iota
	// ActIdentity is a linear layer (used before the softmax output).
	ActIdentity
	// ActTanh is the hyperbolic tangent.
	ActTanh
)

// Model is a feed-forward classifier: dense layers ending in softmax
// cross-entropy.
type Model struct {
	Name   string
	layers []*Layer
}

// Arch describes an architecture: hidden layer widths and activation.
type Arch struct {
	Name   string
	Hidden []int
	Act    Activation
}

// Fig9Architectures returns four distinct architectures standing in for
// the paper's GoogleNet / ResNet-50 / VGG19 / MobileNetV2 convergence
// testbeds: a linear model, a small MLP, a deep MLP and a wide MLP.
func Fig9Architectures() []Arch {
	return []Arch{
		{Name: "linear", Hidden: nil, Act: ActIdentity},
		{Name: "mlp-small", Hidden: []int{24}, Act: ActReLU},
		{Name: "mlp-deep", Hidden: []int{24, 24, 24}, Act: ActReLU},
		{Name: "mlp-wide", Hidden: []int{64}, Act: ActTanh},
	}
}

// NewModel builds a model with He-style initialization from a seeded RNG,
// so all data-parallel replicas start identical.
func NewModel(arch Arch, features, classes int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	dims := append([]int{features}, arch.Hidden...)
	dims = append(dims, classes)
	m := &Model{Name: arch.Name}
	for i := 0; i+1 < len(dims); i++ {
		act := arch.Act
		if i+2 == len(dims) {
			act = ActIdentity // logits layer
		}
		l := &Layer{In: dims[i], Out: dims[i+1], Activation: act}
		l.w = make([]float32, l.In*l.Out)
		l.b = make([]float32, l.Out)
		scale := float32(math.Sqrt(2.0 / float64(l.In)))
		for j := range l.w {
			l.w[j] = float32(rng.NormFloat64()) * scale
		}
		l.gw = make([]float32, len(l.w))
		l.gb = make([]float32, len(l.b))
		m.layers = append(m.layers, l)
	}
	return m
}

// ParamCount returns the number of trainable parameters.
func (m *Model) ParamCount() int {
	n := 0
	for _, l := range m.layers {
		n += len(l.w) + len(l.b)
	}
	return n
}

// Params copies all parameters into a flat vector.
func (m *Model) Params() []float32 {
	out := make([]float32, 0, m.ParamCount())
	for _, l := range m.layers {
		out = append(out, l.w...)
		out = append(out, l.b...)
	}
	return out
}

// SetParams installs a flat parameter vector.
func (m *Model) SetParams(p []float32) error {
	if len(p) != m.ParamCount() {
		return fmt.Errorf("train: param vector %d != %d", len(p), m.ParamCount())
	}
	i := 0
	for _, l := range m.layers {
		i += copy(l.w, p[i:i+len(l.w)])
		i += copy(l.b, p[i:i+len(l.b)])
	}
	return nil
}

// forward computes logits for one example, caching activations.
func (m *Model) forward(x []float32) []float32 {
	cur := x
	for _, l := range m.layers {
		l.lastIn = cur
		pre := make([]float32, l.Out)
		for o := 0; o < l.Out; o++ {
			s := l.b[o]
			row := l.w[o*l.In : (o+1)*l.In]
			for i, xi := range cur {
				s += row[i] * xi
			}
			pre[o] = s
		}
		l.lastPre = pre
		cur = applyAct(l.Activation, pre)
	}
	return cur
}

func applyAct(a Activation, pre []float32) []float32 {
	out := make([]float32, len(pre))
	for i, v := range pre {
		switch a {
		case ActReLU:
			if v > 0 {
				out[i] = v
			}
		case ActTanh:
			out[i] = float32(math.Tanh(float64(v)))
		default:
			out[i] = v
		}
	}
	return out
}

func actGrad(a Activation, pre, grad []float32) {
	for i := range grad {
		switch a {
		case ActReLU:
			if pre[i] <= 0 {
				grad[i] = 0
			}
		case ActTanh:
			th := math.Tanh(float64(pre[i]))
			grad[i] *= float32(1 - th*th)
		}
	}
}

// zeroGrads clears gradient accumulators.
func (m *Model) zeroGrads() {
	for _, l := range m.layers {
		for i := range l.gw {
			l.gw[i] = 0
		}
		for i := range l.gb {
			l.gb[i] = 0
		}
	}
}

// backwardExample accumulates gradients for one example given its label.
// Returns the example's cross-entropy loss.
func (m *Model) backwardExample(x []float32, label int) float32 {
	logits := m.forward(x)
	probs, loss := softmaxXent(logits, label)

	// dL/dlogit = prob - onehot
	grad := probs
	grad[label] -= 1

	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		actGrad(l.Activation, l.lastPre, grad)
		next := make([]float32, l.In)
		for o := 0; o < l.Out; o++ {
			g := grad[o]
			l.gb[o] += g
			row := l.w[o*l.In : (o+1)*l.In]
			grow := l.gw[o*l.In : (o+1)*l.In]
			for i, xi := range l.lastIn {
				grow[i] += g * xi
				next[i] += g * row[i]
			}
		}
		grad = next
	}
	return loss
}

func softmaxXent(logits []float32, label int) ([]float32, float32) {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	probs := make([]float32, len(logits))
	for i, v := range logits {
		e := math.Exp(float64(v - maxv))
		probs[i] = float32(e)
		sum += e
	}
	for i := range probs {
		probs[i] = float32(float64(probs[i]) / sum)
	}
	p := float64(probs[label])
	if p < 1e-12 {
		p = 1e-12
	}
	return probs, float32(-math.Log(p))
}

// GradientOnBatch computes the mean gradient over a batch as a flat vector
// (the vector a data-parallel worker contributes to the all-reduce).
func (m *Model) GradientOnBatch(xs [][]float32, ys []int) ([]float32, float32) {
	m.zeroGrads()
	var loss float32
	for i, x := range xs {
		loss += m.backwardExample(x, ys[i])
	}
	inv := 1 / float32(len(xs))
	out := make([]float32, 0, m.ParamCount())
	for _, l := range m.layers {
		for _, g := range l.gw {
			out = append(out, g*inv)
		}
		for _, g := range l.gb {
			out = append(out, g*inv)
		}
	}
	return out, loss * inv
}

// Predict returns the argmax class.
func (m *Model) Predict(x []float32) int {
	logits := m.forward(x)
	best, bi := logits[0], 0
	for i, v := range logits[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Accuracy evaluates classification accuracy.
func (m *Model) Accuracy(xs [][]float32, ys []int) float64 {
	correct := 0
	for i, x := range xs {
		if m.Predict(x) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}
