// Package gradients models distributed-training gradient vectors with the
// statistical structure the paper measures in §5.1: element magnitudes
// mostly near zero within [-1, 1] (INCEPTIONN's observation), and a narrow
// element-wise max/min ratio across workers — ~83% of elements under 2^7 —
// which is precisely what makes FPISA-A's headroom sufficient.
//
// The paper records real gradient traces; offline, each model is a
// calibrated synthetic profile. internal/train additionally produces real
// gradients from actual SGD runs for cross-validation.
package gradients

import (
	"fmt"
	"math"
	"math/rand"
)

// Profile parameterizes one model's gradient statistics.
type Profile struct {
	// Name identifies the model (paper §5.2 benchmark set).
	Name string
	// Dataset is the paper's dataset label (documentation only).
	Dataset string
	// MeanLn and SigmaElem shape the per-element base magnitude
	// ~ LogNormal(MeanLn, SigmaElem).
	MeanLn    float64
	SigmaElem float64
	// Worker-to-worker spread is a mixture: most workers scatter tightly
	// around the element base (LogNormal(0, TightSigma)); with probability
	// OutlierProb a worker is an outlier scattered by
	// LogNormal(0, OutlierSigma). This mixture reproduces Fig. 7's shape —
	// a bulk of near-1 ratios with a heavy but thin tail past 2^7.
	TightSigma   float64
	OutlierProb  float64
	OutlierSigma float64
	// SignFlip is the probability a worker disagrees with the element's
	// consensus gradient sign.
	SignFlip float64
	// ParamMB is the gradient vector size in MB (FP32), used by the
	// Fig. 10/11 performance models.
	ParamMB float64
	// CompMsPerIter is the per-iteration GPU compute time (ms) at the
	// standard batch size, calibrated for the Fig. 11 comm/comp balance.
	CompMsPerIter float64
}

// The evaluated models (paper §5.2). SigmaWorker values are calibrated so
// ~83% of element-wise max/min ratios fall below 2^7 across 8 workers
// (Fig. 7); ParamMB/CompMsPerIter follow the models' published sizes and
// the paper's compute/communication characterization (DeepLight, LSTM,
// BERT and VGG19 are communication-bottlenecked; GoogleNet, ResNet-50 and
// MobileNetV2 are compute-bottlenecked).
var (
	VGG19 = Profile{Name: "VGG19", Dataset: "CIFAR-10", MeanLn: math.Log(0.004),
		SigmaElem: 1.8, TightSigma: 0.35, OutlierProb: 0.032, OutlierSigma: 8.5,
		SignFlip: 0.10, ParamMB: 548, CompMsPerIter: 145}
	DeepLight = Profile{Name: "DeepLight", Dataset: "Criteo 1TB", MeanLn: math.Log(0.002),
		SigmaElem: 2.2, TightSigma: 0.30, OutlierProb: 0.040, OutlierSigma: 8.0,
		SignFlip: 0.15, ParamMB: 2319, CompMsPerIter: 100}
	LSTM = Profile{Name: "LSTM", Dataset: "GBW", MeanLn: math.Log(0.003),
		SigmaElem: 2.0, TightSigma: 0.40, OutlierProb: 0.030, OutlierSigma: 9.0,
		SignFlip: 0.12, ParamMB: 1627, CompMsPerIter: 333}
	BERT = Profile{Name: "BERT", Dataset: "SQuAD", MeanLn: math.Log(0.002),
		SigmaElem: 2.0, TightSigma: 0.35, OutlierProb: 0.032, OutlierSigma: 8.5,
		SignFlip: 0.12, ParamMB: 1274, CompMsPerIter: 301}
	GoogleNet = Profile{Name: "GoogleNet", Dataset: "CIFAR-10", MeanLn: math.Log(0.005),
		SigmaElem: 1.7, TightSigma: 0.35, OutlierProb: 0.032, OutlierSigma: 8.5,
		SignFlip: 0.10, ParamMB: 27, CompMsPerIter: 110}
	ResNet50 = Profile{Name: "ResNet-50", Dataset: "CIFAR-10", MeanLn: math.Log(0.004),
		SigmaElem: 1.8, TightSigma: 0.35, OutlierProb: 0.032, OutlierSigma: 8.5,
		SignFlip: 0.10, ParamMB: 98, CompMsPerIter: 140}
	MobileNetV2 = Profile{Name: "MobileNetV2", Dataset: "CIFAR-10", MeanLn: math.Log(0.006),
		SigmaElem: 1.7, TightSigma: 0.35, OutlierProb: 0.032, OutlierSigma: 8.5,
		SignFlip: 0.10, ParamMB: 13, CompMsPerIter: 80}
)

// All lists the seven evaluated models in the paper's Fig. 11 order.
func All() []Profile {
	return []Profile{DeepLight, LSTM, BERT, VGG19, GoogleNet, ResNet50, MobileNetV2}
}

// Fig7Profiles lists the three models whose ratio distributions Fig. 7
// plots.
func Fig7Profiles() []Profile { return []Profile{VGG19, DeepLight, LSTM} }

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("gradients: unknown model %q", name)
}

// Generator produces worker gradient vectors under a profile.
type Generator struct {
	prof  Profile
	rng   *rand.Rand
	epoch int
}

// NewGenerator creates a deterministic generator.
func NewGenerator(p Profile, seed int64) *Generator {
	return &Generator{prof: p, rng: rand.New(rand.NewSource(seed))}
}

// SetEpoch adjusts the magnitude scale for a training phase: gradients
// shrink slowly as training converges, while the ratio structure stays
// similar (the paper observes similar distributions in early/mid/final
// phases).
func (g *Generator) SetEpoch(epoch int) { g.epoch = epoch }

// WorkerGradients returns `workers` gradient vectors of length n with the
// profile's element-wise structure: a shared per-element base magnitude
// and consensus sign, scattered per worker.
func (g *Generator) WorkerGradients(workers, n int) [][]float32 {
	out := make([][]float32, workers)
	for w := range out {
		out[w] = make([]float32, n)
	}
	decay := math.Pow(0.98, float64(g.epoch))
	for i := 0; i < n; i++ {
		base := math.Exp(g.prof.MeanLn+g.prof.SigmaElem*g.rng.NormFloat64()) * decay
		// Clamp into the (-1, 1) region the paper observes.
		if base > 0.99 {
			base = 0.99
		}
		sign := 1.0
		if g.rng.Intn(2) == 0 {
			sign = -1
		}
		for w := 0; w < workers; w++ {
			sigma := g.prof.TightSigma
			if g.rng.Float64() < g.prof.OutlierProb {
				sigma = g.prof.OutlierSigma
			}
			mag := base * math.Exp(sigma*g.rng.NormFloat64())
			if mag > 0.99 {
				mag = 0.99 // gradients stay within [-1, 1] (§5.1)
			}
			s := sign
			if g.rng.Float64() < g.prof.SignFlip {
				s = -s
			}
			out[w][i] = float32(s * mag)
		}
	}
	return out
}

// MaxMinRatios returns the element-wise max/min magnitude ratio across
// workers — the Fig. 7 statistic. Elements where any worker's magnitude is
// zero are skipped.
func MaxMinRatios(workers [][]float32) []float64 {
	if len(workers) == 0 {
		return nil
	}
	n := len(workers[0])
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		min, max := math.Inf(1), 0.0
		ok := true
		for _, w := range workers {
			m := math.Abs(float64(w[i]))
			if m == 0 {
				ok = false
				break
			}
			if m < min {
				min = m
			}
			if m > max {
				max = m
			}
		}
		if ok {
			out = append(out, max/min)
		}
	}
	return out
}
