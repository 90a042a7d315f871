package train

import (
	"fmt"
	"math/rand"

	"fpisa/internal/core"
	"fpisa/internal/fpnum"
	"fpisa/internal/gradients"
	"fpisa/internal/stats"
)

// Dataset is a labelled classification dataset.
type Dataset struct {
	X [][]float32
	Y []int
	// Features and Classes describe the shape.
	Features, Classes int
}

// SyntheticDataset generates a deterministic multi-class task: Gaussian
// class centers with a nonlinear warp, split into train and test.
func SyntheticDataset(nTrain, nTest, features, classes int, seed int64) (train, test Dataset) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, features)
		for f := range centers[c] {
			centers[c][f] = rng.NormFloat64() * 2
		}
	}
	gen := func(n int) Dataset {
		d := Dataset{X: make([][]float32, n), Y: make([]int, n), Features: features, Classes: classes}
		for i := 0; i < n; i++ {
			c := rng.Intn(classes)
			x := make([]float32, features)
			for f := 0; f < features; f++ {
				v := centers[c][f] + rng.NormFloat64()
				// Nonlinear warp so linear models cannot saturate the task.
				if f%2 == 0 {
					v += 0.5 * centers[c][(f+1)%features] * rng.NormFloat64()
				}
				x[f] = float32(v)
			}
			d.X[i], d.Y[i] = x, c
		}
		return d
	}
	return gen(nTrain), gen(nTest)
}

// Reducer sums worker gradient vectors element-wise — the all-reduce "+".
type Reducer interface {
	Name() string
	Reduce(workers [][]float32) ([]float32, error)
}

// ExactReducer is sequential FP32 addition — the paper's "default
// addition" baseline.
type ExactReducer struct{}

// Name implements Reducer.
func (ExactReducer) Name() string { return "default" }

// Reduce implements Reducer.
func (ExactReducer) Reduce(workers [][]float32) ([]float32, error) {
	n := len(workers[0])
	out := make([]float32, n)
	for _, w := range workers {
		if len(w) != n {
			return nil, fmt.Errorf("train: ragged gradient vectors")
		}
		for i, v := range w {
			out[i] += v
		}
	}
	return out, nil
}

// FPISAReducer aggregates through the bit-exact FPISA software model.
type FPISAReducer struct {
	Cfg core.Config
}

// Name implements Reducer.
func (r FPISAReducer) Name() string { return r.Cfg.Mode.String() }

// Reduce implements Reducer.
func (r FPISAReducer) Reduce(workers [][]float32) ([]float32, error) {
	out, _, err := gradients.AggregateFPISA(r.Cfg, workers)
	return out, err
}

// FP16Reducer wraps another reducer, rounding worker gradients to FP16
// first — the paper's half-precision training variant.
type FP16Reducer struct {
	Inner Reducer
}

// Name implements Reducer.
func (r FP16Reducer) Name() string { return r.Inner.Name() + "/fp16" }

// Reduce implements Reducer.
func (r FP16Reducer) Reduce(workers [][]float32) ([]float32, error) {
	cast := make([][]float32, len(workers))
	for w, vec := range workers {
		cv := make([]float32, len(vec))
		for i, v := range vec {
			cv[i] = fpnum.F32ToF16(v).Float32()
		}
		cast[w] = cv
	}
	return r.Inner.Reduce(cast)
}

// SGDConfig holds the optimizer hyperparameters (the paper's CNN settings:
// lr 0.1, momentum 0.9, weight decay 5e-4, batch 16).
type SGDConfig struct {
	LR          float32
	Momentum    float32
	WeightDecay float32
	BatchSize   int
	Workers     int
	Epochs      int
	Seed        int64
}

// DefaultSGD mirrors §5.2's accuracy-experiment settings.
func DefaultSGD() SGDConfig {
	return SGDConfig{LR: 0.1, Momentum: 0.9, WeightDecay: 5e-4,
		BatchSize: 16, Workers: 8, Epochs: 40, Seed: 1}
}

// Result is one training run's record.
type Result struct {
	Reducer  string
	Accuracy stats.Series // test accuracy per epoch
	Final    float64
	Loss     stats.Series
}

// Run trains arch on the dataset with data-parallel SGD, reducing worker
// gradients through the given reducer every step. All worker replicas stay
// bit-identical because they apply the same reduced gradient.
func Run(arch Arch, trainSet, testSet Dataset, cfg SGDConfig, red Reducer) (Result, error) {
	model := NewModel(arch, trainSet.Features, trainSet.Classes, cfg.Seed)
	vel := make([]float32, model.ParamCount())
	rng := rand.New(rand.NewSource(cfg.Seed + 100))
	res := Result{Reducer: red.Name()}
	res.Accuracy.Name = red.Name()
	res.Loss.Name = red.Name()

	perWorker := cfg.BatchSize / cfg.Workers
	if perWorker < 1 {
		perWorker = 1
	}
	order := make([]int, len(trainSet.X))
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		steps := 0
		for pos := 0; pos+cfg.Workers*perWorker <= len(order); pos += cfg.Workers * perWorker {
			grads := make([][]float32, cfg.Workers)
			var stepLoss float32
			for w := 0; w < cfg.Workers; w++ {
				idx := order[pos+w*perWorker : pos+(w+1)*perWorker]
				xs := make([][]float32, len(idx))
				ys := make([]int, len(idx))
				for k, id := range idx {
					xs[k], ys[k] = trainSet.X[id], trainSet.Y[id]
				}
				g, l := model.GradientOnBatch(xs, ys)
				grads[w] = g
				stepLoss += l
			}
			sum, err := red.Reduce(grads)
			if err != nil {
				return res, err
			}
			// Mean gradient + momentum + weight decay update.
			params := model.Params()
			inv := 1 / float32(cfg.Workers)
			for i := range params {
				g := sum[i]*inv + cfg.WeightDecay*params[i]
				vel[i] = cfg.Momentum*vel[i] + g
				params[i] -= cfg.LR * vel[i]
			}
			if err := model.SetParams(params); err != nil {
				return res, err
			}
			epochLoss += float64(stepLoss) / float64(cfg.Workers)
			steps++
		}
		acc := model.Accuracy(testSet.X, testSet.Y)
		res.Accuracy.Add(float64(epoch+1), acc)
		res.Loss.Add(float64(epoch+1), epochLoss/float64(steps))
		res.Final = acc
	}
	return res, nil
}
