// Package perfmodel contains the analytic performance models behind the
// paper's Fig. 10 (aggregation goodput microbenchmark) and Fig. 11
// (end-to-end training speedup). The cluster hardware — 100 Gbps RDMA
// NICs, P100 GPUs with CUDA copy engines — is unavailable offline, so each
// system is modeled from its protocol structure: what work each packet
// costs on a host core, where launches serialize, and which copy engines
// cap throughput. The *shape* conclusions (who needs how many cores, where
// the GPU curves cross) follow from the structure, not the constants.
//
// The two CPU-bound protocols differ in host work and in packets. A
// SwitchML worker scans each block for its largest exponent, quantizes
// float → int32 and dequantizes the integer sums; it also sends two uplink
// packets per chunk, the exponent round and then the quantized data. An
// FPISA-A worker serializes its floats and reads the sums back, one ADD
// per chunk. HostWork is that per-element work, written once over the
// kernels each system runs; MeasuredRates turns its measured cost into
// per-core goodputs, and DefaultRates holds the paper's.
//
// Integration status: host cost is measured (cmd/fpisa-bench -exp fig10
// times HostWork on the host it runs on), but the goodput model is still
// not cross-checked against the measured throughput of the runtime switch
// (BenchmarkShardedSwitch, bench/'s train-* workloads). The GPU and Fig. 11
// constants are the paper's, calibrated to its figures, not measured.
// Consumed by cmd/fpisa-bench (Fig. 10/11 regeneration) and bench_test.go.
package perfmodel

import (
	"fmt"
	"math"

	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/payload"
	"fpisa/internal/stats"
)

// Rates holds the host/device constants.
type Rates struct {
	// MaxGoodputGbps is the line-rate ceiling after framing (92 on the
	// paper's 100 Gbps testbed).
	MaxGoodputGbps float64
	// SwitchMLCPUPerCore is SwitchML/CPU per-core goodput: each element is
	// scanned for the block's largest exponent, quantized and dequantized
	// (the paper's: 4 cores reach 92).
	SwitchMLCPUPerCore float64
	// FPISACPUPerCore is FPISA-A/CPU per-core goodput: each element is
	// serialized and read back, no conversion (the paper's: 3 cores reach
	// 92).
	FPISACPUPerCore float64
	// FPISAOptPerCore is FPISA-A/CPU(Opt) per-core goodput. The paper's
	// Opt path hands the NIC native-order floats with no per-element host
	// work, so one core reaches line rate; HostWork stands in for it with
	// payload.CopyWire, a per-element copy.
	FPISAOptPerCore float64
	// GPU device model, the paper's: calibrated to Fig. 10 (right), not
	// measured (no GPU here).
	KernelLaunchUs   float64 // serialized CUDA launch cost per chunk
	GPUKernelGbps    float64 // kernel throughput once launched
	GPUCopyCapGbps   float64 // bidirectional copy-engine ceiling
	CopyBatchBytes   int     // FPISA-A/GPU copy batching
	SmallMsgFloorKBs int     // below this, FPISA-A/GPU ramps linearly
}

// PaperFPISACPUPerCore is the one constant mapping measured host cost to
// the paper's testbed: FPISA-A/CPU's per-core goodput there, in Gbps.
// MeasuredRates anchors FPISA-A/CPU at it.
const PaperFPISACPUPerCore = 33

// DefaultRates returns the paper's constants: its three CPU per-core
// goodputs reproduce Fig. 10's 4 / 3 / 1 cores to line rate.
func DefaultRates() Rates {
	return Rates{
		MaxGoodputGbps:     92,
		SwitchMLCPUPerCore: 24.5,
		FPISACPUPerCore:    PaperFPISACPUPerCore,
		FPISAOptPerCore:    95,
		KernelLaunchUs:     18,
		GPUKernelGbps:      200,
		GPUCopyCapGbps:     80,
		CopyBatchBytes:     1 << 20,
		SmallMsgFloorKBs:   4,
	}
}

// MeasuredRates returns DefaultRates with the three CPU per-core goodputs
// derived from nsPerElem, each CPU system's measured host ns per element of
// HostWork. FPISA-A/CPU keeps PaperFPISACPUPerCore; a system whose work
// costs k times FPISA-A/CPU's gets 1/k of it per core.
func MeasuredRates(nsPerElem map[System]float64) (Rates, error) {
	for _, sys := range CPUSystems() {
		if !(nsPerElem[sys] > 0) {
			return Rates{}, fmt.Errorf("perfmodel: no positive host cost for %s", sys.Name())
		}
	}
	perCore := func(sys System) float64 {
		return PaperFPISACPUPerCore * nsPerElem[FPISACPU] / nsPerElem[sys]
	}
	r := DefaultRates()
	r.SwitchMLCPUPerCore = perCore(SwitchMLCPU)
	r.FPISAOptPerCore = perCore(FPISACPUOpt)
	return r, nil
}

// HostBlockElems is the block HostWork is timed over: 4096 float32s, one
// 16 KB Fig. 10 (left) message.
const HostBlockElems = 4096

// hostWorkers is the worker count SwitchML's scaling exponent leaves
// int32 headroom for.
const hostWorkers = 8

// HostWork runs one CPU system's per-element host work over a block once:
// TX from src into wire, then RX from wire into dst.
//   - SwitchMLCPU: payload.MaxBiasedExp, QuantizeToWire at the scale that
//     exponent allows hostWorkers workers, then DequantizeFromWire.
//   - FPISACPU: the f32 profile's AppendValues and GetValues, the word
//     loops aggservice's Worker.Reduce runs on every chunk.
//   - FPISACPUOpt: payload.CopyWire. Its RX reads the native-order wire in
//     place, so dst is left as it is.
//
// wire must hold 4 bytes and dst one value per element of src.
func HostWork(sys System, wire []byte, dst, src []float32) error {
	if len(wire) < 4*len(src) || len(dst) < len(src) {
		return fmt.Errorf("perfmodel: %d-byte wire and %d-value dst short of %d values", len(wire), len(dst), len(src))
	}
	switch sys {
	case SwitchMLCPU:
		scale := payload.ScaleExpFor(payload.MaxBiasedExp(src), hostWorkers)
		if err := payload.QuantizeToWire(wire, src, scale); err != nil {
			return err
		}
		return payload.DequantizeFromWire(dst[:len(src)], wire, scale)
	case FPISACPU:
		core.DefaultProfile.AppendValues(wire[:0], src)
		core.DefaultProfile.GetValues(dst[:len(src)], wire)
		return nil
	case FPISACPUOpt:
		return payload.CopyWire(wire, src)
	}
	return fmt.Errorf("perfmodel: %s is not host-CPU bound", sys.Name())
}

// System identifies one Fig. 10 curve.
type System int

const (
	SwitchMLCPU System = iota
	SwitchMLGPU
	FPISACPU
	FPISACPUOpt
	FPISAGPU
)

var systemNames = map[System]string{
	SwitchMLCPU: "SwitchML/CPU",
	SwitchMLGPU: "SwitchML/GPU",
	FPISACPU:    "FPISA-A/CPU",
	FPISACPUOpt: "FPISA-A/CPU(Opt)",
	FPISAGPU:    "FPISA-A/GPU",
}

// Name returns the display name.
func (s System) Name() string { return systemNames[s] }

// CPUSystems lists the three Fig. 10 systems whose goodput is host-CPU
// bound, in the order Fig. 10's cores-to-line-rate line names them.
func CPUSystems() []System {
	return []System{SwitchMLCPU, FPISACPU, FPISACPUOpt}
}

// AllSystems lists the five Fig. 10 systems.
func AllSystems() []System {
	return []System{FPISACPU, FPISACPUOpt, FPISAGPU, SwitchMLCPU, SwitchMLGPU}
}

// PerCore returns a CPU system's per-core goodput in Gbps before the
// line-rate cap, and 0 for a GPU system.
func (r Rates) PerCore(sys System) float64 {
	switch sys {
	case SwitchMLCPU:
		return r.SwitchMLCPUPerCore
	case FPISACPU:
		return r.FPISACPUPerCore
	case FPISACPUOpt:
		return r.FPISAOptPerCore
	}
	return 0
}

// Goodput returns one system's goodput in Gbps for a core count and RDMA
// message size.
func (r Rates) Goodput(sys System, cores, msgBytes int) float64 {
	if cores < 1 {
		return 0
	}
	switch sys {
	case SwitchMLCPU, FPISACPU, FPISACPUOpt:
		return math.Min(r.MaxGoodputGbps, float64(cores)*r.PerCore(sys))
	case SwitchMLGPU:
		// Each chunk (= message) requires a serialized kernel launch plus
		// a per-chunk scale synchronization; extra cores do not help
		// because CUDA serializes launch calls (§5.2.3). The 0.93 is the
		// paper's: its SwitchML/GPU plateau sits just below FPISA-A/GPU's
		// copy cap.
		bits := float64(msgBytes) * 8
		secs := r.KernelLaunchUs*1e-6 + bits/(r.GPUKernelGbps*1e9)
		return math.Min(r.GPUCopyCapGbps*0.93, bits/secs/1e9)
	case FPISAGPU:
		// Copies batch to CopyBatchBytes regardless of message size, so
		// goodput hits the copy-engine cap from small messages on.
		if msgBytes < r.SmallMsgFloorKBs<<10 {
			return r.GPUCopyCapGbps * float64(msgBytes) / float64(r.SmallMsgFloorKBs<<10)
		}
		return r.GPUCopyCapGbps
	}
	return 0
}

// CoresToLineRate returns the smallest core count reaching the line-rate
// ceiling for a CPU system (the paper's 25–75% fewer-cores claim).
func (r Rates) CoresToLineRate(sys System, msgBytes int) int {
	for c := 1; c <= 64; c++ {
		if r.Goodput(sys, c, msgBytes)+1e-9 >= r.MaxGoodputGbps {
			return c
		}
	}
	return -1
}

// Fig10Left produces the goodput-vs-cores curves (16 KB messages).
func Fig10Left(r Rates, maxCores int) []stats.Series {
	out := make([]stats.Series, 0, 5)
	for _, sys := range AllSystems() {
		s := stats.Series{Name: sys.Name()}
		for c := 1; c <= maxCores; c++ {
			s.Add(float64(c), r.Goodput(sys, c, 16<<10))
		}
		out = append(out, s)
	}
	return out
}

// Fig10Right produces the goodput-vs-message-size curves (4 cores).
func Fig10Right(r Rates, sizes []int) []stats.Series {
	out := make([]stats.Series, 0, 5)
	for _, sys := range AllSystems() {
		s := stats.Series{Name: sys.Name()}
		for _, sz := range sizes {
			s.Add(float64(sz)/1024, r.Goodput(sys, 4, sz))
		}
		out = append(out, s)
	}
	return out
}

// Fig10Sizes returns the paper's message-size sweep (4 KB .. 2 MB).
func Fig10Sizes() []int {
	var out []int
	for sz := 4 << 10; sz <= 2<<20; sz *= 2 {
		out = append(out, sz)
	}
	return out
}

// --- Fig. 11: end-to-end training speedup -------------------------------

// TrainEnv describes the training-cluster resource split.
type TrainEnv struct {
	// AppCores is the per-host core budget shared by communication and
	// the data-input pipeline.
	AppCores int
	// CommCoreBudget is the Fig. 11 scenario: 2 or 8 cores assigned to
	// communication.
	CommCoreBudget int
	// Fig. 11 uses the DPDK transports (RDMA was not framework-
	// integrated); per-core goodputs are lower than Fig. 10's RDMA path.
	// These four are the paper's, calibrated to Fig. 11, not measured.
	SwitchMLDPDKPerCore float64
	SwitchMLDPDKCap     float64
	FPISADPDKPerCore    float64
	FPISADPDKCap        float64
}

// DefaultTrainEnv returns the paper-calibrated Fig. 11 environment.
func DefaultTrainEnv(commCores int) TrainEnv {
	return TrainEnv{
		AppCores:            12,
		CommCoreBudget:      commCores,
		SwitchMLDPDKPerCore: 12.5,
		SwitchMLDPDKCap:     74, // quantization pipeline ceiling
		FPISADPDKPerCore:    46,
		FPISADPDKCap:        92,
	}
}

// dataCoreSec is each model's per-iteration input-pipeline demand in
// core-seconds: the paper's, calibrated to Fig. 11 with the §5.2.3
// observation that freeing communication cores mainly helps data-hungry
// models, not measured.
var dataCoreSec = map[string]float64{
	"DeepLight": 1.06, "LSTM": 1.56, "BERT": 1.32, "VGG19": 0.50,
	"GoogleNet": 0.30, "ResNet-50": 0.50, "MobileNetV2": 0.20,
}

// Speedup is one Fig. 11 bar.
type Speedup struct {
	Model      string
	SpeedupPct float64
	// CommBound marks models the paper characterizes as communication-
	// bottlenecked.
	CommBound bool
}

// iterSeconds models one training iteration: the slowest of GPU compute,
// gradient all-reduce, and the data-input pipeline on the cores left over
// from communication.
func iterSeconds(p gradients.Profile, commSec float64, commCores, appCores int) float64 {
	comp := p.CompMsPerIter / 1e3
	avail := appCores - commCores
	if avail < 1 {
		avail = 1
	}
	data := dataCoreSec[p.Name] / float64(avail)
	return math.Max(comp, math.Max(commSec, data))
}

// ModelSpeedup computes one model's FPISA-A-over-SwitchML speedup for a
// communication core budget.
func ModelSpeedup(p gradients.Profile, env TrainEnv) Speedup {
	bits := p.ParamMB * 8e6

	smlCores := env.CommCoreBudget
	smlGoodput := math.Min(env.SwitchMLDPDKCap, float64(smlCores)*env.SwitchMLDPDKPerCore)

	// FPISA needs 25–75% fewer cores for the same work (§5.2.3); the
	// freed cores go to the input pipeline.
	fpCores := env.CommCoreBudget / 4
	if fpCores < 1 {
		fpCores = 1
	}
	fpGoodput := math.Min(env.FPISADPDKCap, float64(fpCores)*env.FPISADPDKPerCore)

	tSml := iterSeconds(p, bits/(smlGoodput*1e9), smlCores, env.AppCores)
	tFp := iterSeconds(p, bits/(fpGoodput*1e9), fpCores, env.AppCores)

	commBound := map[string]bool{"DeepLight": true, "LSTM": true, "BERT": true, "VGG19": true}
	return Speedup{
		Model:      p.Name,
		SpeedupPct: (tSml/tFp - 1) * 100,
		CommBound:  commBound[p.Name],
	}
}

// Fig11 computes all seven models' speedups for a core budget.
func Fig11(commCores int) []Speedup {
	env := DefaultTrainEnv(commCores)
	out := make([]Speedup, 0, 7)
	for _, p := range gradients.All() {
		out = append(out, ModelSpeedup(p, env))
	}
	return out
}

// FormatFig11 renders the two-scenario table.
func FormatFig11() string {
	two, eight := Fig11(2), Fig11(8)
	s := fmt.Sprintf("%-14s %12s %12s\n", "Model", "2-core", "8-core")
	for i := range two {
		s += fmt.Sprintf("%-14s %11.1f%% %11.1f%%\n", two[i].Model, two[i].SpeedupPct, eight[i].SpeedupPct)
	}
	return s
}
