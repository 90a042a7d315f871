// Package payload implements the host-side data-plane kernels whose cost
// motivates FPISA's endianness and quantization arguments:
//
//   - byte-order conversion of full FP16/FP32/FP64 payloads (Fig. 6) —
//     network devices parse big-endian, hosts are little-endian, and
//     converting entire payloads in software consumes multiple cores at
//     100 Gbps;
//   - SwitchML's quantization pipeline (§5): per-chunk scaling-factor
//     computation, float→fixed-point conversion and back.
//
// Integration status: these kernels model the host-side cost argument; the
// live aggservice wire path deliberately avoids them (values travel in the
// job's negotiated numeric profile, no byte-swapping or fixed-point round
// trip). Consumed by internal/perfmodel (HostWork, the per-element host
// work Fig. 10's measured rates time), cmd/fpisa-bench (Fig. 6
// regeneration), and bench_test.go.
package payload

import (
	"encoding/binary"
	"fmt"
	"math"
)

// SwapBytes16 reverses byte order of every 16-bit element in place.
func SwapBytes16(buf []byte) {
	n := len(buf) &^ 1
	for i := 0; i < n; i += 2 {
		buf[i], buf[i+1] = buf[i+1], buf[i]
	}
}

// SwapBytes32 reverses byte order of every 32-bit element in place.
func SwapBytes32(buf []byte) {
	n := len(buf) &^ 3
	for i := 0; i < n; i += 4 {
		v := binary.LittleEndian.Uint32(buf[i:])
		binary.BigEndian.PutUint32(buf[i:], v)
	}
}

// SwapBytes64 reverses byte order of every 64-bit element in place.
func SwapBytes64(buf []byte) {
	n := len(buf) &^ 7
	for i := 0; i < n; i += 8 {
		v := binary.LittleEndian.Uint64(buf[i:])
		binary.BigEndian.PutUint64(buf[i:], v)
	}
}

// DesiredRatePerSec returns the element conversion rate needed to sustain
// the given line rate for elements of the given byte width — the dashed
// bars of Fig. 6 (100 Gbps: 6.25 G/s for FP16, 3.125 G/s for FP32,
// 1.5625 G/s for FP64).
func DesiredRatePerSec(lineRateGbps float64, elemBytes int) float64 {
	return lineRateGbps * 1e9 / 8 / float64(elemBytes)
}

// CoresForLineRate returns ⌈desired/measured⌉, the paper's core-count
// formula ("to reach 100 Gbps for FP16, one will need at least 11 cores").
func CoresForLineRate(lineRateGbps float64, elemBytes int, perCoreRate float64) int {
	if perCoreRate <= 0 {
		return 0
	}
	return int(math.Ceil(DesiredRatePerSec(lineRateGbps, elemBytes) / perCoreRate))
}

// MaxBiasedExp returns the largest biased FP32 exponent in the block — the
// quantity SwitchML aggregates in its extra communication round to agree on
// a per-chunk scaling factor.
func MaxBiasedExp(block []float32) int {
	max := 0
	for _, v := range block {
		e := int(math.Float32bits(v) >> 23 & 0xFF)
		if e > max {
			max = e
		}
	}
	return max
}

// ScaleExpFor returns the power-of-two scaling exponent s such that
// `workers` values of at most the given biased exponent, scaled by 2^s and
// summed as int32, cannot overflow: |v| < 2^(maxExp-126), so s = 30 -
// ⌈log2 workers⌉ - (maxExp - 126) keeps the total below 2^31.
func ScaleExpFor(maxBiasedExp, workers int) int {
	if workers < 1 {
		workers = 1
	}
	lg := 0
	for 1<<lg < workers {
		lg++
	}
	return 30 - lg - (maxBiasedExp - 126)
}

// QuantizeToWire performs SwitchML's full host TX pipeline for one chunk:
// quantize (round(src[i] · 2^s), saturating at the int32 range) and emit
// big-endian int32s into wire — the CPU work SwitchML spends its cores on.
// FPISA skips all of this: its TX path only serializes (§5.2.3).
func QuantizeToWire(wire []byte, src []float32, scaleExp int) error {
	if len(wire) < 4*len(src) {
		return fmt.Errorf("payload: wire buffer %d short of %d", len(wire), 4*len(src))
	}
	scale := math.Ldexp(1, scaleExp)
	for i, v := range src {
		f := math.RoundToEven(float64(v) * scale)
		var q int32
		switch {
		case f >= math.MaxInt32:
			q = math.MaxInt32
		case f <= math.MinInt32:
			q = math.MinInt32
		default:
			q = int32(f)
		}
		binary.BigEndian.PutUint32(wire[4*i:], uint32(q))
	}
	return nil
}

// DequantizeFromWire performs the RX pipeline: parse big-endian int32s and
// scale back to float32.
func DequantizeFromWire(dst []float32, wire []byte, scaleExp int) error {
	if len(wire) < 4*len(dst) {
		return fmt.Errorf("payload: wire buffer %d short of %d", len(wire), 4*len(dst))
	}
	scale := math.Ldexp(1, -scaleExp)
	for i := range dst {
		q := int32(binary.BigEndian.Uint32(wire[4*i:]))
		dst[i] = float32(float64(q) * scale)
	}
	return nil
}

// CopyWire is the host TX work left once the parser converts endianness
// (§4.2): it stores each float's bits in the host's native little-endian
// order, one element at a time. It still copies every element; the paper's
// zero-copy path does not.
func CopyWire(wire []byte, src []float32) error {
	if len(wire) < 4*len(src) {
		return fmt.Errorf("payload: wire buffer %d short of %d", len(wire), 4*len(src))
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(wire[4*i:], math.Float32bits(v))
	}
	return nil
}
