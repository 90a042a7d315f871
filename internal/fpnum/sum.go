package fpnum

// Sum64of32 accumulates float32 inputs in a float64 accumulator. For vector
// lengths up to the number of workers in the paper's experiments (≤ 2^29
// terms) this is exact to well below half an FP32 ulp and serves as the
// "exact" reference the FPISA error analysis (Fig. 8) compares switch-side
// aggregation against.
func Sum64of32(xs []float32) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s
}
