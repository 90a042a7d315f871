package fpnum

import "math"

// OrderedKey32 maps FP32 bit patterns to unsigned integers such that the
// integer order matches the floating-point order (with -0 ordered just below
// +0, and NaNs above +Inf / below -Inf by payload). This is the transform
// FPISA uses to implement FP comparison with integer switch ALUs (§6): a
// sign test plus one XOR, both single-MAU operations.
func OrderedKey32(x float32) uint32 {
	b := math.Float32bits(x)
	if b&0x80000000 != 0 {
		return ^b
	}
	return b ^ 0x80000000
}
