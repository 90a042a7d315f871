// Package core implements FPISA, the paper's primary contribution: a
// floating-point representation and addition/comparison scheme that runs on
// the integer match-action pipeline of a PISA switch.
//
// A value is stored decoupled (paper §3.1, Fig. 3): the biased exponent in a
// narrow register array in one stage, and the mantissa — with the implied 1
// made explicit, in two's-complement signed form, right-aligned in a wider
// register — in a later stage. Renormalization is delayed until read-out
// (§3's "delayed renormalization"), and the spare high bits of the mantissa
// register absorb carries ("extra bits in mantissa register").
//
// Two operating modes are provided:
//
//   - ModeFull: the complete FPISA design, which needs the paper's §4.2
//     hardware extensions (RSAW + 2-operand shift) because the stored
//     mantissa must sometimes be shifted and accumulated in one stage.
//   - ModeApprox: FPISA-A (§4.3), deployable on existing switches. The
//     stored mantissa is never shifted; when the incoming value has the
//     larger exponent it is left-shifted into the headroom instead, and
//     when the gap exceeds the headroom the accumulator is overwritten,
//     introducing the paper's "overwrite error".
//
// The package contains both a bit-exact software model (Accumulator) — the
// equivalent of the paper's C library used for the §5.2 training studies —
// and a builder that emits the same algorithm as a pisa.Program, so the
// pipeline execution can be checked against the model instruction for
// instruction.
//
// # One arithmetic descriptor
//
// A NumericProfile is the whole arithmetic contract: the wire format, the
// guard bits below the mantissa and the read-out rounding, all in a 32-bit
// mantissa register (the switch's register width; it gives FP32 the §3.3
// headroom of 7 bits). A Config is a NumericProfile plus a Mode, and both
// backends are built from it: BuildProgram compiles a Config whose profile
// is DefaultProfile and refuses every other, and NewAccumulator runs any
// valid one. The Accumulator converts between host float32 and wire bits
// through the profile's EncodeValue and DecodeValue, as the wire codec does.
//
// # Wire bytes in, wire bytes out
//
// Both aggregation backends (PipelineAggregator on the compiled pipeline,
// ProfileAggregator's accumulator bank for every other profile) expose one
// operation set in two forms. AddInto/SetInto/ReadResetInto take an ADD's
// value region as it arrived (the profile's wire format, big-endian), write
// the sums into the caller's out in that format and return the one
// overflow bit the wire carries, allocating nothing; the pipeline scratch
// they run on is valid only until the next call on the same replica, so
// the sums are copied out before the call returns. A nil out discards the
// response unbuilt. Add/Read/ReadReset are the host edge: float32 wrappers.
// An aggregator, like the pisa.Switch replica under it, serves one caller
// at a time.
package core

// Mode selects between the full design and the FPISA-A approximation.
type Mode int

const (
	// ModeFull is complete FPISA; compiling it to a pipeline requires the
	// RSAW and VariableShift extensions.
	ModeFull Mode = iota
	// ModeApprox is FPISA-A, implementable on existing architectures.
	ModeApprox
)

func (m Mode) String() string {
	if m == ModeFull {
		return "FPISA"
	}
	return "FPISA-A"
}

// Config describes one FPISA instance: the numeric profile (wire format,
// guard bits, read-out rounding) in the 32-bit mantissa register, and the
// alignment mode.
type Config struct {
	// Profile is the arithmetic contract, as negotiated on the wire.
	Profile NumericProfile
	// Mode selects full FPISA or FPISA-A.
	Mode Mode
}

// DefaultFP32 returns the paper's standard configuration: FP32 values in
// 32-bit mantissa registers, no guard bits, truncating read-out.
func DefaultFP32(mode Mode) Config {
	return Config{Profile: DefaultProfile, Mode: mode}
}
