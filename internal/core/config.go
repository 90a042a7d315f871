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
// # Result storage
//
// Both aggregation backends (PipelineAggregator on the compiled pipeline,
// ProfileAggregator's accumulator bank for non-default profiles) expose one
// operation set in two forms. AddInto/SetInto/ReadInto/ReadResetInto decode the
// response into a Result the caller supplies, reusing its slices, and
// allocate nothing in steady state; the pipeline scratch they run on (the
// aggregator's request packet, the pisa.Switch's PHV and deparse buffer) is
// valid only until the next call on the same replica, which is why the
// response is copied out into caller storage before the call returns. A
// nil *Result discards the response undecoded. Add/Read/ReadReset are thin
// wrappers returning a fresh Result. An aggregator, like the pisa.Switch
// replica under it, serves one caller at a time.
package core

import (
	"fmt"

	"fpisa/internal/fpnum"
)

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

// Rounding selects the read-out rounding behaviour.
type Rounding int

const (
	// RoundTruncate drops excess mantissa bits at read-out. Combined with
	// the two's-complement alignment shifts this yields the paper's
	// round-toward-negative-infinity semantics (Appendix A.1).
	RoundTruncate Rounding = iota
	// RoundNearestEven rounds to nearest/even using the guard bits; it
	// requires GuardBits >= 1 to behave differently from truncation on
	// exact-width sums.
	RoundNearestEven
)

// Config parameterizes an FPISA instance.
type Config struct {
	// Format is the wire floating-point format (fpnum.FP32 or fpnum.FP16).
	Format fpnum.Format
	// RegWidth is the mantissa register width in bits (<= 32). The paper
	// uses 32-bit registers for FP32 (7 bits of headroom).
	RegWidth int
	// GuardBits reserves low-order rounding bits below the mantissa
	// (Appendix A.1), reducing headroom one-for-one.
	GuardBits int
	// Mode selects full FPISA or FPISA-A.
	Mode Mode
	// Rounding selects the read-out rounding.
	Rounding Rounding
}

// DefaultFP32 returns the paper's standard configuration: FP32 values in
// 32-bit mantissa registers, no guard bits, truncating read-out.
func DefaultFP32(mode Mode) Config {
	return Config{Format: fpnum.FP32, RegWidth: 32, Mode: mode}
}

// DefaultFP16 returns the FP16 configuration evaluated in §5.2: FP16 values
// with the mantissa held in a 32-bit register, which gives generous
// headroom.
func DefaultFP16(mode Mode) Config {
	return Config{Format: fpnum.FP16, RegWidth: 32, Mode: mode}
}

// MantissaBits returns the explicit mantissa width (stored fraction plus the
// implied 1).
func (c Config) MantissaBits() int { return c.Format.ManBits + 1 }

// Headroom returns the number of spare high-order mantissa-register bits
// available for left-shifting and carry absorption: RegWidth minus one sign
// bit, the explicit mantissa and the guard bits. FP32 in a 32-bit register
// with no guard bits has 7 (§3.3, §4.3).
func (c Config) Headroom() int {
	return c.RegWidth - 1 - c.MantissaBits() - c.GuardBits
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if !c.Format.Valid() {
		return fmt.Errorf("core: invalid format %v", c.Format)
	}
	if c.Format.Bits > 32 {
		return fmt.Errorf("core: %s values wider than 32 bits are not supported by 32-bit pipelines", c.Format.Name)
	}
	if c.RegWidth < 8 || c.RegWidth > 32 {
		return fmt.Errorf("core: mantissa register width %d not in 8..32", c.RegWidth)
	}
	if c.GuardBits < 0 {
		return fmt.Errorf("core: negative guard bits")
	}
	if c.Headroom() < 1 {
		return fmt.Errorf("core: headroom %d < 1: register too narrow for %d mantissa bits + %d guard bits",
			c.Headroom(), c.MantissaBits(), c.GuardBits)
	}
	if c.Rounding == RoundNearestEven && c.GuardBits < 1 {
		return fmt.Errorf("core: round-to-nearest-even needs at least one guard bit")
	}
	return nil
}

// maxAdditionsWithoutOverflow returns how many maximum-mantissa same-
// exponent values can be accumulated before the headroom overflows — the
// §3.3 bound (128 for the default FP32 configuration).
func (c Config) maxAdditionsWithoutOverflow() int {
	return 1 << c.Headroom()
}

// MaxSafeAdditions is the exported form of the §3.3 overflow bound.
func (c Config) MaxSafeAdditions() int { return c.maxAdditionsWithoutOverflow() }
