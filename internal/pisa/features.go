// Package pisa is a functional simulator of an RMT/PISA programmable switch
// pipeline (paper §2.1, Fig. 1): a programmable parser, a sequence of
// match-action units (MAUs) with match tables, stateless VLIW ALUs and
// stateful register ALUs, a traffic manager, an egress pipeline and a
// deparser.
//
// The simulator enforces the architectural constraints that make floating
// point hard on real switches (§2.3): registers are bound to a single stage
// and support one stateful access per packet; data dependencies cannot flow
// backward; all instructions within an action execute in parallel (so a
// value computed by one instruction is not visible to another in the same
// stage); and — on the base architecture — shift instructions take only
// immediate distances and there is no count-leading-zeros instruction.
//
// The paper's three proposed hardware extensions (§4.2) are modeled as
// feature flags so programs can be compiled against both the base Tofino-
// like architecture and the extended one.
//
// # How a packet runs
//
// compile resolves a program against the architecture, places its tables
// into stages (checkDependencies), and lowers each gress once to a flat
// step plan (plan.go): pre-resolved VLIW instructions, stateful-ALU steps
// and keyed-table lookups in stage and table order. A packet is parsed into
// the PHV, runs the ingress plan, passes the traffic manager (drop, unicast,
// multicast fan-out), runs the egress plan per output port, and is deparsed
// (or recirculated). Nothing on that path interprets a table declaration:
// always-tables have dissolved into their action's steps, and what is left
// of matching is the data-keyed lookups — exact by direct index or sorted
// search, ternary and LPM by TCAM scan. Stage semantics are the
// Packet-Transactions atom — every table of a stage reads the stage-entry
// PHV — and hold by construction: a step writes the PHV directly unless a
// later step of its stage still reads the old value, which the compiler's
// placement rules leave possible only for an action's own stateful op; those
// writes are held back until the op has run. TableStats and Counters report
// per declared table exactly as a table-by-table interpreter would; one
// lives on as the differential-test oracle (oracle_test.go, DiffRun).
//
// # Execution and buffer ownership
//
// A Switch executes packets on scratch it owns — the PHV, the held-back
// write set, the deparse buffer and the result slice — so the per-packet
// path (ProcessScratch) allocates nothing. What ProcessScratch returns is
// valid until the next call on the same Switch; Process is the same
// execution handing out fresh copies. A Switch is therefore
// single-threaded: replicas (Replicate) share the immutable compiled
// program, plans included, and may run concurrently, one caller each.
package pisa

// Features describes the optional hardware extensions of paper §4.2.
type Features struct {
	// VariableShift enables the 2-operand shift instruction
	// (shl/shr reg.distance, reg.value). Without it, variable-distance
	// shifts must be expanded into per-distance match-table actions,
	// consuming one VLIW slot per possible distance (Appendix B).
	VariableShift bool
	// RSAW enables the atomic read-shift-add-write stateful unit, allowing
	// a register to be right-shifted and accumulated in a single stage.
	// Without it only FPISA-A (the approximation of §4.3) is expressible.
	RSAW bool
	// ParserEndianness enables the @convert_endianness parser/deparser
	// annotation, letting hosts transmit little-endian payloads without
	// software byte swapping.
	ParserEndianness bool
}

// Budget describes per-stage hardware resources, calibrated so the resource
// report for the FPISA program reproduces paper Table 3 (see
// internal/core's program builder and EXPERIMENTS.md).
type Budget struct {
	SRAMBlocks    int // exact-match/action SRAM blocks per stage
	SRAMBlockBits int // bits per SRAM block
	TCAMBlocks    int // ternary blocks per stage
	TCAMBlockBits int // ternary bits per block (value+mask planes)
	StatefulALUs  int // stateful register ALUs per stage
	VLIWSlots     int // stateless VLIW instruction slots per stage
	CrossbarBytes int // match input crossbar bytes per stage
	ResultBuses   int // action result buses per stage
	HashBits      int // hash distribution bits per stage
}

// Arch is a switch architecture: stage counts, per-stage budget and feature
// flags.
type Arch struct {
	Name          string
	IngressStages int
	EgressStages  int
	Budget        Budget
	Features      Features
	// StageNs is the per-stage processing latency in nanoseconds, used by
	// the latency model only (data-plane programs run at line rate
	// regardless of program complexity, §5.2).
	StageNs float64
	// LineRateGbps is the per-port line rate.
	LineRateGbps float64
}

// tofinoBudget matches the granularity of the utilization report in paper
// Table 3: 32 VLIW slots and 4 stateful ALUs per stage, 8 result buses,
// 80 SRAM and 24 TCAM blocks.
var tofinoBudget = Budget{
	SRAMBlocks:    80,
	SRAMBlockBits: 128 * 128,
	TCAMBlocks:    24,
	TCAMBlockBits: 512 * 94,
	StatefulALUs:  4,
	VLIWSlots:     32,
	CrossbarBytes: 160,
	ResultBuses:   8,
	HashBits:      416,
}

// BaseArch returns a 12-stage Tofino-like architecture with no extensions —
// the target for FPISA-A (§4.3).
func BaseArch() Arch {
	return Arch{
		Name:          "tofino-like-base",
		IngressStages: 12,
		EgressStages:  12,
		Budget:        tofinoBudget,
		StageNs:       25,
		LineRateGbps:  100,
	}
}

// ExtendedArch returns the same architecture with all three §4.2 extensions
// enabled — the target for full FPISA.
func ExtendedArch() Arch {
	a := BaseArch()
	a.Name = "tofino-like-extended"
	a.Features = Features{VariableShift: true, RSAW: true, ParserEndianness: true}
	return a
}

// PipelineLatencyNs returns the fixed packet-processing latency of the
// ingress+egress pipelines. It depends only on the number of stages, not on
// the program (§5.2 testbed note (1)).
func (a Arch) PipelineLatencyNs() float64 {
	return float64(a.IngressStages+a.EgressStages) * a.StageNs
}
