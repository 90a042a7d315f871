// Package pisa is a functional simulator of an RMT/PISA programmable switch
// pipeline (paper §2.1, Fig. 1): a programmable parser, a sequence of
// match-action units (MAUs) with match tables, stateless VLIW ALUs and
// stateful register ALUs, an egress pipeline and a deparser.
//
// The simulator enforces the architectural constraints that make floating
// point hard on real switches (§2.3): a register lives in the stage of the
// one table that accesses it and supports one stateful access per packet;
// data dependencies cannot flow backward; all instructions within an action
// execute in parallel (so a value computed by one instruction is not visible
// to another in the same stage); and — on the base architecture — shift
// instructions take only immediate distances and there is no
// count-leading-zeros instruction. The instruction set is the one the FPISA
// program (internal/core) compiles to: twelve VLIW opcodes, of which only
// the conditional select takes a predicate, and stateful ALUs with six
// updates and two comparisons. The compiler refuses anything outside it.
//
// Two of the paper's three proposed hardware extensions (§4.2), variable
// shifts and the read-shift-add-write unit, are modeled as feature flags so
// programs can be compiled against both the base Tofino-like architecture
// and the extended one. The third, a parser that converts little-endian
// host payloads, is modeled only as the host cost it would save (Fig. 6,
// internal/payload): every worker encodes its values big-endian, as the
// wire carries them, so the parser and the deparser know one byte order.
//
// # How a packet runs
//
// compile resolves a program against the architecture — fields, registers,
// parser, tables, actions and entries — checks the stages the program
// states (checkDependencies), each register in its table's stage, and
// reports the resources it uses (Table 3). ProcessScratch then runs each
// packet as the program states it: the parser extracts every byte and bit
// range into the PHV, checking each against the packet; each gress runs
// its stages in order and each stage's tables in declaration order, an
// always-table its default action, a keyed table the action its key
// selects (exact by sorted search, ternary and LPM by TCAM scan), an
// action its instructions and then its stateful op; the packet leaves on
// the port ingress left in _egress_port, exactly one packet out or an
// error. There is no traffic manager: the FPISA program reflects every
// packet to its ingress port and never drops, multicasts or recirculates.
//
// Every write goes straight into the PHV, and stage semantics — the
// Packet-Transactions atom, in which every table of a stage reads the
// stage-entry PHV — hold by construction: the compiler refuses a table that
// reads a field another table of its stage writes, whichever is declared
// first, an instruction that reads another's destination, and a stateful op
// that reads what an instruction of its own action writes. The deparser
// writes back a byte extract exactly when some table writes its field;
// every other byte leaves as it arrived.
//
// # Execution and buffer ownership
//
// A Switch executes packets on scratch it owns — the PHV and the deparse
// buffer — so ProcessScratch allocates nothing. The Emission it returns is
// valid until the next call on the same Switch; Process is the same
// execution handing out a fresh copy. A Switch is therefore
// single-threaded: replicas (Replicate) share the immutable compiled
// program and may run concurrently, one caller each.
package pisa

// Features describes the optional hardware extensions of paper §4.2 that
// change what a program may express.
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
}

// Budget describes per-stage hardware resources, calibrated so the resource
// report for the FPISA program reproduces paper Table 3 (see
// internal/core's program builder and core.TestTable3ResourceShape).
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
	}
}

// ExtendedArch returns the same architecture with the modeled §4.2
// extensions enabled — the target for full FPISA.
func ExtendedArch() Arch {
	a := BaseArch()
	a.Name = "tofino-like-extended"
	a.Features = Features{VariableShift: true, RSAW: true}
	return a
}
