// Package banzai models the silicon cost of the Banzai-style switch ALU
// atoms the paper synthesizes in §4.2 (Table 1): the default stateless ALU,
// the FPISA ALU with a 2-operand shifter, the stateful read-add-write (RAW)
// atom, the proposed read-shift-add-write (RSAW) atom, and an ALU with a
// hard FP32 FPU for comparison with FPU-equipped switches.
//
// Real synthesis (Synopsys DC + FreePDK15) is not possible offline, so each
// unit is described structurally as the gate-equivalent blocks on its
// datapath, and the library constants are calibrated to the FreePDK15
// 15-nm results the paper reports. The substitution preserves what Table 1
// is used for: the *relative* cost of the FPISA extensions (≈ +13 % power /
// +22–35 % area over the baseline atoms) versus a hard FPU (> 5× both).
//
// Integration status: a standalone cost model — nothing in the runtime
// service consults it. Consumed only by cmd/fpisa-bench (Table 1
// regeneration) and bench_test.go.
package banzai

import (
	"fmt"
	"strings"
)

// Block is one datapath block of a unit: a gate-equivalent count, a switching
// activity factor (relative to the library's reference activity) and an
// optional leakage scaling (multi-Vt cell mixes leak differently).
type Block struct {
	Name      string
	Gates     int
	Activity  float64
	LeakScale float64 // 0 means 1.0
	// DelayPs is the block's contribution when it sits on the critical
	// path.
	DelayPs float64
	// OnPath marks the block as part of the unit's critical path.
	OnPath bool
}

// Unit is a synthesizable atom.
type Unit struct {
	Name   string
	Blocks []Block
}

// Gates returns the unit's total gate-equivalent count.
func (u Unit) Gates() int {
	n := 0
	for _, b := range u.Blocks {
		n += b.Gates
	}
	return n
}

// Library holds standard-cell calibration constants.
type Library struct {
	Name string
	// AreaPerGate is µm² per gate equivalent.
	AreaPerGate float64
	// DynPerGateUW is dynamic µW per gate equivalent at reference activity
	// and 1 GHz.
	DynPerGateUW float64
	// LeakPerGateUW is leakage µW per gate equivalent.
	LeakPerGateUW float64
}

// FreePDK15 is calibrated so the default ALU reproduces the paper's
// measured 505.4 µm² / 594.2 µW / 18.6 µW at 1 GHz.
var FreePDK15 = Library{
	Name:          "FreePDK15",
	AreaPerGate:   0.5054,
	DynPerGateUW:  0.60509,
	LeakPerGateUW: 0.0186,
}

// Result is a synthesis outcome at a 1 GHz frequency target.
type Result struct {
	Unit       string
	DynamicUW  float64
	LeakageUW  float64
	AreaUM2    float64
	MinDelayPs float64
	GateEquivs int
}

// Synthesize evaluates the cost model for a unit.
func (u Unit) Synthesize(lib Library) Result {
	r := Result{Unit: u.Name, GateEquivs: u.Gates()}
	for _, b := range u.Blocks {
		g := float64(b.Gates)
		r.AreaUM2 += g * lib.AreaPerGate
		r.DynamicUW += g * b.Activity * lib.DynPerGateUW
		ls := b.LeakScale
		if ls == 0 {
			ls = 1
		}
		r.LeakageUW += g * ls * lib.LeakPerGateUW
	}
	// Critical-path blocks are in series.
	for _, b := range u.Blocks {
		if b.OnPath {
			r.MinDelayPs += b.DelayPs
		}
	}
	return r
}

// MeetsTiming reports whether the unit closes timing at the given clock.
func (r Result) MeetsTiming(freqGHz float64) bool {
	return r.MinDelayPs <= 1000.0/freqGHz
}

// DefaultALU is Banzai's baseline stateless integer ALU: adder, boolean
// logic, fixed-distance shifter, comparator and operand/result muxing.
func DefaultALU() Unit {
	return Unit{Name: "Default ALU", Blocks: []Block{
		{Name: "adder", Gates: 300, Activity: 1.2, DelayPs: 120, OnPath: true},
		{Name: "boolean", Gates: 130, Activity: 0.8},
		{Name: "fixed-shifter", Gates: 250, Activity: 0.9},
		{Name: "comparator", Gates: 90, Activity: 0.7},
		{Name: "operand-mux/ctrl", Gates: 230, Activity: 1.0, DelayPs: 13, OnPath: true},
	}}
}

// FPISAALU extends the default ALU with the §4.2 2-operand shift: a second
// operand register feeding the shifter plus full barrel-control decode. The
// overhead "mainly comes from connecting and storing the second operand in
// the shifter".
func FPISAALU() Unit {
	u := DefaultALU()
	u.Name = "FPISA ALU"
	u.Blocks = append(u.Blocks,
		Block{Name: "shift-operand-reg", Gates: 90, Activity: 0.5},
		Block{Name: "barrel-ctrl", Gates: 134, Activity: 0.59, DelayPs: 2, OnPath: true},
	)
	return u
}

// RAW is Banzai's atomic predicated read-add-write stateful atom.
func RAW() Unit {
	return Unit{Name: "Default RAW", Blocks: []Block{
		{Name: "state-read-port", Gates: 180, Activity: 1.0, DelayPs: 40, OnPath: true},
		{Name: "adder", Gates: 300, Activity: 1.5, DelayPs: 80, OnPath: true},
		{Name: "predicate-cmp", Gates: 90, Activity: 0.9},
		{Name: "writeback-mux", Gates: 160, Activity: 1.05, DelayPs: 13, OnPath: true},
		{Name: "ctrl", Gates: 198, Activity: 0.9},
	}}
}

// RSAW is the proposed read-shift-add-write atom: RAW plus a barrel shifter
// between the state read port and the adder, so a register can be aligned
// and accumulated in one stage (full FPISA's MAU4).
func RSAW() Unit {
	u := RAW()
	u.Name = "FPISA RSAW"
	u.Blocks = append(u.Blocks,
		Block{Name: "barrel-shifter", Gates: 280, Activity: 0.42, DelayPs: 18, OnPath: true},
		Block{Name: "shift-ctrl", Gates: 45, Activity: 0.38},
	)
	return u
}

// ALUPlusFPU is the default ALU with a hard FP32 adder datapath attached —
// the Mellanox-Quantum-style alternative (§1, §4.2). The FPU pipeline's
// per-stage delay bounds the unit's minimum delay.
func ALUPlusFPU() Unit {
	u := DefaultALU()
	u.Name = "ALU+FPU"
	// The FPU is pipelined, so the ALU's own critical path no longer
	// defines the reported minimum delay; the FPU stage does.
	for i := range u.Blocks {
		u.Blocks[i].OnPath = false
	}
	u.Blocks = append(u.Blocks,
		Block{Name: "fpu-align-shifter", Gates: 900, Activity: 0.9, LeakScale: 0.745},
		Block{Name: "fpu-mantissa-adder", Gates: 400, Activity: 1.2, LeakScale: 0.745},
		Block{Name: "fpu-lzc", Gates: 500, Activity: 0.8, LeakScale: 0.745},
		Block{Name: "fpu-norm-shifter", Gates: 900, Activity: 0.9, LeakScale: 0.745},
		Block{Name: "fpu-rounder", Gates: 600, Activity: 0.8, LeakScale: 0.745},
		Block{Name: "fpu-exp-logic", Gates: 450, Activity: 0.9, LeakScale: 0.745},
		Block{Name: "fpu-pipeline-regs", Gates: 2843, Activity: 0.55, LeakScale: 0.745, DelayPs: 136, OnPath: true},
	)
	return u
}

// Multiplier is the Appendix A integer multiplier atom; the paper reports
// overhead "approximately the same as an adder and a boolean module".
func Multiplier() Unit {
	return Unit{Name: "Integer multiplier", Blocks: []Block{
		{Name: "partial-products", Gates: 300, Activity: 1.1, DelayPs: 95, OnPath: true},
		{Name: "reduction-tree", Gates: 130, Activity: 0.9, DelayPs: 38, OnPath: true},
	}}
}

// Table1 synthesizes the five units of paper Table 1 in paper order.
func Table1() []Result {
	units := []Unit{DefaultALU(), FPISAALU(), RAW(), RSAW(), ALUPlusFPU()}
	out := make([]Result, len(units))
	for i, u := range units {
		out[i] = u.Synthesize(FreePDK15)
	}
	return out
}

// FormatTable1 renders the results in the paper's layout.
func FormatTable1(rs []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "")
	for _, r := range rs {
		fmt.Fprintf(&b, "%14s", r.Unit)
	}
	b.WriteByte('\n')
	row := func(label string, get func(Result) float64, format string) {
		fmt.Fprintf(&b, "%-22s", label)
		for _, r := range rs {
			fmt.Fprintf(&b, format, get(r))
		}
		b.WriteByte('\n')
	}
	row("Dynamic power (uW)", func(r Result) float64 { return r.DynamicUW }, "%14.1f")
	row("Leakage power (uW)", func(r Result) float64 { return r.LeakageUW }, "%14.1f")
	row("Area (um^2)", func(r Result) float64 { return r.AreaUM2 }, "%14.1f")
	row("Min delay (ps)", func(r Result) float64 { return r.MinDelayPs }, "%14.0f")
	return b.String()
}
