package core

import (
	"fmt"
	"slices"

	"fpisa/internal/fpnum"
	"fpisa/internal/pisa"
)

// Packet opcodes understood by the FPISA pipeline program.
const (
	// PktAdd accumulates the packet's values into the indexed slot.
	PktAdd = 0
	// PktRead returns the renormalized values without touching state.
	PktRead = 1
	// PktReadReset returns the values and zeroes the slot (and its
	// counters) — the aggregation-slot-reuse primitive.
	PktReadReset = 2
	// PktSet accumulates the packet's values into the indexed slot as if it
	// had just been zeroed: the registers are overwritten, not read, so the
	// first ADD of a slot version needs no reset pass before it. The
	// response and the slot state are exactly those of PktReadReset followed
	// by PktAdd.
	PktSet = 3
)

// Packet layout constants (see BuildProgram).
const (
	pktOffOp     = 0
	pktOffIdx    = 1
	pktOffCnt    = 5
	pktOffValues = 9
)

// PacketBytes returns the FPISA packet size for a module count.
func PacketBytes(modules int) int { return pktOffValues + 5*modules }

// Layout describes a built pipeline program.
type Layout struct {
	Modules     int
	Slots       int
	PacketBytes int
	Mode        Mode
}

// MaxModules returns how many parallel FPISA modules fit in one pipeline on
// the given architecture. On the base architecture the emulated variable
// shifts consume so many VLIW slots that only one module fits (§4.1,
// Appendix B); with the VariableShift extension the stateful-ALU budget
// becomes the binding constraint.
func MaxModules(arch pisa.Arch) int {
	if arch.Features.VariableShift {
		// Shared cnt register takes one stateful ALU in the exponent
		// stage; each module adds one exponent register there.
		return arch.Budget.StatefulALUs - 1
	}
	return 1
}

// BuildProgram emits the FPISA dataflow of paper Fig. 2 as a PISA program:
//
//	packet:  op(1) | idx(4) | cnt(4) | value(4) × modules | ovf(1) × modules
//
// The values are laid out as the wire's value region, so they move with one
// copy; op, idx and cnt lead them as a header, the way Tofino carries
// bridged metadata. Each module keeps the sticky overflow register Table 3
// counts and its own octet, which the wire ORs into one. The deparser writes
// back what tables write — cnt, values, overflow octets — not op or idx.
//
// Ingress splits each FP32 value into sign/exponent/fraction (parser bit
// extracts), converts the mantissa to signed two's complement, compares the
// exponent against the per-slot exponent register, aligns the incoming
// mantissa (per-distance match-table actions on the base architecture,
// 2-operand shifts with the VariableShift extension), and accumulates into
// the mantissa register — a predicated add for FPISA-A, an atomic
// read-shift-add-write for full FPISA. Egress renormalizes via the Fig. 5
// LPM count-leading-zeros table and reassembles the FP32 result.
//
// The op octet keys one exact table per register (cnt, and exp/man/ovf per
// module), each holding four register actions: PktAdd accumulates, PktRead
// reads, PktReadReset reads and zeroes, and PktSet accumulates into the slot
// as if it were zero — every register is overwritten instead of read, and
// since exp_set drives no e_old the alignment dataflow sees the 0 a reset
// would have left. Over the three-opcode program PktSet costs one more
// entry and action per table and one more VLIW instruction per module
// (exp_set repeats exp_add's neg_m1): VLIW total 22.66% → 22.92% for one
// module on the base architecture, 21.61% → 22.40% for three FPISA-A
// modules on the extended one; every per-stage maximum, every other
// Table 3 row, the stage count and MaxModules are unchanged.
//
// Restrictions: the pipeline build supports only DefaultProfile, FP32 with
// zero guard bits and truncating read-out (the paper's deployed
// configuration). Values whose renormalized exponent would leave the normal
// range are undefined, as in the paper's P4 implementation; the software
// model additionally saturates.
func BuildProgram(cfg Config, modules, slots int, arch pisa.Arch) (pisa.Program, Layout, error) {
	var lay Layout
	if cfg.Profile != DefaultProfile {
		return pisa.Program{}, lay, fmt.Errorf("core: pipeline build supports only the %v profile (got %v)", DefaultProfile, cfg.Profile)
	}
	if modules < 1 || modules > MaxModules(arch) {
		return pisa.Program{}, lay, fmt.Errorf("core: %d modules requested; architecture %q fits %d (%s)",
			modules, arch.Name, MaxModules(arch), shiftHint(arch))
	}
	if slots < 1 {
		return pisa.Program{}, lay, fmt.Errorf("core: slots %d", slots)
	}
	full := cfg.Mode == ModeFull
	if full && (!arch.Features.RSAW || !arch.Features.VariableShift) {
		return pisa.Program{}, lay, fmt.Errorf("core: full FPISA needs the RSAW and VariableShift extensions (§4.2); use ModeApprox (FPISA-A) on %q", arch.Name)
	}
	varShift := arch.Features.VariableShift

	// Stage plan. The mantissa stateful stage shifts by one in the
	// extended-approx variant, which needs two cascaded selects before the
	// stateful add.
	manStage := 7
	if varShift && !full {
		manStage = 8
	}
	ovfStage := manStage + 1  // sticky overflow register + sign split
	umagStage := manStage + 2 // magnitude/assembly preparation

	p := pisa.Program{Name: fmt.Sprintf("fpisa-%s-x%d", cfg.Mode, modules)}

	// Shared fields and parser.
	p.Fields = append(p.Fields,
		pisa.FieldDecl{Name: "op", Width: 8},
		pisa.FieldDecl{Name: "idx", Width: 32},
		pisa.FieldDecl{Name: "cnt", Width: 32},
		pisa.FieldDecl{Name: "one", Width: 8},
	)
	p.Parser = append(p.Parser,
		pisa.ExtractDecl{Field: "op", Offset: pktOffOp, Bytes: 1},
		pisa.ExtractDecl{Field: "idx", Offset: pktOffIdx, Bytes: 4},
		pisa.ExtractDecl{Field: "cnt", Offset: pktOffCnt, Bytes: 4},
	)

	// Shared bookkeeping: packet-count register (completion detection for
	// aggregation services) and the reflect/setup table.
	p.Registers = append(p.Registers,
		pisa.RegisterDecl{Name: "cnt_reg", Width: 32, Size: slots},
	)
	p.Tables = append(p.Tables, pisa.TableDecl{
		Name: "setup", Stage: 0, Kind: pisa.MatchAlways,
		Actions: []pisa.ActionDecl{{Name: "setup", Instrs: []pisa.Instr{
			{Op: pisa.OpMov, Dst: "one", A: pisa.Imm(1)},
			{Op: pisa.OpMov, Dst: pisa.FieldEgressPort, A: pisa.F(pisa.FieldIngressPort)},
		}}},
		Default: "setup",
	})
	p.Tables = append(p.Tables, pisa.TableDecl{
		Name: "cnt_op", Stage: 2, Kind: pisa.MatchExact, Key: []string{"op"},
		Actions: []pisa.ActionDecl{
			{Name: "cnt_add", Stateful: &pisa.StatefulOp{
				Register: "cnt_reg", IndexField: "idx", InField: "one",
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.UAddIn,
				Output: pisa.OutNew, OutputField: "cnt",
			}},
			{Name: "cnt_read", Stateful: &pisa.StatefulOp{
				Register: "cnt_reg", IndexField: "idx",
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.UKeepOld,
				Output: pisa.OutOld, OutputField: "cnt",
			}},
			{Name: "cnt_reset", Stateful: &pisa.StatefulOp{
				Register: "cnt_reg", IndexField: "idx",
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.UZero,
				Output: pisa.OutOld, OutputField: "cnt",
			}},
			{Name: "cnt_set", Stateful: &pisa.StatefulOp{
				Register: "cnt_reg", IndexField: "idx", InField: "one",
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.USetIn,
				Output: pisa.OutNew, OutputField: "cnt",
			}},
		},
		Entries: opEntries("cnt"),
	})

	sh := &sharedInstrs{}
	for k := 0; k < modules; k++ {
		if err := addModule(&p, k, modules, slots, full, varShift, manStage, ovfStage, umagStage, sh); err != nil {
			return pisa.Program{}, lay, err
		}
	}

	// Shared cross-module tables: one result bus each regardless of module
	// count.
	addShared := func(name string, stage int, egress bool, instrs []pisa.Instr) {
		p.Tables = append(p.Tables, pisa.TableDecl{
			Name: name, Stage: stage, Egress: egress, Kind: pisa.MatchAlways,
			Actions: []pisa.ActionDecl{{Name: "run", Instrs: instrs}},
			Default: "run",
		})
	}
	addShared("sign_split", ovfStage, false, sh.signSplit)
	addShared("assemble_base", 0, true, sh.base)
	addShared("assemble_sum", manStage+1, true, sh.sum)
	addShared("assemble_out", manStage+2, true, sh.out)

	lay = Layout{Modules: modules, Slots: slots, PacketBytes: PacketBytes(modules), Mode: cfg.Mode}
	return p, lay, nil
}

// opEntries maps the four packet opcodes to a register's four actions
// (<reg>_add, _read, _reset, _set) — four register actions per register is
// Tofino's limit.
func opEntries(reg string) []pisa.EntryDecl {
	return []pisa.EntryDecl{
		{Value: PktAdd, Action: reg + "_add"},
		{Value: PktRead, Action: reg + "_read"},
		{Value: PktReadReset, Action: reg + "_reset"},
		{Value: PktSet, Action: reg + "_set"},
	}
}

// sharedInstrs collects per-module instructions for the shared tables.
type sharedInstrs struct {
	signSplit []pisa.Instr
	base      []pisa.Instr
	sum       []pisa.Instr
	out       []pisa.Instr
}

func shiftHint(arch pisa.Arch) string {
	if arch.Features.VariableShift {
		return "stateful-ALU budget"
	}
	return "emulated variable shifts exhaust the per-stage VLIW slots"
}

// addModule emits the per-value dataflow for module k of modules.
func addModule(p *pisa.Program, k, modules, slots int, full, varShift bool, manStage, ovfStage, umagStage int, sh *sharedInstrs) error {
	n := func(name string) string { return fmt.Sprintf("%s_%d", name, k) }
	valOff := pktOffValues + 4*k
	manBits := fpnum.FP32.ManBits // 23
	H := DefaultProfile.Headroom()

	fields := []pisa.FieldDecl{
		{Name: n("v"), Width: 32}, {Name: n("sign"), Width: 8},
		{Name: n("e_in"), Width: 16}, {Name: n("frac"), Width: 32},
		{Name: n("enz"), Width: 8}, {Name: n("fracimp"), Width: 32},
		{Name: n("m1"), Width: 32}, {Name: n("e1"), Width: 16},
		{Name: n("neg_m1"), Width: 32}, {Name: n("m_in"), Width: 32},
		{Name: n("e_old"), Width: 16}, {Name: n("d"), Width: 16},
		{Name: n("right"), Width: 8}, {Name: n("ovw"), Width: 8},
		{Name: n("rsd"), Width: 16},
		{Name: n("e_cur"), Width: 16}, {Name: n("m_sh"), Width: 32},
		{Name: n("m_raw"), Width: 32}, {Name: n("ovf"), Width: 8},
		{Name: n("sign_out"), Width: 8}, {Name: n("negm"), Width: 32},
		{Name: n("iszero"), Width: 8}, {Name: n("u_mag"), Width: 32},
		{Name: n("sgn31"), Width: 32}, {Name: n("e_cur23"), Width: 32},
		{Name: n("sbase"), Width: 32}, {Name: n("m_norm"), Width: 32},
		{Name: n("sadj"), Width: 32}, {Name: n("v0"), Width: 32},
	}
	if varShift {
		fields = append(fields,
			pisa.FieldDecl{Name: n("m_shr"), Width: 32},
			pisa.FieldDecl{Name: n("m_shl"), Width: 32},
			pisa.FieldDecl{Name: n("m_sh0"), Width: 32},
			pisa.FieldDecl{Name: n("dshift"), Width: 8},
		)
	}
	p.Fields = append(p.Fields, fields...)

	p.Parser = append(p.Parser,
		pisa.ExtractDecl{Field: n("v"), Offset: valOff, Bytes: 4},
		pisa.ExtractDecl{Field: n("ovf"), Offset: pktOffValues + 4*modules + k, Bytes: 1},
	)
	p.ParserBits = append(p.ParserBits,
		pisa.BitExtractDecl{Field: n("sign"), BitOffset: valOff * 8, Bits: 1},
		pisa.BitExtractDecl{Field: n("e_in"), BitOffset: valOff*8 + 1, Bits: 8},
		pisa.BitExtractDecl{Field: n("frac"), BitOffset: valOff*8 + 9, Bits: 23},
	)

	p.Registers = append(p.Registers,
		pisa.RegisterDecl{Name: n("exp_reg"), Width: 8, Size: slots},
		pisa.RegisterDecl{Name: n("man_reg"), Width: 32, Size: slots},
		pisa.RegisterDecl{Name: n("ovf_reg"), Width: 8, Size: slots},
	)

	always := func(name string, stage int, egress bool, instrs ...pisa.Instr) pisa.TableDecl {
		return pisa.TableDecl{
			Name: n(name), Stage: stage, Egress: egress, Kind: pisa.MatchAlways,
			Actions: []pisa.ActionDecl{{Name: "run", Instrs: instrs}},
			Default: "run",
		}
	}

	// MAU0: classify the exponent and pre-or the implied 1 (denormals keep
	// an implied 0 and an effective exponent of 1).
	p.Tables = append(p.Tables, always("extract", 0, false,
		pisa.Instr{Op: pisa.OpNe, Dst: n("enz"), A: pisa.F(n("e_in")), B: pisa.Imm(0)},
		pisa.Instr{Op: pisa.OpOr, Dst: n("fracimp"), A: pisa.F(n("frac")), B: pisa.Imm(1 << uint(manBits))},
	))
	// MAU1: select mantissa/exponent per normality.
	p.Tables = append(p.Tables, always("normalize_in", 1, false,
		pisa.Instr{Op: pisa.OpCsel, Dst: n("m1"), A: pisa.F(n("fracimp")), B: pisa.F(n("frac")), Pred: n("enz")},
		pisa.Instr{Op: pisa.OpCsel, Dst: n("e1"), A: pisa.F(n("e_in")), B: pisa.Imm(1), Pred: n("enz")},
	))

	// MAU2: negate candidate + exponent stateful op.
	expCond := pisa.SaluCond{Kind: pisa.CondCmpOldIn, Cmp: pisa.CmpGt} // in > old: full FPISA max()
	if !full {
		expCond.Off = int64(H) // FPISA-A: overwrite only past the headroom
	}
	negM1 := []pisa.Instr{{Op: pisa.OpSub, Dst: n("neg_m1"), A: pisa.Imm(0), B: pisa.F(n("m1"))}}
	p.Tables = append(p.Tables, pisa.TableDecl{
		Name: n("exp_op"), Stage: 2, Kind: pisa.MatchExact, Key: []string{"op"},
		Actions: []pisa.ActionDecl{
			{
				Name:   "exp_add",
				Instrs: negM1,
				Stateful: &pisa.StatefulOp{
					Register: n("exp_reg"), IndexField: "idx", InField: n("e1"),
					Cond: expCond, True: pisa.USetIn, False: pisa.UKeepOld,
					Output: pisa.OutOld, OutputField: n("e_old"),
				},
			},
			{Name: "exp_read", Stateful: &pisa.StatefulOp{
				Register: n("exp_reg"), IndexField: "idx",
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.UKeepOld,
				Output: pisa.OutOld, OutputField: n("e_old"),
			}},
			{Name: "exp_reset", Stateful: &pisa.StatefulOp{
				Register: n("exp_reg"), IndexField: "idx",
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.UZero,
				Output: pisa.OutOld, OutputField: n("e_old"),
			}},
			{
				// exp_add against a stored exponent of 0: the same predicate
				// with the register operand dropped. No output, so e_old
				// stays the PHV's 0 and the alignment dataflow downstream
				// sees what it would after a reset.
				Name:   "exp_set",
				Instrs: negM1,
				Stateful: &pisa.StatefulOp{
					Register: n("exp_reg"), IndexField: "idx", InField: n("e1"),
					Cond: pisa.SaluCond{Kind: pisa.CondPhv, Field: n("e1"), Cmp: pisa.CmpGt, Off: expCond.Off},
					True: pisa.USetIn, False: pisa.UZero,
				},
			},
		},
		Entries: opEntries("exp"),
	})

	// MAU3: signed mantissa + exponent difference.
	p.Tables = append(p.Tables, always("signed_man", 3, false,
		pisa.Instr{Op: pisa.OpCsel, Dst: n("m_in"), A: pisa.F(n("neg_m1")), B: pisa.F(n("m1")), Pred: n("sign")},
		pisa.Instr{Op: pisa.OpSub, Dst: n("d"), A: pisa.F(n("e1")), B: pisa.F(n("e_old"))},
	))

	// MAU4: path predicates.
	p.Tables = append(p.Tables, always("preds", 4, false,
		pisa.Instr{Op: pisa.OpGeS, Dst: n("right"), A: pisa.Imm(0), B: pisa.F(n("d"))},
		pisa.Instr{Op: pisa.OpLtS, Dst: n("ovw"), A: pisa.Imm(uint32(H)), B: pisa.F(n("d"))},
		pisa.Instr{Op: pisa.OpSub, Dst: n("rsd"), A: pisa.Imm(0), B: pisa.F(n("d"))},
	))

	// MAU5: current-exponent (and RSAW shift-distance) selection.
	var sel5 []pisa.Instr
	if full {
		// E' = max(E, e); the RSAW shift applies only when the incoming
		// exponent is larger.
		sel5 = append(sel5,
			pisa.Instr{Op: pisa.OpCsel, Dst: n("e_cur"), A: pisa.F(n("e_old")), B: pisa.F(n("e1")), Pred: n("right")},
			pisa.Instr{Op: pisa.OpCsel, Dst: n("dshift"), A: pisa.Imm(0), B: pisa.F(n("d")), Pred: n("right")},
		)
	} else {
		sel5 = append(sel5,
			pisa.Instr{Op: pisa.OpCsel, Dst: n("e_cur"), A: pisa.F(n("e1")), B: pisa.F(n("e_old")), Pred: n("ovw")},
		)
	}
	p.Tables = append(p.Tables, always("select", 5, false, sel5...))

	if err := addAlignment(p, n, full, varShift, manBits, H); err != nil {
		return err
	}
	addMantissaStateful(p, n, full, manStage)

	// Sticky overflow register; the sign split goes into the shared table
	// at the same stage.
	p.Tables = append(p.Tables, pisa.TableDecl{
		Name: n("ovf_op"), Stage: ovfStage, Kind: pisa.MatchExact, Key: []string{"op"},
		Actions: []pisa.ActionDecl{
			{Name: "ovf_add", Stateful: &pisa.StatefulOp{
				Register: n("ovf_reg"), IndexField: "idx", InField: n("ovf"),
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.UMaxIn,
				Output: pisa.OutNew, OutputField: n("ovf"),
			}},
			{Name: "ovf_read", Stateful: &pisa.StatefulOp{
				Register: n("ovf_reg"), IndexField: "idx",
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.UKeepOld,
				Output: pisa.OutOld, OutputField: n("ovf"),
			}},
			{Name: "ovf_reset", Stateful: &pisa.StatefulOp{
				Register: n("ovf_reg"), IndexField: "idx",
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.UZero,
				Output: pisa.OutOld, OutputField: n("ovf"),
			}},
			{Name: "ovf_set", Stateful: &pisa.StatefulOp{
				Register: n("ovf_reg"), IndexField: "idx", InField: n("ovf"),
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.USetIn,
				Output: pisa.OutNew, OutputField: n("ovf"),
			}},
		},
		Entries: opEntries("ovf"),
	})
	sh.signSplit = append(sh.signSplit,
		pisa.Instr{Op: pisa.OpLtS, Dst: n("sign_out"), A: pisa.F(n("m_raw")), B: pisa.Imm(0)},
		pisa.Instr{Op: pisa.OpSub, Dst: n("negm"), A: pisa.Imm(0), B: pisa.F(n("m_raw"))},
		pisa.Instr{Op: pisa.OpEq, Dst: n("iszero"), A: pisa.F(n("m_raw")), B: pisa.Imm(0)},
	)

	// Magnitude and assembly bases.
	p.Tables = append(p.Tables, always("magnitude", umagStage, false,
		pisa.Instr{Op: pisa.OpCsel, Dst: n("u_mag"), A: pisa.F(n("negm")), B: pisa.F(n("m_raw")), Pred: n("sign_out")},
		pisa.Instr{Op: pisa.OpShl, Dst: n("sgn31"), A: pisa.F(n("sign_out")), B: pisa.Imm(31)},
		pisa.Instr{Op: pisa.OpShl, Dst: n("e_cur23"), A: pisa.F(n("e_cur")), B: pisa.Imm(uint32(manBits))},
	))

	// Egress: renormalize (Fig. 5 LPM tables) and assemble. Egress tables
	// overlap VLIW-light physical stages: the 31-action shift table shares
	// the mantissa-stateful stage, whose own VLIW usage is zero — this is
	// how the whole program stays within 10 physical stages. The assemble
	// instructions go into shared cross-module tables.
	addRenormalize(p, n, varShift, manBits, manStage)
	sh.base = append(sh.base,
		pisa.Instr{Op: pisa.OpAdd, Dst: n("sbase"), A: pisa.F(n("sgn31")), B: pisa.F(n("e_cur23"))})
	sh.sum = append(sh.sum,
		pisa.Instr{Op: pisa.OpAdd, Dst: n("v0"), A: pisa.F(n("sadj")), B: pisa.F(n("m_norm"))})
	sh.out = append(sh.out,
		pisa.Instr{Op: pisa.OpCsel, Dst: n("v"), A: pisa.Imm(0), B: pisa.F(n("v0")), Pred: n("iszero")})
	return nil
}

// addAlignment emits the metadata-mantissa alignment. Without VariableShift
// the variable-distance shifts are expanded into per-distance table actions
// (the Appendix B VLIW pressure that limits the base architecture to one
// module); with it, two instructions suffice.
func addAlignment(p *pisa.Program, n func(string) string, full, varShift bool, manBits, H int) error {
	if varShift {
		instrs5 := []pisa.Instr{
			{Op: pisa.OpShrA, Dst: n("m_shr"), A: pisa.F(n("m_in")), B: pisa.F(n("rsd"))},
		}
		if full {
			// Stored-larger path passes the incoming mantissa unshifted.
			p.Tables = append(p.Tables, pisa.TableDecl{
				Name: n("align"), Stage: 5, Kind: pisa.MatchAlways,
				Actions: []pisa.ActionDecl{{Name: "run", Instrs: instrs5}},
				Default: "run",
			})
			p.Tables = append(p.Tables, pisa.TableDecl{
				Name: n("align_sel"), Stage: 6, Kind: pisa.MatchAlways,
				Actions: []pisa.ActionDecl{{Name: "run", Instrs: []pisa.Instr{
					{Op: pisa.OpCsel, Dst: n("m_sh"), A: pisa.F(n("m_shr")), B: pisa.F(n("m_in")), Pred: n("right")},
				}}},
				Default: "run",
			})
			return nil
		}
		instrs5 = append(instrs5, pisa.Instr{
			Op: pisa.OpShl, Dst: n("m_shl"), A: pisa.F(n("m_in")), B: pisa.F(n("d")),
		})
		p.Tables = append(p.Tables, pisa.TableDecl{
			Name: n("align"), Stage: 5, Kind: pisa.MatchAlways,
			Actions: []pisa.ActionDecl{{Name: "run", Instrs: instrs5}},
			Default: "run",
		})
		p.Tables = append(p.Tables, pisa.TableDecl{
			Name: n("align_sel"), Stage: 6, Kind: pisa.MatchAlways,
			Actions: []pisa.ActionDecl{{Name: "run", Instrs: []pisa.Instr{
				{Op: pisa.OpCsel, Dst: n("m_sh0"), A: pisa.F(n("m_shr")), B: pisa.F(n("m_shl")), Pred: n("right")},
			}}},
			Default: "run",
		})
		p.Tables = append(p.Tables, pisa.TableDecl{
			Name: n("align_ovw"), Stage: 7, Kind: pisa.MatchAlways,
			Actions: []pisa.ActionDecl{{Name: "run", Instrs: []pisa.Instr{
				{Op: pisa.OpCsel, Dst: n("m_sh"), A: pisa.F(n("m_in")), B: pisa.F(n("m_sh0")), Pred: n("ovw")},
			}}},
			Default: "run",
		})
		return nil
	}
	if full {
		return fmt.Errorf("core: full FPISA without VariableShift is not expressible")
	}

	// Base architecture: ternary tables with one action per distance,
	// keyed on (right, ovw, distance). The left table keys on d (positive
	// in its matching region); the right table keys on rsd = -d.
	// Left path (incoming larger, within headroom) + overwrite pass.
	left := pisa.TableDecl{
		Name: n("align_left"), Stage: 5, Kind: pisa.MatchTernary,
		Key: []string{n("right"), n("ovw"), n("d")},
	}
	left.Actions = append(left.Actions, pisa.ActionDecl{
		Name:   "pass_ovw",
		Instrs: []pisa.Instr{{Op: pisa.OpMov, Dst: n("m_sh"), A: pisa.F(n("m_in"))}},
	})
	left.Entries = append(left.Entries, pisa.EntryDecl{
		// right=0, ovw=1, any distance.
		Value: 0x00010000, Mask: 0xFFFF0000, Priority: 100, Action: "pass_ovw",
	})
	for k := 1; k <= H; k++ {
		name := fmt.Sprintf("shl_%d", k)
		left.Actions = append(left.Actions, pisa.ActionDecl{
			Name:   name,
			Instrs: []pisa.Instr{{Op: pisa.OpShl, Dst: n("m_sh"), A: pisa.F(n("m_in")), B: pisa.Imm(uint32(k))}},
		})
		left.Entries = append(left.Entries, pisa.EntryDecl{
			Value: uint64(k), Mask: 0xFFFFFFFF, Priority: 10, Action: name,
		})
	}
	p.Tables = append(p.Tables, left)

	// Right path (stored no smaller): arithmetic shifts with saturation —
	// beyond the mantissa width the two's-complement shift floor (-1/0)
	// is the round-toward--inf result.
	right := pisa.TableDecl{
		Name: n("align_right"), Stage: 6, Kind: pisa.MatchTernary,
		Key: []string{n("right"), n("ovw"), n("rsd")},
	}
	right.Actions = append(right.Actions, pisa.ActionDecl{
		Name:   "pass_r",
		Instrs: []pisa.Instr{{Op: pisa.OpMov, Dst: n("m_sh"), A: pisa.F(n("m_in"))}},
	})
	right.Entries = append(right.Entries, pisa.EntryDecl{
		Value: 0x01000000, Mask: 0xFFFFFFFF, Priority: 10, Action: "pass_r", // dist 0
	})
	for k := 1; k <= manBits; k++ {
		name := fmt.Sprintf("shr_%d", k)
		right.Actions = append(right.Actions, pisa.ActionDecl{
			Name:   name,
			Instrs: []pisa.Instr{{Op: pisa.OpShrA, Dst: n("m_sh"), A: pisa.F(n("m_in")), B: pisa.Imm(uint32(k))}},
		})
		right.Entries = append(right.Entries, pisa.EntryDecl{
			Value: 0x01000000 | uint64(k), Mask: 0xFFFFFFFF, Priority: 10, Action: name,
		})
	}
	right.Actions = append(right.Actions, pisa.ActionDecl{
		Name:   "shr_sat",
		Instrs: []pisa.Instr{{Op: pisa.OpShrA, Dst: n("m_sh"), A: pisa.F(n("m_in")), B: pisa.Imm(31)}},
	})
	right.Entries = append(right.Entries, pisa.EntryDecl{
		Value: 0x01000000, Mask: 0xFF000000, Priority: 1, Action: "shr_sat", // right, any larger dist
	})
	p.Tables = append(p.Tables, right)
	return nil
}

// addMantissaStateful emits the accumulation stage: FPISA-A's predicated
// add/overwrite, or full FPISA's read-shift-add-write.
func addMantissaStateful(p *pisa.Program, n func(string) string, full bool, manStage int) {
	var addOp pisa.StatefulOp
	if full {
		addOp = pisa.StatefulOp{
			Register: n("man_reg"), IndexField: "idx", InField: n("m_sh"),
			ShiftField: n("dshift"),
			Cond:       pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.URsawAddIn,
			Signed: true, Output: pisa.OutNew, OutputField: n("m_raw"),
			OverflowField: n("ovf"),
		}
	} else {
		addOp = pisa.StatefulOp{
			Register: n("man_reg"), IndexField: "idx", InField: n("m_sh"),
			Cond: pisa.SaluCond{Kind: pisa.CondPhv, Field: n("ovw"), Cmp: pisa.CmpNe},
			True: pisa.USetIn, False: pisa.UAddIn,
			Signed: true, Output: pisa.OutNew, OutputField: n("m_raw"),
			OverflowField: n("ovf"),
		}
	}
	p.Tables = append(p.Tables, pisa.TableDecl{
		Name: n("man_op"), Stage: manStage, Kind: pisa.MatchExact, Key: []string{"op"},
		Actions: []pisa.ActionDecl{
			{Name: "man_add", Stateful: &addOp},
			{Name: "man_read", Stateful: &pisa.StatefulOp{
				Register: n("man_reg"), IndexField: "idx",
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.UKeepOld,
				Output: pisa.OutOld, OutputField: n("m_raw"),
			}},
			{Name: "man_reset", Stateful: &pisa.StatefulOp{
				Register: n("man_reg"), IndexField: "idx",
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.UZero,
				Output: pisa.OutOld, OutputField: n("m_raw"),
			}},
			// Adding the aligned mantissa to a zeroed register, in either
			// mode, stores it unchanged and cannot overflow.
			{Name: "man_set", Stateful: &pisa.StatefulOp{
				Register: n("man_reg"), IndexField: "idx", InField: n("m_sh"),
				Cond: pisa.SaluCond{Kind: pisa.CondAlways}, True: pisa.USetIn,
				Signed: true, Output: pisa.OutNew, OutputField: n("m_raw"),
				OverflowField: n("ovf"),
			}},
		},
		Entries: opEntries("man"),
	})
}

// addRenormalize emits the egress leading-one location and shift (Fig. 5)
// plus the action-data exponent adjustment. Positions 0..30 are covered (a
// magnitude of 2^31 only arises after a flagged overflow).
func addRenormalize(p *pisa.Program, n func(string) string, varShift bool, manBits, manStage int) {
	renormM := pisa.TableDecl{
		Name: n("renorm_m"), Stage: manStage, Egress: true, Kind: pisa.MatchLPM,
		Key: []string{n("u_mag")},
	}
	renormE := pisa.TableDecl{
		Name: n("renorm_e"), Stage: 1, Egress: true, Kind: pisa.MatchLPM,
		Key: []string{n("u_mag")},
	}
	renormE.Actions = append(renormE.Actions, pisa.ActionDecl{
		Name:   "adj",
		Instrs: []pisa.Instr{{Op: pisa.OpAdd, Dst: n("sadj"), A: pisa.F(n("sbase")), B: pisa.P(0)}},
	})

	if varShift {
		// With 2-operand shifts two actions suffice; the distance is
		// action data.
		renormM.Actions = append(renormM.Actions,
			pisa.ActionDecl{Name: "mshr", Instrs: []pisa.Instr{
				{Op: pisa.OpShrL, Dst: n("m_norm"), A: pisa.F(n("u_mag")), B: pisa.P(0)},
			}},
			pisa.ActionDecl{Name: "mshl", Instrs: []pisa.Instr{
				{Op: pisa.OpShl, Dst: n("m_norm"), A: pisa.F(n("u_mag")), B: pisa.P(0)},
			}},
		)
	}

	for pos := 0; pos <= 30; pos++ {
		shift := pos - manBits
		prefix := uint64(1) << uint(pos)
		plen := 32 - pos
		entryM := pisa.EntryDecl{Value: prefix, PrefixLen: plen}
		if varShift {
			if shift >= 0 {
				entryM.Action = "mshr"
				entryM.Params = []uint32{uint32(shift)}
			} else {
				entryM.Action = "mshl"
				entryM.Params = []uint32{uint32(-shift)}
			}
		} else {
			var name string
			var instr pisa.Instr
			switch {
			case shift > 0:
				name = fmt.Sprintf("nshr_%d", shift)
				instr = pisa.Instr{Op: pisa.OpShrL, Dst: n("m_norm"), A: pisa.F(n("u_mag")), B: pisa.Imm(uint32(shift))}
			case shift < 0:
				name = fmt.Sprintf("nshl_%d", -shift)
				instr = pisa.Instr{Op: pisa.OpShl, Dst: n("m_norm"), A: pisa.F(n("u_mag")), B: pisa.Imm(uint32(-shift))}
			default:
				name = "npass"
				instr = pisa.Instr{Op: pisa.OpMov, Dst: n("m_norm"), A: pisa.F(n("u_mag"))}
			}
			if !slices.ContainsFunc(renormM.Actions, func(a pisa.ActionDecl) bool { return a.Name == name }) {
				renormM.Actions = append(renormM.Actions, pisa.ActionDecl{Name: name, Instrs: []pisa.Instr{instr}})
			}
			entryM.Action = name
		}
		renormM.Entries = append(renormM.Entries, entryM)

		// Exponent adjustment: v = sbase + ((shift-1)<<manBits) + m_norm,
		// where m_norm's implied bit at manBits supplies the missing
		// +1<<manBits.
		renormE.Entries = append(renormE.Entries, pisa.EntryDecl{
			Value: prefix, PrefixLen: plen, Action: "adj",
			Params: []uint32{uint32(int32(shift-1) << uint(manBits))},
		})
	}
	p.Tables = append(p.Tables, renormM, renormE)
}
