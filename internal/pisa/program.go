package pisa

import (
	"fmt"
	"slices"

	"fpisa/internal/tcam"
)

// ExtractDecl tells the parser to extract a big-endian packet byte range
// into a PHV field. The deparser writes the field back on emission exactly
// when some table writes it; the bytes of an extract no table writes leave
// as they arrived.
type ExtractDecl struct {
	// Field names the destination PHV field.
	Field string
	// Offset is the byte offset within the packet.
	Offset int
	// Bytes is the extracted width: 1, 2 or 4; it must match the field's
	// container width.
	Bytes int
}

// BitExtractDecl tells the parser to extract an arbitrary bit range into a
// PHV field, the way P4 headers declare sub-byte fields (an FP32 header
// splits into 1/8/23-bit fields at parse time). Bit extracts are read-only:
// the deparser never writes them back — modified values must be assembled
// into a byte-aligned field.
type BitExtractDecl struct {
	// Field names the destination PHV field.
	Field string
	// BitOffset is the offset from the start of the packet, in bits,
	// counting the MSB of byte 0 as bit 0 (network bit order).
	BitOffset int
	// Bits is the extracted width, 1..32; it must fit the container.
	Bits int
}

// Program is a complete data-plane program: fields, register state, parser
// layout and match-action tables for both pipelines.
type Program struct {
	Name       string
	Fields     []FieldDecl
	Registers  []RegisterDecl
	Parser     []ExtractDecl
	ParserBits []BitExtractDecl
	Tables     []TableDecl
}

type cExtract struct {
	field  fieldID
	offset int
	bytes  int
}

type cBitExtract struct {
	field     fieldID
	bitOffset int
	bits      int
	// The big-endian window parse reads the field through when the packet
	// holds parseLen bytes: 4 bytes from win, or 8 when wide, shifted right
	// by shift and masked to bits.
	win   int
	wide  bool
	shift uint8
	mask  uint32
}

// compiled is the fully resolved program. It is immutable after compile —
// all runtime state (register arrays and switch counters) lives in the
// Switch, so many pipeline replicas can share one compiled program
// (Switch.Replicate).
type compiled struct {
	arch       Arch
	ft         *fieldTable
	regDecls   []RegisterDecl // declaration order; index = regID
	regIDs     map[string]int
	parser     []cExtract
	parserBits []cBitExtract
	// deparser is the byte extracts some table writes, in parser order:
	// what the deparser writes back (deriveWritebacks).
	deparser []cExtract
	// parseLen is the packet length from which parse checks no extract
	// against the packet: the program's extract extent (layoutParser).
	parseLen int
	ingress  [][]*cTable // indexed by stage; built during checkDependencies
	egress   [][]*cTable
	declared []*cTable // declaration order, both gresses
	nInstrs  int       // instructions over every action (cAction.instr0)
	// What the executor runs (plan.go): a packet's parsed dispatch field
	// picks its pass, passOf[value] indexing emit and absorb. Without a
	// dispatch field every packet takes pass 0.
	dispatch     fieldID
	passOf       [256]uint8
	emit, absorb []pass
	// The PHV slots past the fields that plans read operands from: action
	// data from paramBase, one matched-row slot per declared table from
	// rowBase (rowBase + cTable.idx), and from constBase the immediates,
	// consts, which every switch's PHV holds from newInstance on.
	paramBase, rowBase, constBase int
	consts                        []uint32
	util                          Utilization
}

// compile resolves and validates the program against the architecture.
func compile(prog Program, arch Arch) (*compiled, error) {
	if arch.IngressStages <= 0 || arch.EgressStages <= 0 {
		return nil, fmt.Errorf("pisa: arch must have positive stage counts")
	}
	ft, err := newFieldTable(prog.Fields)
	if err != nil {
		return nil, err
	}
	c := &compiled{
		arch:    arch,
		ft:      ft,
		regIDs:  make(map[string]int),
		ingress: make([][]*cTable, arch.IngressStages),
		egress:  make([][]*cTable, arch.EgressStages),
	}

	if err := c.compileRegisters(prog.Registers); err != nil {
		return nil, err
	}
	if err := c.compileParser(prog.Parser); err != nil {
		return nil, err
	}
	if err := c.compileParserBits(prog.ParserBits); err != nil {
		return nil, err
	}
	c.layoutParser()
	if err := c.compileTables(prog.Tables); err != nil {
		return nil, err
	}
	if err := c.deriveWritebacks(); err != nil {
		return nil, err
	}
	if err := c.checkDependencies(); err != nil {
		return nil, err
	}
	c.lowerPasses()
	if err := c.accountResources(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *compiled) compileRegisters(decls []RegisterDecl) error {
	for _, d := range decls {
		if d.Name == "" {
			return fmt.Errorf("pisa: register with empty name")
		}
		if _, dup := c.regIDs[d.Name]; dup {
			return fmt.Errorf("pisa: duplicate register %q", d.Name)
		}
		if d.Width != 8 && d.Width != 16 && d.Width != 32 {
			return fmt.Errorf("pisa: register %q: width %d not in {8,16,32}", d.Name, d.Width)
		}
		if d.Size <= 0 {
			return fmt.Errorf("pisa: register %q: size %d", d.Name, d.Size)
		}
		c.regIDs[d.Name] = len(c.regDecls)
		c.regDecls = append(c.regDecls, d)
	}
	return nil
}

// newRegisterBank instantiates fresh (zeroed) runtime storage for the
// program's register declarations — one bank per pipeline replica. The
// arrays and their elements come out of one allocation each, so stamping a
// replica costs the same few allocations however many registers the
// program declares.
func (c *compiled) newRegisterBank() []*registerArray {
	total := 0
	for _, d := range c.regDecls {
		total += d.Size
	}
	vals := make([]uint32, total)
	arrays := make([]registerArray, len(c.regDecls))
	bank := make([]*registerArray, len(c.regDecls))
	for i, d := range c.regDecls {
		arrays[i] = registerArray{decl: d, vals: vals[:d.Size:d.Size]}
		vals = vals[d.Size:]
		bank[i] = &arrays[i]
	}
	return bank
}

func (c *compiled) compileParser(decls []ExtractDecl) error {
	for _, d := range decls {
		id, err := c.ft.lookup(d.Field)
		if err != nil {
			return fmt.Errorf("pisa: parser: %w", err)
		}
		if d.Bytes != 1 && d.Bytes != 2 && d.Bytes != 4 {
			return fmt.Errorf("pisa: parser: field %q: %d bytes not in {1,2,4}", d.Field, d.Bytes)
		}
		if d.Bytes*8 != c.ft.width(id) {
			return fmt.Errorf("pisa: parser: field %q: %d bytes does not fill %d-bit container",
				d.Field, d.Bytes, c.ft.width(id))
		}
		if d.Offset < 0 {
			return fmt.Errorf("pisa: parser: field %q: negative offset", d.Field)
		}
		c.parser = append(c.parser, cExtract{field: id, offset: d.Offset, bytes: d.Bytes})
	}
	return nil
}

// deriveWritebacks fills deparser with the byte extracts whose field some
// table writes and refuses two of them over one byte, whose writebacks
// would race. Extracts no table writes may overlap anything: their bytes
// leave as they came.
func (c *compiled) deriveWritebacks() error {
	written := c.writtenFields()
	for _, e := range c.parser {
		if !written[e.field] {
			continue
		}
		for _, o := range c.deparser {
			if e.offset < o.offset+o.bytes && o.offset < e.offset+e.bytes {
				return fmt.Errorf("pisa: parser: field %q: writeback range overlaps field %q's", c.ft.name(e.field), c.ft.name(o.field))
			}
		}
		c.deparser = append(c.deparser, e)
	}
	return nil
}

// writtenFields reports, per field, whether an instruction or a stateful
// output of some table writes it.
func (c *compiled) writtenFields() []bool {
	written := make([]bool, len(c.ft.decls))
	for _, t := range c.declared {
		for _, a := range t.actions {
			for i := range a.instrs {
				written[a.instrs[i].dst] = true
			}
			if op := a.stateful; op != nil {
				if op.output != OutNone {
					written[op.outField] = true
				}
				if op.hasOvField {
					written[op.ovField] = true
				}
			}
		}
	}
	return written
}

func (c *compiled) compileParserBits(decls []BitExtractDecl) error {
	for _, d := range decls {
		id, err := c.ft.lookup(d.Field)
		if err != nil {
			return fmt.Errorf("pisa: parser bits: %w", err)
		}
		if d.Bits < 1 || d.Bits > 32 {
			return fmt.Errorf("pisa: parser bits: field %q: width %d not in 1..32", d.Field, d.Bits)
		}
		if d.Bits > c.ft.width(id) {
			return fmt.Errorf("pisa: parser bits: field %q: %d bits exceed the %d-bit container", d.Field, d.Bits, c.ft.width(id))
		}
		if d.BitOffset < 0 {
			return fmt.Errorf("pisa: parser bits: field %q: negative bit offset", d.Field)
		}
		c.parserBits = append(c.parserBits, cBitExtract{field: id, bitOffset: d.BitOffset, bits: d.Bits})
	}
	return nil
}

// layoutParser sets parseLen to the extract extent — the end of the last
// byte any extract reads — and places each bit field's window: 4 bytes from
// its first byte, 8 when it straddles more than 4, pulled back to end at the
// extent where it would run past it. So every FPISA packet, the last
// module's fields included, is parsed with one length check. Only a program
// whose extent is shorter than a window has a parseLen past it: a packet of
// the extent's length is then parsed on the checked path.
func (c *compiled) layoutParser() {
	for _, e := range c.parser {
		c.parseLen = max(c.parseLen, e.offset+e.bytes)
	}
	for _, e := range c.parserBits {
		c.parseLen = max(c.parseLen, (e.bitOffset+e.bits+7)/8)
	}
	extent := c.parseLen
	for i := range c.parserBits {
		e := &c.parserBits[i]
		first, end := e.bitOffset/8, (e.bitOffset+e.bits+7)/8
		size := 4
		if end-first > size {
			size, e.wide = 8, true
		}
		e.win = max(0, min(first, extent-size))
		e.shift = uint8((e.win+size)*8 - e.bitOffset - e.bits)
		e.mask = widthMask(e.bits)
		c.parseLen = max(c.parseLen, e.win+size)
	}
}

func (c *compiled) compileTables(decls []TableDecl) error {
	names := make(map[string]bool)
	for ti := range decls {
		t, err := c.compileTable(&decls[ti])
		if err != nil {
			return err
		}
		if names[t.decl.Name] {
			return fmt.Errorf("pisa: duplicate table %q", t.decl.Name)
		}
		names[t.decl.Name] = true
		t.idx = len(c.declared)
		c.declared = append(c.declared, t)
	}
	return nil
}

func (c *compiled) compileTable(d *TableDecl) (*cTable, error) {
	if d.Name == "" {
		return nil, fmt.Errorf("pisa: table with empty name")
	}
	t := &cTable{decl: *d, actions: make([]*cAction, 0, len(d.Actions))}

	// Keys.
	switch d.Kind {
	case MatchAlways:
		if len(d.Key) != 0 {
			return nil, fmt.Errorf("pisa: table %q: always-tables take no key", d.Name)
		}
	case MatchExact, MatchTernary:
		if len(d.Key) == 0 {
			return nil, fmt.Errorf("pisa: table %q: %v match needs at least one key field", d.Name, d.Kind)
		}
	case MatchLPM:
		if len(d.Key) != 1 {
			return nil, fmt.Errorf("pisa: table %q: %v match needs exactly one key field", d.Name, d.Kind)
		}
	default:
		return nil, fmt.Errorf("pisa: table %q: unknown match kind %d", d.Name, d.Kind)
	}
	for _, k := range d.Key {
		id, err := c.ft.lookup(k)
		if err != nil {
			return nil, fmt.Errorf("pisa: table %q key: %w", d.Name, err)
		}
		t.key = append(t.key, keyField{id: id})
		t.keyBits += c.ft.width(id)
	}
	if t.keyBits > 64 {
		return nil, fmt.Errorf("pisa: table %q: key wider than 64 bits unsupported by simulator", d.Name)
	}
	for i, shift := 0, t.keyBits; i < len(t.key); i++ {
		shift -= c.ft.width(t.key[i].id)
		t.key[i].shift = uint8(shift)
	}

	// Actions.
	for ai := range d.Actions {
		a, err := c.compileAction(d, &d.Actions[ai])
		if err != nil {
			return nil, err
		}
		if t.action(a.name) != nil {
			return nil, fmt.Errorf("pisa: table %q: duplicate action %q", d.Name, a.name)
		}
		a.idx, a.instr0 = len(t.actions), c.nInstrs
		c.nInstrs += len(a.instrs)
		t.actions = append(t.actions, a)
	}
	if d.Default != "" {
		a := t.action(d.Default)
		if a == nil {
			return nil, fmt.Errorf("pisa: table %q: unknown default action %q", d.Name, d.Default)
		}
		t.default_ = a
	}
	if d.Kind == MatchAlways && t.default_ == nil {
		return nil, fmt.Errorf("pisa: table %q: always-table needs a default action", d.Name)
	}

	// The default action runs on misses, where no entry supplies action
	// data.
	if t.default_ != nil && t.default_.nParams > 0 {
		return nil, fmt.Errorf("pisa: table %q: default action %q uses action data but misses carry none", d.Name, t.default_.name)
	}

	// Entries.
	switch d.Kind {
	case MatchTernary:
		tt, err := tcam.New[uint32](t.keyBits)
		if err != nil {
			return nil, fmt.Errorf("pisa: table %q: %w", d.Name, err)
		}
		t.ternary = tt
	case MatchLPM:
		l, err := tcam.NewLPM[uint32](t.keyBits)
		if err != nil {
			return nil, fmt.Errorf("pisa: table %q: %w", d.Name, err)
		}
		t.lpm = l
	}
	t.rows = make([]cHit, 0, len(d.Entries))
	for _, e := range d.Entries {
		a := t.action(e.Action)
		if a == nil {
			return nil, fmt.Errorf("pisa: table %q: entry references unknown action %q", d.Name, e.Action)
		}
		if len(e.Params) < a.nParams {
			return nil, fmt.Errorf("pisa: table %q: entry %#x supplies %d params but action %q needs %d",
				d.Name, e.Value, len(e.Params), a.name, a.nParams)
		}
		h := cHit{action: a, params: append([]uint32(nil), e.Params...)}
		switch d.Kind {
		case MatchAlways:
			return nil, fmt.Errorf("pisa: table %q: always-tables take no entries", d.Name)
		case MatchExact:
			i, dup := slices.BinarySearch(t.exactKeys, e.Value)
			if dup {
				return nil, fmt.Errorf("pisa: table %q: duplicate exact entry %#x", d.Name, e.Value)
			}
			t.exactKeys = slices.Insert(t.exactKeys, i, e.Value)
			t.rows = slices.Insert(t.rows, i, h)
		case MatchTernary:
			t.ternary.Insert(tcam.Entry[uint32]{Value: e.Value, Mask: e.Mask, Priority: e.Priority, Action: uint32(len(t.rows))})
			t.rows = append(t.rows, h)
		case MatchLPM:
			if err := t.lpm.Insert(e.Value, e.PrefixLen, uint32(len(t.rows))); err != nil {
				return nil, fmt.Errorf("pisa: table %q: %w", d.Name, err)
			}
			t.rows = append(t.rows, h)
		}
	}

	if d.Kind == MatchExact && t.keyBits <= denseKeyBits {
		t.dense = make([]uint16, 1<<t.keyBits)
		for i, k := range t.exactKeys {
			if k < uint64(len(t.dense)) { // a wider value can never match
				t.dense[k] = uint16(i + 1)
			}
		}
	}

	// Stage assignment happens in checkDependencies (needs writer info);
	// record the declared stage for now.
	t.stage = d.Stage
	max := c.arch.IngressStages
	if d.Egress {
		max = c.arch.EgressStages
	}
	if d.Stage != -1 && (d.Stage < 0 || d.Stage >= max) {
		return nil, fmt.Errorf("pisa: table %q: stage %d out of range 0..%d", d.Name, d.Stage, max-1)
	}
	return t, nil
}

func (c *compiled) compileAction(td *TableDecl, ad *ActionDecl) (*cAction, error) {
	if ad.Name == "" {
		return nil, fmt.Errorf("pisa: table %q: action with empty name", td.Name)
	}
	a := &cAction{name: ad.Name}
	written := make(map[fieldID]bool)

	resolveOperand := func(o Operand) (cOperand, error) {
		switch {
		case o.Field != "":
			id, err := c.ft.lookup(o.Field)
			if err != nil {
				return cOperand{}, err
			}
			return cOperand{kind: srcField, field: id}, nil
		case o.IsParam:
			if o.ParamIdx < 0 {
				return cOperand{}, fmt.Errorf("negative param index %d", o.ParamIdx)
			}
			if o.ParamIdx+1 > a.nParams {
				a.nParams = o.ParamIdx + 1
			}
			return cOperand{kind: srcParam, param: o.ParamIdx}, nil
		default:
			return cOperand{kind: srcImm, imm: o.Imm}, nil
		}
	}

	for _, in := range ad.Instrs {
		if in.Op < OpMov || in.Op > OpCsel {
			return nil, fmt.Errorf("pisa: table %q action %q: unknown opcode %v", td.Name, ad.Name, in.Op)
		}
		ci := cInstr{op: in.Op}
		id, err := c.ft.lookup(in.Dst)
		if err != nil {
			return nil, fmt.Errorf("pisa: table %q action %q: dst: %w", td.Name, ad.Name, err)
		}
		ci.dst, ci.dstWidth = id, c.ft.width(id)
		if written[id] {
			return nil, fmt.Errorf("pisa: table %q action %q: field %q written twice; hardware allows one write per container per stage (use csel)",
				td.Name, ad.Name, in.Dst)
		}
		written[id] = true

		ci.a, err = resolveOperand(in.A)
		if err != nil {
			return nil, fmt.Errorf("pisa: table %q action %q: operand A: %w", td.Name, ad.Name, err)
		}
		ci.b, err = resolveOperand(in.B)
		if err != nil {
			return nil, fmt.Errorf("pisa: table %q action %q: operand B: %w", td.Name, ad.Name, err)
		}
		if (in.Op == OpShl || in.Op == OpShrL || in.Op == OpShrA) &&
			ci.b.kind != srcImm && !c.arch.Features.VariableShift {
			return nil, fmt.Errorf("pisa: table %q action %q: %v distance must be a compile-time immediate on this architecture; field or action-data distances require the VariableShift extension (§4.2) — expand into per-distance match entries instead",
				td.Name, ad.Name, in.Op)
		}
		if in.Pred != "" {
			pid, err := c.ft.lookup(in.Pred)
			if err != nil {
				return nil, fmt.Errorf("pisa: table %q action %q: pred: %w", td.Name, ad.Name, err)
			}
			ci.pred, ci.hasPred, ci.predNeg = pid, true, in.PredNeg
		} else if in.Op == OpCsel {
			return nil, fmt.Errorf("pisa: table %q action %q: csel needs a Pred field", td.Name, ad.Name)
		}
		a.instrs = append(a.instrs, ci)
	}

	// Intra-action RAW check: instructions run in parallel against the
	// stage-entry PHV, so an instruction reading a field that a *different*
	// instruction writes would silently see the stale value — reject it.
	// Reading one's own destination (e.g. val = val + 1) is fine: the ALU
	// reads operands and writes the result, like any hardware ALU.
	var buf [4]fieldID
	for i := range a.instrs {
		for _, read := range a.instrs[i].appendReads(buf[:0]) {
			for j, cj := range a.instrs {
				if i != j && cj.dst == read {
					return nil, fmt.Errorf("pisa: table %q action %q: instruction %d reads field %q that instruction %d writes; VLIW instructions execute in parallel — split across stages",
						td.Name, ad.Name, i, c.ft.name(read), j)
				}
			}
		}
	}

	if ad.Stateful != nil {
		op, err := c.compileStateful(td, ad, ad.Stateful, written)
		if err != nil {
			return nil, err
		}
		// The op runs after the action's instructions but, like them, against
		// the stage-entry PHV: a field they write would reach it rewritten.
		for _, ci := range a.instrs {
			if slices.Contains(op.appendReads(buf[:0]), ci.dst) {
				return nil, fmt.Errorf("pisa: table %q action %q: stateful op reads field %q that an instruction of its action writes; VLIW instructions and the stateful op execute in parallel — split across stages",
					td.Name, ad.Name, c.ft.name(ci.dst))
			}
		}
		a.stateful = op
	}
	return a, nil
}

func (c *compiled) compileStateful(td *TableDecl, ad *ActionDecl, s *StatefulOp, written map[fieldID]bool) (*cStatefulOp, error) {
	regID, ok := c.regIDs[s.Register]
	if !ok {
		return nil, fmt.Errorf("pisa: table %q action %q: unknown register %q", td.Name, ad.Name, s.Register)
	}
	op := &cStatefulOp{regID: regID, cond: s.Cond, true_: s.True, false_: s.False,
		signed: s.Signed, output: s.Output}

	if s.True == URsawAddIn || s.False == URsawAddIn {
		if !c.arch.Features.RSAW {
			return nil, fmt.Errorf("pisa: table %q action %q: read-shift-add-write requires the RSAW extension (§4.2); on the base architecture use FPISA-A",
				td.Name, ad.Name)
		}
		if s.ShiftField == "" {
			return nil, fmt.Errorf("pisa: table %q action %q: RSAW update needs ShiftField", td.Name, ad.Name)
		}
	}

	var err error
	if op.index, err = c.ft.lookup(s.IndexField); err != nil {
		return nil, fmt.Errorf("pisa: table %q action %q: IndexField: %w", td.Name, ad.Name, err)
	}
	if s.InField != "" {
		if op.in, err = c.ft.lookup(s.InField); err != nil {
			return nil, fmt.Errorf("pisa: table %q action %q: InField: %w", td.Name, ad.Name, err)
		}
		op.hasIn = true
	}
	if s.ShiftField != "" {
		if op.shift, err = c.ft.lookup(s.ShiftField); err != nil {
			return nil, fmt.Errorf("pisa: table %q action %q: ShiftField: %w", td.Name, ad.Name, err)
		}
		op.hasShift = true
	}
	if s.Cond.Kind == CondPhv {
		if op.condField, err = c.ft.lookup(s.Cond.Field); err != nil {
			return nil, fmt.Errorf("pisa: table %q action %q: Cond.Field: %w", td.Name, ad.Name, err)
		}
	}
	if s.Output != OutNone {
		if s.OutputField == "" {
			return nil, fmt.Errorf("pisa: table %q action %q: stateful output needs OutputField", td.Name, ad.Name)
		}
		if op.outField, err = c.ft.lookup(s.OutputField); err != nil {
			return nil, fmt.Errorf("pisa: table %q action %q: OutputField: %w", td.Name, ad.Name, err)
		}
		if written[op.outField] {
			return nil, fmt.Errorf("pisa: table %q action %q: OutputField %q also written by a VLIW instruction", td.Name, ad.Name, s.OutputField)
		}
		written[op.outField] = true
	}
	if s.OverflowField != "" {
		if op.ovField, err = c.ft.lookup(s.OverflowField); err != nil {
			return nil, fmt.Errorf("pisa: table %q action %q: OverflowField: %w", td.Name, ad.Name, err)
		}
		if written[op.ovField] {
			return nil, fmt.Errorf("pisa: table %q action %q: OverflowField %q also written elsewhere", td.Name, ad.Name, s.OverflowField)
		}
		written[op.ovField] = true
		op.hasOvField = true
	}
	return op, nil
}
