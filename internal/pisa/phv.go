package pisa

import "fmt"

// FieldDecl declares a packet header vector (PHV) field: a named container
// the parser fills and MAU actions read and write.
type FieldDecl struct {
	// Name identifies the field in instructions and table keys.
	Name string
	// Width is the container width in bits: 8, 16 or 32.
	Width int
}

// Builtin PHV fields available to every program, written by the
// architecture or read by it to forward the packet.
const (
	// FieldEgressPort selects the output port: the packet leaves on the
	// port it holds at the end of ingress.
	FieldEgressPort = "_egress_port"
	// FieldIngressPort is set by the architecture to the arrival port.
	FieldIngressPort = "_ingress_port"
)

// builtinFields are registered first, in this order, so their fieldIDs are
// the compile-time constants below — the executor never looks them up by
// name.
var builtinFields = []FieldDecl{
	fidEgressPort:  {Name: FieldEgressPort, Width: 16},
	fidIngressPort: {Name: FieldIngressPort, Width: 16},
}

// fieldID indexes into a phv's values.
type fieldID int32

const (
	fidEgressPort fieldID = iota
	fidIngressPort
)

// fieldTable maps names to IDs and carries widths; built at compile time.
type fieldTable struct {
	byName map[string]fieldID
	decls  []FieldDecl
	masks  []uint32 // widthMask(decls[id].Width), precomputed for phv.set
}

func newFieldTable(userFields []FieldDecl) (*fieldTable, error) {
	ft := &fieldTable{byName: make(map[string]fieldID)}
	add := func(d FieldDecl) error {
		if d.Name == "" {
			return fmt.Errorf("pisa: empty field name")
		}
		if d.Width != 8 && d.Width != 16 && d.Width != 32 {
			return fmt.Errorf("pisa: field %q: width %d not in {8,16,32}", d.Name, d.Width)
		}
		if _, dup := ft.byName[d.Name]; dup {
			return fmt.Errorf("pisa: duplicate field %q", d.Name)
		}
		ft.byName[d.Name] = fieldID(len(ft.decls))
		ft.decls = append(ft.decls, d)
		ft.masks = append(ft.masks, widthMask(d.Width))
		return nil
	}
	for _, d := range builtinFields {
		if err := add(d); err != nil {
			return nil, err
		}
	}
	for _, d := range userFields {
		if err := add(d); err != nil {
			return nil, err
		}
	}
	return ft, nil
}

func (ft *fieldTable) lookup(name string) (fieldID, error) {
	id, ok := ft.byName[name]
	if !ok {
		return 0, fmt.Errorf("pisa: unknown field %q", name)
	}
	return id, nil
}

func (ft *fieldTable) width(id fieldID) int { return ft.decls[id].Width }

func (ft *fieldTable) name(id fieldID) string { return ft.decls[id].Name }

func widthMask(width int) uint32 {
	if width >= 32 {
		return ^uint32(0)
	}
	return 1<<width - 1
}

// phv is one packet's header vector: the container values indexed by
// fieldID, stored masked to their declared width.
type phv struct {
	vals []uint32
	ft   *fieldTable
}

func (p *phv) get(id fieldID) uint32 { return p.vals[id] }

func (p *phv) set(id fieldID, v uint32) {
	p.vals[id] = v & p.ft.masks[id]
}

// signed returns the field's value sign-extended from its container width.
func (p *phv) signed(id fieldID) int32 { return signExtend(p.vals[id], p.ft.width(id)) }

// signExtend widens a value held in the low width bits to int32.
func signExtend(v uint32, width int) int32 {
	sx := 32 - width
	return int32(v<<sx) >> sx
}
