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

// Builtin PHV fields available to every program. They are written by the
// architecture (parser/TM) or control forwarding behaviour.
const (
	// FieldDrop, when non-zero at the end of ingress, drops the packet.
	FieldDrop = "_drop"
	// FieldEgressPort selects the output port.
	FieldEgressPort = "_egress_port"
	// FieldMcastGroup, when non-zero, replicates the packet to the traffic
	// manager multicast group of that ID.
	FieldMcastGroup = "_mcast_group"
	// FieldIngressPort is set by the architecture to the arrival port.
	FieldIngressPort = "_ingress_port"
	// FieldRecirc, when non-zero at the end of egress, re-injects the
	// packet into the ingress pipeline (costly and bandwidth-limited on
	// real hardware; the simulator caps iterations).
	FieldRecirc = "_recirc"
)

// builtinFields are registered first, in this order, so their fieldIDs are
// the compile-time constants below — the executor never looks them up by
// name.
var builtinFields = []FieldDecl{
	fidDrop:        {Name: FieldDrop, Width: 8},
	fidEgressPort:  {Name: FieldEgressPort, Width: 16},
	fidMcastGroup:  {Name: FieldMcastGroup, Width: 16},
	fidIngressPort: {Name: FieldIngressPort, Width: 16},
	fidRecirc:      {Name: FieldRecirc, Width: 8},
}

// fieldID indexes into a Phv value slice.
type fieldID int32

const (
	fidDrop fieldID = iota
	fidEgressPort
	fidMcastGroup
	fidIngressPort
	fidRecirc
)

// fieldTable maps names to IDs and carries widths; built at compile time.
type fieldTable struct {
	byName map[string]fieldID
	decls  []FieldDecl
	masks  []uint32 // widthMask(decls[id].Width), precomputed for Phv.set
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

// Phv is one packet's header vector: the container values indexed by
// fieldID. Values are stored masked to their declared width.
type Phv struct {
	vals []uint32
	ft   *fieldTable
}

func newPhv(ft *fieldTable) Phv {
	return Phv{vals: make([]uint32, len(ft.decls)), ft: ft}
}

func (p *Phv) get(id fieldID) uint32 { return p.vals[id] }

func (p *Phv) set(id fieldID, v uint32) {
	p.vals[id] = v & p.ft.masks[id]
}

// writeSet holds the PHV writes the executor may not apply yet, in write
// order: an action's instruction results whose destination the action's own
// stateful op still has to read at its stage-entry value (see plan). They
// commit when the op has run, so a set never outgrows one action's
// instruction count; the backing array grows to that over a replica's first
// packets and is reused from then on.
type writeSet []phvWrite

type phvWrite struct {
	id  fieldID
	val uint32
}

func (w *writeSet) put(id fieldID, v uint32) { *w = append(*w, phvWrite{id, v}) }

// commit applies the pending writes to p and empties the set.
func (w *writeSet) commit(p *Phv) {
	for _, wr := range *w {
		p.set(wr.id, wr.val)
	}
	*w = (*w)[:0]
}
