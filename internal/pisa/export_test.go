package pisa

// ParseField parses pkt into the switch's PHV as ProcessScratch does and
// returns the named field's value and the parser's error.
func (s *Switch) ParseField(pkt []byte, name string) (uint32, error) {
	clear(s.phv.vals)
	err := s.parse(pkt)
	id, ferr := s.c.ft.lookup(name)
	if ferr != nil {
		panic(ferr)
	}
	return s.phv.get(id), err
}
