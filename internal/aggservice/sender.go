package aggservice

import (
	"fmt"
	"slices"

	"fpisa/internal/core"
)

// addSender is the one ADD sender, a Worker's and a tree leaf's uplink's:
// the owed set, a ring of 2·Pool entries keyed by chunk mod 2·Pool (the
// chunk's slot), and the retry budget, which the final of an owed chunk or
// an own-epoch AckBackpressure refills and nothing else. It calls no
// fabric, reads no clock and takes no lock: the caller serialises the steps,
// says when a receive timed out, and owns the vector each step appends the
// frames to send to (doc.go, "Buffer ownership").
type addSender struct {
	job     int // the downlink filter and decoding, fixed at reset
	epoch   uint8
	prof    core.NumericProfile
	modules int
	span    int64 // the chunk clock's period
	retries int

	ring   []owedAdd
	owed   int // owed entries of ring
	stalls int // consecutive timeouts with ADDs owed
}

// owedAdd is the ADD last offered for chunk; owed until chunk's final.
type owedAdd struct {
	chunk uint32
	owed  bool
	ovf   bool // the offerer's own overflow bit (a leaf's local sum), ORed into the final's
	pkt   []byte
}

// reset readies s for a new stream: nothing owed, a full budget of retries.
func (s *addSender) reset(job int, epoch uint8, prof core.NumericProfile, modules, pool int, span int64, retries int) {
	ring := slices.Grow(s.ring[:0], 2*pool)[:2*pool]
	clear(ring)
	*s = addSender{job: job, epoch: epoch, prof: prof, modules: modules, span: span, retries: retries, ring: ring}
}

// offer records pkt, chunk's ADD, as owed and appends it to dst. The caller
// must not rewrite pkt while the sender holds it: until chunk's final or the
// next offer of its slot.
func (s *addSender) offer(dst [][]byte, chunk uint32, pkt []byte, ovf bool) [][]byte {
	e := &s.ring[chunk%uint32(len(s.ring))]
	if !e.owed {
		s.owed++
	}
	*e = owedAdd{chunk: chunk, owed: true, ovf: ovf, pkt: pkt}
	return append(dst, pkt)
}

// onDownlink takes one received vector. The final of an owed chunk (a RESULT
// or RESULT RUN item) pays the debt, refills the budget and goes to final,
// which may offer, with the offer's overflow bit ORed in; other finals are
// ignored. Own-epoch AckBackpressure notices refill the budget, are counted
// and resend nothing; an own-epoch AckEvicted or AckDraining returns
// ErrJobEvicted at once.
func (s *addSender) onDownlink(msgs [][]byte, final func(chunk uint32, vals []byte, ovf bool)) (backpressure int, err error) {
	take := func(chunk uint32, vals []byte, ovf bool) {
		e := &s.ring[chunk%uint32(len(s.ring))]
		if !e.owed || e.chunk != chunk {
			return
		}
		e.owed, e.pkt = false, nil
		s.owed--
		s.stalls = 0
		final(chunk, vals, ovf || e.ovf)
	}
	for _, msg := range msgs {
		switch notice, ok := readDownlink(msg, s.job, s.epoch, s.prof, s.modules, take); {
		case !ok:
		case notice == AckEvicted || notice == AckDraining:
			return backpressure, ErrJobEvicted
		case notice == AckBackpressure:
			backpressure++
			s.stalls = 0
		}
	}
	return backpressure, nil
}

// onTimeout is a retransmit round: it appends every owed ADD to dst, oldest
// chunk first. With nothing owed it appends nothing and counts no stall;
// the round after retries consecutive ones returns the give-up error.
func (s *addSender) onTimeout(dst [][]byte) ([][]byte, error) {
	if s.owed == 0 {
		s.stalls = 0
		return dst, nil
	}
	if s.stalls++; s.stalls > s.retries {
		return dst, fmt.Errorf("gave up after %d stalls", s.stalls)
	}
	start := len(dst)
	for i := range s.ring {
		if e := &s.ring[i]; e.owed {
			dst = append(dst, e.pkt)
		}
	}
	// The ring's order breaks at its wrap and behind a slot line left behind.
	owed := dst[start:]
	for i := 1; i < len(owed); i++ {
		for j := i; j > 0 && s.older(owed[j], owed[j-1]); j-- {
			owed[j], owed[j-1] = owed[j-1], owed[j]
		}
	}
	return dst, nil
}

// older reports whether ADD a's chunk precedes b's on the chunk clock — by
// less than half the span, as a slot compares chunks.
func (s *addSender) older(a, b []byte) bool {
	_, ca, _, _ := decodeDataHeader(a)
	_, cb, _, _ := decodeDataHeader(b)
	d := ahead(cb, int64(ca), s.span)
	return d != 0 && 2*d < s.span
}
