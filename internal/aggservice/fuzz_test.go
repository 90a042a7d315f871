package aggservice

import (
	"bytes"
	"errors"
	"testing"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// FuzzDecodeStatsReply fuzzes the stats codec the satellite fix hardened:
// it must never panic on truncated or oversized replies, identify
// truncation with ErrTruncated, and round-trip every accepted reply.
func FuzzDecodeStatsReply(f *testing.F) {
	valid := encodeStatsReply(3, JobStats{
		Phase: PhaseAdmitted, Weight: 4,
		Profile: core.NumericProfile{Format: core.FormatBF16, Guard: 2, Rounding: core.RoundingRNE},
		Class:   AdmitClass{Class: ClassQuery, TopN: 10, Groups: 1024},
		Adds:    1, Retransmits: 2, Completions: 3,
		SchedDefers: 9, Outstanding: 5, CacheHits: 6, CacheBytes: 7,
		Coalesced: 8,
	})
	f.Add(valid)
	f.Add(valid[:10])                                                                     // truncated counters
	f.Add(valid[:statsReplyBytes-5])                                                      // the pre-class width
	f.Add(valid[:4+1+2+3+7*8])                                                            // the pre-coalesced width
	f.Add(valid[:4+1+2+7*8])                                                              // the pre-profile width
	f.Add(valid[:4+1+6*8])                                                                // the pre-scheduler width
	f.Add(append(append([]byte(nil), valid...), 0xaa))                                    // trailing byte
	f.Add([]byte{WireVersion, MsgStatsReply})                                             // header only
	f.Add([]byte{MsgResult, 0, 0, 0})                                                     // no version octet
	f.Add(append([]byte(nil), valid[:4]...))                                              // fields missing entirely
	f.Add(func() []byte { p := append([]byte(nil), valid...); p[4] = 9; return p }())     // bad phase
	f.Add(func() []byte { p := append([]byte(nil), valid...); p[7] = 0xEE; return p }())  // junk format octet: carried, not clamped
	f.Add(func() []byte { p := append([]byte(nil), valid...); p[10] = 0xEE; return p }()) // junk class octet: carried, not clamped
	f.Add(encodeStatsReply(0, JobStats{Weight: MaxWeight, SchedDefers: 1 << 40}))         // extreme scheduler fields
	f.Add(encodeStatsReply(1, JobStats{Class: AdmitClass{Class: ClassTelemetry, Groups: 16}}))

	f.Fuzz(func(t *testing.T, pkt []byte) {
		job, st, err := DecodeStatsReply(pkt)
		if err != nil {
			if len(pkt) >= 2 && pkt[0] == WireVersion && pkt[1] == MsgStatsReply &&
				len(pkt) < statsReplyBytes && !errors.Is(err, ErrTruncated) {
				t.Fatalf("short reply error %v does not wrap ErrTruncated", err)
			}
			return
		}
		if len(pkt) != statsReplyBytes {
			t.Fatalf("accepted a %d-byte reply", len(pkt))
		}
		if re := encodeStatsReply(job, st); !bytes.Equal(re, pkt) {
			t.Fatalf("re-encode mismatch:\n got %v\nwant %v", re, pkt)
		}
	})
}

// FuzzDecodeJobAck fuzzes the lifecycle ack codec with the same
// invariants: no panics, truncation identified, accepted acks round-trip.
// The ack was widened three times — for the scheduler weight, the echoed
// numeric profile, then the echoed workload class — so the seeds cover
// every prior (now truncated) layout alongside the current one.
func FuzzDecodeJobAck(f *testing.F) {
	rne := core.NumericProfile{Format: core.FormatF16, Guard: 3, Rounding: core.RoundingRNE}
	f.Add(EncodeJobAck(JobAck{Job: 1, Status: AckAdmitted, JobSpec: JobSpec{Weight: 1}}))
	f.Add(EncodeJobAck(JobAck{Job: 65535, Status: AckErrDisabled, Epoch: 255, JobSpec: JobSpec{Weight: MaxWeight, Profile: rne}}))
	f.Add(EncodeJobAck(JobAck{Job: 7, Status: AckBackpressure, Epoch: 3, JobSpec: JobSpec{Weight: 4, Profile: core.NumericProfile{Format: core.FormatBF16}}}))
	f.Add(EncodeJobAck(JobAck{Job: 2, Status: AckErrBadProfile, JobSpec: JobSpec{Weight: 1, Profile: core.NumericProfile{Format: 0xFF, Guard: 0xFF, Rounding: 0xFF}}})) // junk octets: carried, not clamped
	f.Add(EncodeJobAck(JobAck{Job: 3, Status: AckAdmitted, Epoch: 1, JobSpec: JobSpec{Weight: 2, Profile: rne, Class: AdmitClass{Class: ClassQuery, TopN: 10, Groups: 1024}}}))
	f.Add(EncodeJobAck(JobAck{Job: 4, Status: AckAdmitted, JobSpec: JobSpec{Weight: 1, Profile: rne, Class: AdmitClass{Class: ClassTelemetry, Groups: 16}}}))
	f.Add(EncodeJobAck(JobAck{Job: 5, Status: AckErrBadClass, JobSpec: JobSpec{Weight: 1, Profile: rne, Class: AdmitClass{Class: 0xEE, TopN: 65535, Groups: 65535}}})) // junk class: carried, refused later
	f.Add(EncodeJobAck(JobAck{Job: 0, Status: AckEvicted, Epoch: 1, JobSpec: JobSpec{}})[:3])
	f.Add(EncodeJobAck(JobAck{Job: 0, Status: AckAdmitted, JobSpec: JobSpec{Weight: 9}})[:6])  // the pre-weight 6-byte layout
	f.Add(EncodeJobAck(JobAck{Job: 0, Status: AckAdmitted, JobSpec: JobSpec{Weight: 9}})[:8])  // the pre-profile 8-byte layout
	f.Add(EncodeJobAck(JobAck{Job: 0, Status: AckAdmitted, JobSpec: JobSpec{Weight: 9}})[:11]) // the pre-class 11-byte layout
	f.Add(append(EncodeJobAck(JobAck{Job: 0, Status: AckDraining, Epoch: 2, JobSpec: JobSpec{Weight: 1, Profile: rne}}), 1, 2))
	f.Add([]byte{WireVersion, MsgJobAck, 0, 0, 200, 0, 0, 0, 0, 0, 0}) // status out of range
	f.Add([]byte{MsgAdd, 0, 0, 0, 0})                                  // no version octet

	f.Fuzz(func(t *testing.T, pkt []byte) {
		ack, err := DecodeJobAck(pkt)
		if err != nil {
			if len(pkt) >= 2 && pkt[0] == WireVersion && pkt[1] == MsgJobAck &&
				len(pkt) < jobAckBytes && !errors.Is(err, ErrTruncated) {
				t.Fatalf("short ack error %v does not wrap ErrTruncated", err)
			}
			return
		}
		if re := EncodeJobAck(ack); !bytes.Equal(re, pkt) {
			t.Fatalf("re-encode mismatch:\n got %v\nwant %v", re, pkt)
		}
		if ack.Status.Err() == nil && ack.Status != AckAdmitted && ack.Status != AckEvicting {
			t.Fatalf("status %v decoded but maps to no error and no success", ack.Status)
		}
	})
}

// FuzzDecodeJobAdmit fuzzes the profile-carrying admit codec: no panics,
// truncation identified as ErrTruncated, every accepted frame round-trips
// byte for byte (the decoder must NOT clamp or validate — that is the
// admission path's job, or the round trip would lie about what rode the
// wire; an invalid profile must survive decoding so the switch can refuse
// it with AckErrBadProfile).
func FuzzDecodeJobAdmit(f *testing.F) {
	f.Add(EncodeJobAdmit(JobAdmit{Job: 0, JobSpec: JobSpec{Weight: 1}}))
	f.Add(EncodeJobAdmit(JobAdmit{Job: 1, JobSpec: JobSpec{Weight: 4}}))
	f.Add(EncodeJobAdmit(JobAdmit{Job: 65535, JobSpec: JobSpec{Weight: MaxWeight, Profile: core.NumericProfile{Format: core.FormatBF16, Guard: 4, Rounding: core.RoundingRNE}}}))
	f.Add(EncodeJobAdmit(JobAdmit{Job: 5, JobSpec: JobSpec{Weight: 1, Profile: core.NumericProfile{Format: core.FormatF16}}}))
	f.Add(EncodeJobAdmit(JobAdmit{Job: 6, JobSpec: JobSpec{Weight: 1, Profile: core.NumericProfile{Format: 0x7F, Guard: 0xFF, Rounding: 9}}})) // invalid: carried, refused later
	f.Add(EncodeJobAdmit(JobAdmit{Job: 7, JobSpec: JobSpec{Weight: 2, Class: AdmitClass{Class: ClassQuery, TopN: 10, Groups: 1024}}}))
	f.Add(EncodeJobAdmit(JobAdmit{Job: 8, JobSpec: JobSpec{Weight: 1, Class: AdmitClass{Class: ClassTelemetry, Groups: 16}}}))
	f.Add(EncodeJobAdmit(JobAdmit{Job: 9, JobSpec: JobSpec{Weight: 1, Class: AdmitClass{Class: 0xEE, TopN: 65535, Groups: 65535}}})) // junk class: carried, refused later
	f.Add(EncodeJobAdmit(JobAdmit{Job: 2, JobSpec: JobSpec{}}))                                                                      // weight 0: carried, clamped later
	f.Add(EncodeJobAdmit(JobAdmit{Job: 3, JobSpec: JobSpec{Weight: 1}})[:4])                                                         // the old weightless layout
	f.Add(EncodeJobAdmit(JobAdmit{Job: 3, JobSpec: JobSpec{Weight: 1}})[:6])                                                         // the pre-profile layout
	f.Add(EncodeJobAdmit(JobAdmit{Job: 3, JobSpec: JobSpec{Weight: 1}})[:9])                                                         // the pre-class layout
	f.Add(EncodeJobAdmit(JobAdmit{Job: 0, JobSpec: JobSpec{Weight: 1}})[:1])                                                         // short v2
	f.Add(append(EncodeJobAdmit(JobAdmit{Job: 0, JobSpec: JobSpec{Weight: 1}}), 7))                                                  // trailing byte
	f.Add(EncodeJobEvict(1))                                                                                                         // wrong type
	f.Add([]byte{MsgAdd, 0, 0, 0})                                                                                                   // no version octet

	f.Fuzz(func(t *testing.T, pkt []byte) {
		adm, err := DecodeJobAdmit(pkt)
		if err != nil {
			if len(pkt) >= 2 && pkt[0] == WireVersion && pkt[1] == MsgJobAdmit &&
				len(pkt) < jobAdmitBytes && !errors.Is(err, ErrTruncated) {
				t.Fatalf("short admit error %v does not wrap ErrTruncated", err)
			}
			return
		}
		if len(pkt) != jobAdmitBytes {
			t.Fatalf("accepted a %d-byte admit", len(pkt))
		}
		if re := EncodeJobAdmit(adm); !bytes.Equal(re, pkt) {
			t.Fatalf("re-encode mismatch:\n got %v\nwant %v", re, pkt)
		}
	})
}

// FuzzDecodeTuples fuzzes the switch's tuple-batch decoder (decodeTuples):
// no panics on arbitrary input, header-level truncation identified as
// ErrTruncated, a count that disagrees with the packet length rejected, and
// every accepted batch re-encodes byte for byte (the op octet is carried
// as-is — the switch, not the decoder, validates it against the job's class).
func FuzzDecodeTuples(f *testing.F) {
	for _, seed := range tupleSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, pkt []byte) {
		job, seq, epoch, op, keys, vals, err := decodeTuples(pkt)
		if err != nil {
			if len(pkt) >= 2 && pkt[0] == WireVersion && pkt[1] == MsgTuple &&
				len(pkt) < tupleHdrBytes && !errors.Is(err, ErrTruncated) {
				t.Fatalf("short tuple batch error %v does not wrap ErrTruncated", err)
			}
			return
		}
		if len(keys) < 1 || len(keys) != len(vals) {
			t.Fatalf("accepted batch with %d keys, %d vals", len(keys), len(vals))
		}
		if len(pkt) != tupleHdrBytes+8*len(keys) {
			t.Fatalf("accepted a %d-byte batch for %d rows", len(pkt), len(keys))
		}
		if re := EncodeTuples(job, seq, epoch, op, keys, vals); !bytes.Equal(re, pkt) {
			t.Fatalf("re-encode mismatch:\n got %v\nwant %v", re, pkt)
		}
	})
}

// decodeTuples reads a TUPLE datagram through the switch's own parsers —
// admit's header decode, then handleTuple's data header and row view — and
// copies the rows out for comparison with what was encoded.
func decodeTuples(pkt []byte) (job int, seq uint32, epoch uint8, op TupleOp, keys []uint32, vals []float32, err error) {
	typ, _, err := decodeHeader(pkt)
	if err == nil && typ != MsgTuple {
		err = errMsgType
	}
	if err == nil {
		job, seq, epoch, err = decodeDataHeader(pkt)
	}
	var tv tupleView
	if err == nil {
		tv, err = decodeTupleView(pkt)
	}
	if err != nil {
		return 0, 0, 0, 0, nil, nil, err
	}
	keys = make([]uint32, tv.count())
	vals = make([]float32, tv.count())
	for i := range keys {
		keys[i], vals[i] = tv.row(i)
	}
	return job, seq, epoch, tv.op, keys, vals, nil
}

// tupleSeeds is FuzzDecodeTuples' seed corpus.
func tupleSeeds() [][]byte {
	valid := EncodeTuples(1, 7, 2, OpQueryAgg, []uint32{3, 3, 9}, []float32{1.5, -2, 0.25})
	return [][]byte{
		valid,
		EncodeTuples(0, 0, 0, OpQueryTopN, []uint32{0xFFFFFFFF}, []float32{float32(1e38)}),
		EncodeTuples(65535, 0xFFFFFFFF, 255, OpTelemetry, []uint32{1, 2}, []float32{64, 1500}),
		EncodeTuples(2, 1, 0, TupleOp(0xEE), []uint32{5}, []float32{1}), // junk op: carried, refused later
		valid[:len(valid)-3],                        // truncated final row
		valid[:tupleHdrBytes-1],                     // truncated header
		valid[:tupleHdrBytes],                       // header only, count 3, no rows
		append(append([]byte(nil), valid...), 0xcc), // trailing byte
		func() []byte { // count 0
			p := append([]byte(nil), valid...)
			p[hdrBytes+2] = 0
			p[hdrBytes+3] = 0
			return p
		}(),
		{WireVersion, MsgTuple}, // short v2
		{MsgAdd, 0, 0, 0},       // no version octet
	}
}

// FuzzHandleBatch fuzzes the switch's ingress itself, not a codec beside it:
// data is a vector of datagrams ({len(1) bytes}·n), fed from one worker port
// and then from the observer frame into a switch serving a training and a
// query tenant, with the control plane on and two vacant ids to admit into.
// Whatever arrives, HandleBatch must not panic, must leave the job gauges
// consistent, and must count at most one reject per datagram (silent drops —
// stale and duplicate ADDs — are legal).
func FuzzHandleBatch(f *testing.F) {
	frame := func(pkts ...[]byte) []byte {
		var data []byte
		for _, p := range pkts {
			data = append(append(data, byte(len(p))), p...)
		}
		return data
	}
	// Seeds: every golden datagram, each of its truncations, and each with
	// its type, job, epoch and count octet perturbed.
	for port, tc := range goldenCases() {
		pkt := tc.packet()
		if len(pkt) > 255 {
			f.Fatalf("golden %s does not fit a one-byte length", tc.name)
		}
		f.Add(byte(port), frame(pkt))
		for cut := range pkt {
			f.Add(byte(port), frame(pkt[:cut]))
		}
		for _, off := range []int{1, 3, hdrBytes, tupleHdrBytes - 1} {
			for _, v := range []byte{0, 1, 2, 3, 5, 6, 9, 11, 13} {
				if off < len(pkt) {
					p := append([]byte(nil), pkt...)
					p[off] = v
					f.Add(byte(port), frame(p))
				}
			}
		}
	}
	// One well-formed session per tenant, as a multi-datagram vector.
	f.Add(byte(0), frame(
		EncodeAddProfile(0, 0, 0, core.DefaultProfile, []float32{1, 2}),
		EncodeAddProfile(0, 1, 0, core.DefaultProfile, []float32{3, 4}),
		EncodeStatsReq(0)))
	f.Add(byte(2), frame(
		EncodeTuples(1, 0, 0, OpQueryAgg, []uint32{3, 9}, []float32{1.5, -2}),
		EncodeTuples(1, 1, 0, OpQueryTopN, []uint32{4}, []float32{8}),
		EncodeDrain(1, DrainGroups, DrainFlagResetPrune, 7),
		EncodeJobEvict(1),
		EncodeJobAdmit(JobAdmit{Job: 2, JobSpec: JobSpec{Weight: 2}})))

	// Pool 3: the chunk clock's span (2³²−4) is not the 32-bit field's.
	cfg := Config{
		Workers: 2, Pool: 3, Modules: 2, Shards: 2, Jobs: 2, Capacity: 4, Dynamic: true,
		Classes: []AdmitClass{{}, {Class: ClassQuery, TopN: 10, Groups: 64}},
		Mode:    core.ModeApprox, Arch: pisa.ExtendedArch(), // two modules, like the golden ADDs
	}
	// Chunk ids at the span boundary, each bound, repeated and followed by
	// the chunk after the wrap that shares span−1's slot: span−1 is the last
	// chunk of the clock, span and 2³²−1 are malformed.
	add := func(chunk int64) []byte {
		return EncodeAddProfile(0, uint32(chunk), 0, core.DefaultProfile, []float32{1, 2})
	}
	for _, chunk := range []int64{cfg.span() - 1, cfg.span(), 1<<32 - 1} {
		f.Add(byte(0), frame(add(chunk), add(chunk), add(5)))
		f.Add(byte(1), frame(add(5), add(chunk)))
	}
	f.Fuzz(func(t *testing.T, port byte, data []byte) {
		var pkts [][]byte
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			pkts = append(pkts, data[1:1+n])
			data = data[1+n:]
		}
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sw.Close()
		for _, worker := range []int{int(port) % cfg.Ports(), transport.ObserverWorker} {
			before := rejectTotal(sw.Rejects())
			var dl transport.DeliveryList
			sw.HandleBatch(worker, pkts, &dl)
			if got := rejectTotal(sw.Rejects()) - before; got > uint64(len(pkts)) {
				t.Fatalf("port %d: %d datagrams counted %d rejects", worker, len(pkts), got)
			}
			auditSwitch(t, "after the vector", sw)
			auditChunkClock(t, sw)
		}
	})
}

// FuzzDecodeTupleAck fuzzes the survivor-bitmap ack codec: no panics,
// header truncation identified, nonzero padding bits past the row count
// rejected (so every accepted ack re-encodes byte for byte).
func FuzzDecodeTupleAck(f *testing.F) {
	mk := tupleAckOf
	valid := mk(1, 9, []bool{true, false, true, true, false, true, false, false, true})
	f.Add(valid)
	f.Add(mk(0, 0, []bool{false}))
	f.Add(mk(65535, 0xFFFFFFFF, make([]bool, 64)))
	f.Add(valid[:len(valid)-1])                        // truncated bitmap
	f.Add(valid[:tupleAckHdrBytes-1])                  // truncated header
	f.Add(append(append([]byte(nil), valid...), 0x01)) // trailing byte
	f.Add(func() []byte {                              // nonzero padding past the count
		p := mk(2, 3, []bool{true, true, false})
		p[len(p)-1] |= 0xF0
		return p
	}())
	f.Add(func() []byte { // count 0
		p := append([]byte(nil), valid...)
		p[hdrBytes] = 0
		p[hdrBytes+1] = 0
		return p
	}())
	f.Add([]byte{WireVersion, MsgTupleAck}) // short v2
	f.Add([]byte{MsgResult, 0, 0, 0})       // no version octet

	f.Fuzz(func(t *testing.T, pkt []byte) {
		job, seq, survivors, err := DecodeTupleAck(pkt)
		if err != nil {
			if len(pkt) >= 2 && pkt[0] == WireVersion && pkt[1] == MsgTupleAck &&
				len(pkt) < tupleAckHdrBytes && !errors.Is(err, ErrTruncated) {
				t.Fatalf("short tuple ack error %v does not wrap ErrTruncated", err)
			}
			return
		}
		if len(survivors) < 1 {
			t.Fatal("accepted an ack with no rows")
		}
		re := tupleAckOf(job, seq, survivors)
		if !bytes.Equal(re, pkt) {
			t.Fatalf("re-encode mismatch:\n got %v\nwant %v", re, pkt)
		}
	})
}

// FuzzDecodeDrainReply fuzzes the observer harvest codec: no panics,
// header truncation identified, an unknown kind octet rejected, and every
// accepted reply re-encodes byte for byte.
func FuzzDecodeDrainReply(f *testing.F) {
	valid := encodeDrainReply(1, DrainGroups, []DrainEntry{{Key: 3, Val: 15}, {Key: 9, Val: -2.5}})
	f.Add(valid)
	f.Add(encodeDrainReply(0, DrainHeavyHitters, []DrainEntry{{Key: 0x10000001, Val: 600000}}))
	f.Add(encodeDrainReply(65535, DrainHistogram, nil)) // empty harvest is a valid reply
	f.Add(valid[:len(valid)-5])                         // truncated final entry
	f.Add(valid[:drainReplyHdrBytes-1])                 // truncated header
	f.Add(append(append([]byte(nil), valid...), 0xdd))  // trailing byte
	f.Add(func() []byte {                               // unknown kind octet
		p := append([]byte(nil), valid...)
		p[4] = 9
		return p
	}())
	f.Add(func() []byte { // count overstates entries
		p := append([]byte(nil), valid...)
		p[6] = 0xFF
		return p
	}())
	f.Add([]byte{WireVersion, MsgDrainReply}) // short v2
	f.Add([]byte{MsgResult, 0, 0, 0})         // no version octet

	f.Fuzz(func(t *testing.T, pkt []byte) {
		job, kind, entries, err := DecodeDrainReply(pkt)
		if err != nil {
			if len(pkt) >= 2 && pkt[0] == WireVersion && pkt[1] == MsgDrainReply &&
				len(pkt) < drainReplyHdrBytes && !errors.Is(err, ErrTruncated) {
				t.Fatalf("short drain reply error %v does not wrap ErrTruncated", err)
			}
			return
		}
		if len(pkt) != drainReplyHdrBytes+8*len(entries) {
			t.Fatalf("accepted a %d-byte reply for %d entries", len(pkt), len(entries))
		}
		if re := encodeDrainReply(job, kind, entries); !bytes.Equal(re, pkt) {
			t.Fatalf("re-encode mismatch:\n got %v\nwant %v", re, pkt)
		}
	})
}

// FuzzDecodeResultRun fuzzes the PR 7 run-length RESULT codec — the only
// v2 message that was shipped without a fuzz target. Same invariants as
// the rest of the suite: no panics on arbitrary input, header-level
// truncation identified as ErrTruncated, and every accepted run
// re-encodes byte for byte through encodeResultRun. The profile selector
// byte steers decoding across the negotiated wire formats, since the item
// stride (and so every bound) depends on the value width.
func FuzzDecodeResultRun(f *testing.F) {
	profiles := []core.NumericProfile{
		core.DefaultProfile,
		{Format: core.FormatF16, Guard: 3, Rounding: core.RoundingRNE},
		{Format: core.FormatBF16, Guard: 2, Rounding: core.RoundingRNE},
	}
	const modules = 3
	item := func(prof core.NumericProfile, job int, chunk uint32, vals []float32, ovf bool) []byte {
		w := prof.ValueBytes()
		pkt := make([]byte, resultBytes(len(vals), prof))
		putHeader(pkt, MsgResult, job, chunk)
		for i, v := range vals {
			prof.PutValue(pkt[hdrBytes+w*i:], v)
		}
		if ovf {
			pkt[hdrBytes+w*len(vals)] = 1
		}
		return pkt
	}
	for sel, prof := range profiles {
		one := encodeResultRun(7, 42, [][]byte{
			item(prof, 7, 42, []float32{1, -2, 0.5}, false),
		})
		three := encodeResultRun(9, 100, [][]byte{
			item(prof, 9, 100, []float32{1, 2, 3}, false),
			item(prof, 9, 101, []float32{-1, -2, -3}, true),
			item(prof, 9, 102, []float32{0, 0, 0}, false),
		})
		f.Add(byte(sel), one)
		f.Add(byte(sel), three)
		f.Add(byte(sel), three[:len(three)-2])                      // truncated final item
		f.Add(byte(sel), append(append([]byte(nil), one...), 0xbb)) // trailing byte
		f.Add(byte(sel), one[:runHdrBytes-1])                       // truncated header
		f.Add(byte(sel), one[:runHdrBytes])                         // header only, count 1, no items
		f.Add(byte(sel), func() []byte {                            // count 0
			p := append([]byte(nil), one...)
			p[hdrBytes] = 0
			p[hdrBytes+1] = 0
			return p
		}())
		f.Add(byte(sel), func() []byte { // count overstates items
			p := append([]byte(nil), three...)
			p[hdrBytes+1] = 0xff
			return p
		}())
	}
	f.Add(byte(0), []byte{WireVersion, MsgResult, 0, 0}) // wrong type
	f.Add(byte(0), []byte{MsgResult, 0, 0, 0})           // no version octet
	f.Add(byte(0), []byte{WireVersion})                  // short v2

	f.Fuzz(func(t *testing.T, sel byte, pkt []byte) {
		prof := profiles[int(sel)%len(profiles)]
		job, start, vals, ovfs, err := DecodeResultRun(pkt, modules, prof)
		if err != nil {
			if len(pkt) >= 2 && pkt[0] == WireVersion && pkt[1] == MsgResultRun &&
				len(pkt) < runHdrBytes && !errors.Is(err, ErrTruncated) {
				t.Fatalf("short run error %v does not wrap ErrTruncated", err)
			}
			return
		}
		if len(vals) < 1 || len(vals) != len(ovfs) {
			t.Fatalf("accepted run with %d value rows, %d overflow flags", len(vals), len(ovfs))
		}
		stride := prof.ValueBytes()*modules + 1
		if len(pkt) != runHdrBytes+len(vals)*stride {
			t.Fatalf("accepted a %d-byte run for %d items", len(pkt), len(vals))
		}
		items := make([][]byte, len(vals))
		for i := range vals {
			items[i] = item(prof, job, start+uint32(i), vals[i], ovfs[i])
		}
		// The overflow octet is a wire boolean: any nonzero byte decodes
		// as true and canonically re-encodes as 1, so compare against the
		// canonicalized packet. NaN payload bits are not preserved by the
		// 16-bit widen/narrow pair, so runs carrying NaNs are checked
		// semantically (decode∘encode is identity) instead of byte-exactly.
		hasNaN := false
		for _, vs := range vals {
			for _, v := range vs {
				if v != v {
					hasNaN = true
				}
			}
		}
		re := encodeResultRun(job, start, items)
		if !hasNaN {
			canon := append([]byte(nil), pkt...)
			for i := range vals {
				if off := runHdrBytes + (i+1)*stride - 1; canon[off] != 0 {
					canon[off] = 1
				}
			}
			if !bytes.Equal(re, canon) {
				t.Fatalf("re-encode mismatch:\n got %v\nwant %v", re, canon)
			}
			return
		}
		job2, start2, vals2, ovfs2, err := DecodeResultRun(re, modules, prof)
		if err != nil || job2 != job || start2 != start || len(vals2) != len(vals) {
			t.Fatalf("NaN run re-decode: job %d→%d start %d→%d err %v", job, job2, start, start2, err)
		}
		for i := range vals {
			if ovfs2[i] != ovfs[i] {
				t.Fatalf("NaN run re-decode: item %d overflow %v→%v", i, ovfs[i], ovfs2[i])
			}
			for m := range vals[i] {
				a, b := vals[i][m], vals2[i][m]
				if a != b && !(a != a && b != b) {
					t.Fatalf("NaN run re-decode: item %d module %d %v→%v", i, m, a, b)
				}
			}
		}
	})
}
