package aggservice

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"fpisa/internal/core"
)

// TestWireGolden pins every message's bytes. The hex literals were printed
// by the encoders of the commit BEFORE the codecs collapsed to one per
// message, so "no wire-format change" is checked here, not promised: each
// encoder must reproduce its golden exactly, and each decoder must read the
// golden back to the values that produced it.
func TestWireGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got := hex.EncodeToString(tc.encoded); got != tc.golden {
				t.Fatalf("encoder drifted from the golden bytes:\n got %s\nwant %s", got, tc.golden)
			}
			got, want, err := tc.decode(tc.packet())
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %+v, want %+v", got, want)
			}
		})
	}
}

// goldenCase is one message's golden bytes, what its encoder produces today
// and its decoder reading the golden back.
type goldenCase struct {
	name, golden string
	encoded      []byte
	decode       func(pkt []byte) (got, want any, err error)
}

// packet returns the golden datagram.
func (tc goldenCase) packet() []byte {
	pkt, err := hex.DecodeString(tc.golden)
	if err != nil {
		panic(err)
	}
	return pkt
}

func goldenCases() []goldenCase {
	bf16 := core.NumericProfile{Format: core.FormatBF16}
	rne := core.NumericProfile{Format: core.FormatF32, Guard: 2, Rounding: core.RoundingRNE}
	query := AdmitClass{Class: ClassQuery, TopN: 10, Groups: 64}
	vals := []float32{1.5, -2.25}
	runVals := [][]float32{{0.5, 8}, {-1, 0.125}}
	stats := JobStats{
		Phase: PhaseDraining, Weight: 4, Profile: rne, Class: query,
		Adds: 0x0102030405060708, Retransmits: 2, Completions: 3, SchedDefers: 5,
		Outstanding: 6, CacheHits: 7, CacheBytes: 8, Coalesced: 9,
	}
	admit := JobAdmit{Job: 3, JobSpec: JobSpec{Weight: 4, Profile: rne, Class: query}}
	ack := JobAck{Job: 3, Status: AckErrAlreadyAdmitted, Epoch: 9,
		JobSpec: JobSpec{Weight: 4, Profile: bf16, Class: AdmitClass{Class: ClassTelemetry, Groups: 64}}}
	keys, tvals := []uint32{1, 0xdeadbeef}, []float32{0.5, -3}
	survivors := make([]bool, 10)
	for i := range survivors {
		survivors[i] = i%3 == 0
	}
	entries := []DrainEntry{{Key: 5, Val: 2}, {Key: 9, Val: 0.25}}

	// run splices the cached per-chunk RESULTs, exactly as emitResults does.
	run := func(prof core.NumericProfile) []byte {
		return encodeResultRun(3, 2, [][]byte{
			encodeResult(3, 2, prof, runVals[0], false),
			encodeResult(3, 3, prof, runVals[1], false),
		})
	}

	return []goldenCase{
		{"add f32", "f200000301020304073fc00000c0100000",
			EncodeAddProfile(3, 0x01020304, 7, core.DefaultProfile, vals), decodeAdd(core.DefaultProfile, vals)},
		{"add bf16", "f200000301020304073fc0c010",
			EncodeAddProfile(3, 0x01020304, 7, bf16, vals), decodeAdd(bf16, vals)},
		{"result f32", "f2010003000000003fc00000c010000000",
			encodeResult(3, 0, core.DefaultProfile, vals, false),
			func(pkt []byte) (any, any, error) {
				j, c, v, o, err := DecodeResultProfile(pkt, 2, core.DefaultProfile)
				return []any{j, c, v, o}, []any{3, uint32(0), vals, false}, err
			}},
		{"result bf16", "f2010003000000003fc0c01000",
			encodeResult(3, 0, bf16, vals, false),
			func(pkt []byte) (any, any, error) {
				j, c, v, o, err := DecodeResultProfile(pkt, 2, bf16)
				return []any{j, c, v, o}, []any{3, uint32(0), vals, false}, err
			}},
		{"run f32", "f20800030000000200023f0000004100000000bf8000003e00000000",
			run(core.DefaultProfile),
			func(pkt []byte) (any, any, error) {
				j, s, v, o, err := DecodeResultRun(pkt, 2, core.DefaultProfile)
				return []any{j, s, v, o}, []any{3, uint32(2), runVals, []bool{false, false}}, err
			}},
		{"run bf16", "f20800030000000200023f00410000bf803e0000",
			run(bf16),
			func(pkt []byte) (any, any, error) {
				j, s, v, o, err := DecodeResultRun(pkt, 2, bf16)
				return []any{j, s, v, o}, []any{3, uint32(2), runVals, []bool{false, false}}, err
			}},
		{"stats", "f2030003", EncodeStatsReq(3), decodeJobReq(MsgStats)},
		{"reply", "f204000302000400020101000a0040" +
			"0102030405060708" + "0000000000000002" + "0000000000000003" + "0000000000000005" +
			"0000000000000006" + "0000000000000007" + "0000000000000008" + "0000000000000009",
			encodeStatsReply(3, stats),
			func(pkt []byte) (any, any, error) {
				j, st, err := DecodeStatsReply(pkt)
				return []any{j, st}, []any{3, stats}, err
			}},
		{"admit", "f2050003000400020101000a0040", EncodeJobAdmit(admit),
			func(pkt []byte) (any, any, error) {
				got, err := DecodeJobAdmit(pkt)
				return got, admit, err
			}},
		{"evict", "f2060003", EncodeJobEvict(3), decodeJobReq(MsgJobEvict)},
		{"ack", "f2070003060900040200000200000040", EncodeJobAck(ack),
			func(pkt []byte) (any, any, error) {
				got, err := DecodeJobAck(pkt)
				return got, ack, err
			}},
		{"tuple", "f20900030a0b0c0d07010002000000013f000000deadbeefc0400000",
			EncodeTuples(3, 0x0a0b0c0d, 7, OpQueryGroupMax, keys, tvals),
			func(pkt []byte) (any, any, error) {
				j, s, e, op, k, v, err := decodeTuples(pkt)
				return []any{j, s, e, op, k, v}, []any{3, uint32(0x0a0b0c0d), uint8(7), OpQueryGroupMax, keys, tvals}, err
			}},
		{"tack", "f20a00030a0b0c0d000a4902",
			tupleAckOf(3, 0x0a0b0c0d, survivors),
			func(pkt []byte) (any, any, error) {
				j, s, alive, err := DecodeTupleAck(pkt)
				return []any{j, s, alive}, []any{3, uint32(0x0a0b0c0d), survivors}, err
			}},
		{"drain", "f20b00030101cafebabe",
			EncodeDrain(3, DrainHeavyHitters, DrainFlagResetPrune, 0xcafebabe),
			func(pkt []byte) (any, any, error) {
				_, j, _ := decodeHeader(pkt)
				req, err := decodeDrain(pkt)
				return []any{j, req}, []any{3, drainReq{DrainHeavyHitters, DrainFlagResetPrune, 0xcafebabe}}, err
			}},
		{"dreply", "f20c00030200020000000540000000000000093e800000",
			encodeDrainReply(3, DrainHistogram, entries),
			func(pkt []byte) (any, any, error) {
				j, k, e, err := DecodeDrainReply(pkt)
				return []any{j, k, e}, []any{3, DrainHistogram, entries}, err
			}},
	}
}

// encodeResult builds a chunk's RESULT from host values. The switch never
// holds a sum as a float — its aggregator writes the wire bytes straight
// into newResult's value region — but a test states its expectations as
// floats.
func encodeResult(job int, chunk uint32, prof core.NumericProfile, vals []float32, overflow bool) []byte {
	pkt, region := newResult(job, chunk, len(vals), prof)
	for i, v := range vals {
		prof.PutValue(region[prof.ValueBytes()*i:], v)
	}
	putOverflow(pkt, overflow)
	return pkt
}

// decodeAdd reads a golden ADD back the way the switch does: the data header
// its gate takes, then the values under the job's profile.
func decodeAdd(prof core.NumericProfile, want []float32) func(pkt []byte) (got, _ any, err error) {
	return func(pkt []byte) (any, any, error) {
		j, c, e, err := decodeDataHeader(pkt)
		if err != nil {
			return nil, nil, err
		}
		region, err := addValues(pkt, len(want), prof)
		if err != nil {
			return nil, nil, err
		}
		v := make([]float32, len(want))
		prof.GetValues(v, region)
		return []any{j, c, e, v}, []any{3, uint32(0x01020304), uint8(7), want}, nil
	}
}

// decodeJobReq reads back a request that names only a job: the header is
// the whole message, its length the msgTable row's.
func decodeJobReq(typ byte) func(pkt []byte) (got, _ any, err error) {
	return func(pkt []byte) (any, any, error) {
		if err := decodeLen(pkt, typ); err != nil {
			return nil, nil, err
		}
		t, j, err := decodeHeader(pkt)
		return []any{t, j}, []any{typ, 3}, err
	}
}

// tupleAckOf builds the MsgTupleAck carrying a survivor bitmap, the way
// analyticsJob.fold does: the all-zero ack first, then one bit per survivor.
func tupleAckOf(job int, seq uint32, survivors []bool) []byte {
	ack := encodeTupleAck(job, seq, len(survivors))
	for i, alive := range survivors {
		if alive {
			setSurvivor(ack, i)
		}
	}
	return ack
}

// BenchmarkWireCodec times a worker's codec on both ends of a chunk:
// encoding a 64-ADD window into one arena (appendAdd, as into Reduce's
// window entries) and decoding a 64-item RESULT RUN into the output vector
// (readDownlink and GetValues, as Reduce's final does), f32 and bf16 at one
// and three modules. One op is one window; ns/chunk divides it by 64.
func BenchmarkWireCodec(b *testing.B) {
	const window = 64
	for _, prof := range []core.NumericProfile{core.DefaultProfile, {Format: core.FormatBF16}} {
		for _, modules := range []int{1, 3} {
			vec := make([]float32, window*modules)
			for i := range vec {
				vec[i] = float32(i) * 0.37
			}
			items := make([][]byte, window)
			for c := range items {
				pkt, vals := newResult(0, uint32(c), modules, prof)
				prof.AppendValues(vals[:0], vec[c*modules:(c+1)*modules])
				items[c] = pkt
			}
			run := encodeResultRun(0, 0, items)
			arena := make([]byte, 0, window*addBytes(modules, prof))
			out := make([]float32, len(vec))
			complete := func(chunk uint32, vals []byte, _ bool) {
				c := int(chunk)
				prof.GetValues(out[c*modules:(c+1)*modules], vals)
			}
			b.Run(fmt.Sprintf("%v/m%d", prof.Format, modules), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					arena = arena[:0]
					for c := 0; c < window; c++ {
						arena = appendAdd(arena, 0, uint32(c), 0, prof, modules, vec[c*modules:(c+1)*modules])
					}
					readDownlink(run, 0, 0, prof, modules, complete)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/chunk")
			})
		}
	}
}
