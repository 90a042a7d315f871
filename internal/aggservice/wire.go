package aggservice

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"fpisa/internal/core"
	"fpisa/internal/transport"
)

// This file is the whole wire protocol: the message types, their layouts,
// the table that lists them (msgTable), exactly one encoder and at most one
// decoder per message — the switch's ingress included, so nothing outside
// this file indexes a packet — and the one downlink reader every
// chunk-window client (Worker.Reduce, a tree leaf's uplink) decodes the
// switch's replies through. See doc.go for the rationale.

// WireVersion is the leading octet of every wire message: a datagram that
// starts with anything else is malformed.
const WireVersion = 0xF2

// Message types (the second octet of every v2 message). Type 2 is reserved:
// it framed several messages in one datagram before the fabric's own batch
// frames took that job over, and is rejected as malformed.
const (
	MsgAdd        = 0  // worker → switch: chunk values
	MsgResult     = 1  // switch → workers: aggregated chunk
	MsgStats      = 3  // observer/worker → switch: per-job stats request
	MsgStatsReply = 4  // switch → requester: per-job stats snapshot
	MsgJobAdmit   = 5  // observer → switch: admit a job at runtime
	MsgJobEvict   = 6  // observer → switch: evict (drain) a job at runtime
	MsgJobAck     = 7  // switch → requester/worker: lifecycle status
	MsgResultRun  = 8  // switch → workers: a run of consecutive aggregated chunks
	MsgTuple      = 9  // analytics worker → switch: (key, value) rows to fold
	MsgTupleAck   = 10 // switch → analytics worker: folded batch + survivor bitmap
	MsgDrain      = 11 // observer → switch: harvest-and-reset analytics state
	MsgDrainReply = 12 // switch → observer: harvested (key, value) entries
)

// Wire-format errors. Handlers count these (see WireRejects); decoders
// return them wrapped so callers can errors.Is on the cause.
var (
	// ErrTruncated marks a message shorter than its declared fields —
	// decoders return it instead of indexing past the packet: client-side
	// wrapped in context, on the switch's ingress bare (like the other
	// pre-built errors below), so a flood of runts allocates nothing.
	ErrTruncated = errors.New("aggservice: truncated message")

	errWireVersion = errors.New("aggservice: unknown wire version")
	errMsgType     = errors.New("aggservice: unexpected message type")
	errBadLength   = errors.New("aggservice: message length does not match its layout")
	errDrainKind   = errors.New("aggservice: unknown drain kind")
)

// Wire layout (see doc.go for the rationale):
//
//	add    = [ver(1) type(1) job(2) chunk(4) epoch(1) values(W·M)]
//	result = [ver(1) type(1) job(2) chunk(4) values(W·M) overflow(1)]
//	run    = [ver(1) type(1) job(2) start(4) count(2)
//	          { values(W·M) overflow(1) }·count]
//	stats  = [ver(1) type(1) job(2)]
//	reply  = [ver(1) type(1) job(2) phase(1) weight(2) fmt(1) guard(1)
//	          round(1) class(1) topn(2) groups(2) adds(8) retrans(8)
//	          done(8) drops(8) defers(8) outstanding(8) cacheHits(8)
//	          cacheBytes(8) coalesced(8)]
//	admit  = [ver(1) type(1) job(2) weight(2) fmt(1) guard(1) round(1)
//	          class(1) topn(2) groups(2)]
//	evict  = [ver(1) type(1) job(2)]
//	ack    = [ver(1) type(1) job(2) status(1) epoch(1) weight(2) fmt(1)
//	          guard(1) round(1) class(1) topn(2) groups(2)]
//	tuple  = [ver(1) type(1) job(2) seq(4) epoch(1) op(1) count(2)
//	          { key(4) valbits(4) }·count]
//	tack   = [ver(1) type(1) job(2) seq(4) count(2) bitmap(⌈count/8⌉)]
//	drain  = [ver(1) type(1) job(2) kind(1) flags(1) nonce(4)]
//	dreply = [ver(1) type(1) job(2) kind(1) count(2)
//	          { key(4) valbits(4) }·count]
//
// W is the job's negotiated value width: 4 bytes under the default f32
// profile, 2 under the 16-bit formats — so a bf16 tenant's ADDs carry half
// the payload. The fmt/guard/round octets are the job's NumericProfile
// descriptor (core.ProfileFormat, guard-bit count, core.ProfileRounding),
// negotiated in the admit request and echoed in acks and stats replies.
//
// The class/topn/groups octets are the job's AdmitClass descriptor — the
// workload class the admission negotiated (training/query/telemetry) plus
// its analytics register ask — echoed in acks and stats replies just like
// the numeric profile.
//
// The ADD's (and TUPLE's) epoch octet is the job's incarnation: it is
// compared against the switch's release counter (mod 256), so a datagram
// buffered from an evicted incarnation of a re-admitted job id is rejected
// as stale instead of binding a chunk into the fresh range. Lifecycle acks
// echo the incarnation so newly admitted workers learn the octet to carry.
const hdrBytes = 8

// addValOff is the offset of an ADD's value vector: the shared header plus
// the incarnation epoch octet.
const addValOff = hdrBytes + 1

// jobSpecBytes is the wire width of a JobSpec: the 16-bit scheduler weight,
// the NumericProfile descriptor (one octet each for format, guard bits and
// rounding) and the AdmitClass descriptor (the workload class octet plus
// the two 16-bit analytics register counts).
const jobSpecBytes = 2 + 3 + 5

// jobReqBytes sizes the requests that name only a job (stats, evict);
// statsReplyBytes, jobAdmitBytes and jobAckBytes size the control plane's
// other fixed layouts, each a [ver type job] header around a JobSpec.
const (
	jobReqBytes     = 4
	statsReplyBytes = 4 + 1 + jobSpecBytes + 8*8
	jobAdmitBytes   = 4 + jobSpecBytes
	jobAckBytes     = 4 + 2 + jobSpecBytes
)

// runHdrBytes is the MsgResultRun header: the shared [ver type job chunk]
// header (chunk = the run's first chunk id) plus a two-byte item count.
const runHdrBytes = hdrBytes + 2

// Analytics wire sizes. The tuple header rides the shared [ver type job(2)
// seq(4)] header plus [epoch op count(2)]; its ack echoes the seq and adds
// a survivor bitmap. Drains are observer frames carrying a client nonce so
// a lost reply can be replayed instead of re-executing the read-and-reset.
const (
	tupleHdrBytes      = hdrBytes + 4
	tupleAckHdrBytes   = hdrBytes + 2
	drainReqBytes      = 10 // [ver type job(2) kind flags nonce(4)]
	drainReplyHdrBytes = 7  // [ver type job(2) kind count(2)]
)

// MaxTuplesPerBatch is how many 8-byte (key, value) tuples one MsgTuple
// carries: the most whose batch still fits a datagram of the UDP fabric
// (searched within the 16-bit count field).
var MaxTuplesPerBatch = sort.Search(1<<16, func(n int) bool {
	return transport.FrameCapacity(tupleHdrBytes+8*(n+1)) == 0
})

// sender is who may send a message type to a switch.
type sender uint8

const (
	fromWorker   sender = 1 << iota // a job's worker port
	fromObserver                    // the out-of-band observer frame
	fromEither          = fromWorker | fromObserver
	fromNobody   sender = 0 // switch → client types, reserved and unassigned octets
)

// msgRow is one message type: its ARCHITECTURE.md name, who may send it to
// a switch, and its size — exact, or the fixed part of a variable layout.
type msgRow struct {
	name  string
	from  sender
	size  int
	exact bool
}

// msgTable is the list of messages, one row per type octet (zero rows for the
// reserved type 2 and the unassigned octets). Switch.admit authorises senders
// by it; every decoder — the clients' through decodeAs — checks lengths by it.
var msgTable = [256]msgRow{
	MsgAdd:        {"ADD", fromWorker, addValOff, false},
	MsgResult:     {"RESULT", fromNobody, hdrBytes + 1, false},
	MsgStats:      {"STATS request", fromEither, jobReqBytes, true},
	MsgStatsReply: {"STATS reply", fromNobody, statsReplyBytes, true},
	MsgJobAdmit:   {"JOB ADMIT", fromObserver, jobAdmitBytes, true},
	MsgJobEvict:   {"JOB EVICT", fromObserver, jobReqBytes, true},
	MsgJobAck:     {"JOB ACK", fromNobody, jobAckBytes, true},
	MsgResultRun:  {"RESULT RUN", fromNobody, runHdrBytes, false},
	MsgTuple:      {"TUPLE", fromWorker, tupleHdrBytes, false},
	MsgTupleAck:   {"TUPLE ACK", fromNobody, tupleAckHdrBytes, false},
	MsgDrain:      {"DRAIN", fromObserver, drainReqBytes, true},
	MsgDrainReply: {"DRAIN REPLY", fromNobody, drainReplyHdrBytes, false},
}

// decodeLen checks pkt's length against the msgTable row of type typ.
func decodeLen(pkt []byte, typ byte) error {
	switch m := &msgTable[typ]; {
	case len(pkt) < m.size:
		return ErrTruncated
	case m.exact && len(pkt) > m.size:
		return errBadLength
	}
	return nil
}

// addBytes/resultBytes size a job's ADD and RESULT in its negotiated wire
// format.
func addBytes(modules int, prof core.NumericProfile) int {
	return addValOff + prof.ValueBytes()*modules
}
func resultBytes(modules int, prof core.NumericProfile) int {
	return hdrBytes + prof.ValueBytes()*modules + 1
}

// maxBatchChunks bounds how many chunks one RESULT RUN reply carries. A
// run is one message, so it must fit one datagram by the fabric's budget
// (sized for the widest, f32, format) — a run reply that did not would be
// undeliverable and stall the protocol for good. Send vectors need no such
// bound: the transport splits a multi-message vector into frames.
func maxBatchChunks(modules int) int {
	return max(1, transport.FrameCapacity(resultBytes(modules, core.DefaultProfile)))
}

// putJobHeader writes the [ver type job] prefix every message starts with.
func putJobHeader(pkt []byte, typ byte, job int) {
	pkt[0] = WireVersion
	pkt[1] = typ
	binary.BigEndian.PutUint16(pkt[2:], uint16(job))
}

// putHeader writes the data plane's shared [ver type job chunk] header.
func putHeader(pkt []byte, typ byte, job int, chunk uint32) {
	putJobHeader(pkt, typ, job)
	binary.BigEndian.PutUint32(pkt[4:], chunk)
}

// jobReq builds a request that names only a job: [ver type job(2)].
func jobReq(typ byte, job int) []byte {
	pkt := make([]byte, jobReqBytes)
	putJobHeader(pkt, typ, job)
	return pkt
}

// decodeHeader parses the [ver type job] prefix every message starts with —
// all there is to the requests that name only a job (STATS, JOB EVICT).
func decodeHeader(pkt []byte) (typ byte, job int, err error) {
	if len(pkt) < 2 {
		return 0, 0, ErrTruncated
	}
	if pkt[0] != WireVersion {
		return 0, 0, errWireVersion
	}
	if len(pkt) < jobReqBytes {
		return 0, 0, ErrTruncated
	}
	return pkt[1], int(binary.BigEndian.Uint16(pkt[2:])), nil
}

// decodeAs is the prologue of every client-side decoder: pkt must parse as a
// message of type want and fit that type's msgTable row.
func decodeAs(pkt []byte, want byte) (job int, err error) {
	typ, job, err := decodeHeader(pkt)
	if err == nil && typ != want {
		err = errMsgType
	}
	if err == nil {
		err = decodeLen(pkt, want)
	}
	if err != nil {
		return 0, fmt.Errorf("aggservice: bad %s (%d bytes): %w", msgTable[want].name, len(pkt), err)
	}
	return job, nil
}

// decodeDataHeader parses the header ADD and TUPLE share (an ADD's fixed
// part); seq is an ADD's chunk id, a TUPLE's lane sequence number.
func decodeDataHeader(pkt []byte) (job int, seq uint32, epoch uint8, err error) {
	if err := decodeLen(pkt, MsgAdd); err != nil {
		return 0, 0, 0, err
	}
	return int(binary.BigEndian.Uint16(pkt[2:])), binary.BigEndian.Uint32(pkt[4:]), pkt[hdrBytes], nil
}

// addValues returns a view of an ADD's value region, in prof's wire format
// as the worker sent it. An oversized payload would silently truncate a
// garbage ADD into a plausible one, so the length must match the profile
// exactly.
func addValues(pkt []byte, modules int, prof core.NumericProfile) ([]byte, error) {
	if n := addBytes(modules, prof); len(pkt) != n {
		if len(pkt) < n {
			return nil, ErrTruncated
		}
		return nil, errBadLength
	}
	return pkt[addValOff:], nil
}

// JobSpec is what an admission negotiates for a job: its deficit-round-
// robin scheduler weight, the numeric profile its slots compute under and
// its workload class. The zero JobSpec is the default tenant — weight 1
// (the switch clamps 0), f32 truncating arithmetic, training.
type JobSpec struct {
	Weight  int
	Profile core.NumericProfile
	Class   AdmitClass
}

// putJobSpec/getJobSpec move a JobSpec through its wire octets ([weight(2)
// fmt guard round class topn(2) groups(2)]). getJobSpec returns the octets
// as carried: decoders never validate or clamp (round trips stay
// byte-exact); the admission path validates.
func putJobSpec(dst []byte, sp JobSpec) {
	binary.BigEndian.PutUint16(dst, uint16(sp.Weight))
	dst[2] = uint8(sp.Profile.Format)
	dst[3] = sp.Profile.Guard
	dst[4] = uint8(sp.Profile.Rounding)
	dst[5] = uint8(sp.Class.Class)
	binary.BigEndian.PutUint16(dst[6:], uint16(sp.Class.TopN))
	binary.BigEndian.PutUint16(dst[8:], uint16(sp.Class.Groups))
}

func getJobSpec(src []byte) JobSpec {
	return JobSpec{
		Weight: int(binary.BigEndian.Uint16(src)),
		Profile: core.NumericProfile{
			Format:   core.ProfileFormat(src[2]),
			Guard:    src[3],
			Rounding: core.ProfileRounding(src[4]),
		},
		Class: AdmitClass{
			Class:  WorkloadClass(src[5]),
			TopN:   int(binary.BigEndian.Uint16(src[6:])),
			Groups: int(binary.BigEndian.Uint16(src[8:])),
		},
	}
}

// EncodeAddProfile builds a worker ADD packet stamped with the job's
// incarnation epoch (0 for a job id's first incarnation; the admit ack
// echoes the current one), with the values narrowed to the job's negotiated
// wire format — 16-bit formats halve the payload.
func EncodeAddProfile(job int, chunk uint32, epoch uint8, prof core.NumericProfile, vals []float32) []byte {
	return appendAdd(make([]byte, 0, addBytes(len(vals), prof)), job, chunk, epoch, prof, len(vals), vals)
}

// appendAdd appends one ADD of modules values (see EncodeAddProfile) to dst
// and returns the extended slice — the form a sender uses to encode a whole
// send vector into one reused arena. Values past len(vals) are +0. The
// slice grows once; the header and values overwrite what the arena held,
// so only the padding is zeroed.
func appendAdd(dst []byte, job int, chunk uint32, epoch uint8, prof core.NumericProfile, modules int, vals []float32) []byte {
	n, size := len(dst), addBytes(modules, prof)
	dst = slices.Grow(dst, size)[:n+size]
	putAddHeader(dst[n:], job, chunk, epoch)
	// The grown capacity holds the values, so AppendValues writes them in
	// place behind the header.
	filled := prof.AppendValues(dst[:n+addValOff], vals)
	clear(dst[len(filled):])
	return dst
}

// putAddHeader writes an ADD's header and epoch octet, the bytes before its
// value region.
func putAddHeader(pkt []byte, job int, chunk uint32, epoch uint8) {
	putHeader(pkt, MsgAdd, job, chunk)
	pkt[hdrBytes] = epoch
}

// putOverflow writes a RESULT's trailing overflow octet.
func putOverflow(pkt []byte, ovf bool) {
	pkt[len(pkt)-1] = 0
	if ovf {
		pkt[len(pkt)-1] = 1
	}
}

// DecodeResultProfile parses a RESULT packet in the job's negotiated wire
// format, widening 16-bit values to float32 exactly.
func DecodeResultProfile(pkt []byte, modules int, prof core.NumericProfile) (job int, chunk uint32, vals []float32, overflow bool, err error) {
	job, chunk, region, overflow, err := decodeResultValues(pkt, modules, prof)
	if err != nil {
		return 0, 0, nil, false, err
	}
	vals = make([]float32, modules)
	prof.GetValues(vals, region)
	return job, chunk, vals, overflow, nil
}

// decodeResultValues validates a RESULT under the job's negotiated profile —
// its exact size depends on it — and returns its value region (a view into
// pkt) and overflow flag.
func decodeResultValues(pkt []byte, modules int, prof core.NumericProfile) (job int, chunk uint32, vals []byte, overflow bool, err error) {
	if job, err = decodeAs(pkt, MsgResult); err != nil {
		return 0, 0, nil, false, err
	}
	if n := resultBytes(modules, prof); len(pkt) < n {
		return 0, 0, nil, false, fmt.Errorf("result packet %d of %d bytes: %w", len(pkt), n, ErrTruncated)
	} else if len(pkt) > n {
		return 0, 0, nil, false, fmt.Errorf("aggservice: result packet %d bytes, want %d", len(pkt), n)
	}
	vals, overflow = splitBody(pkt[hdrBytes:])
	return job, binary.BigEndian.Uint32(pkt[4:]), vals, overflow, nil
}

// runBytes sizes the MsgResultRun reply that carries items, consecutive
// chunks' RESULT packets.
func runBytes(items [][]byte) int {
	n := runHdrBytes
	for _, p := range items {
		n += len(p) - hdrBytes
	}
	return n
}

// putResultRun splices consecutive chunks' RESULT payloads into run, a
// runBytes(items)-byte MsgResultRun reply: items[i] is chunk start+i's
// RESULT packet, whose values+overflow tail is carried verbatim (the tail
// is already in the job's wire format, so the splice is a copy, not a
// re-encode).
func putResultRun(run []byte, job int, start uint32, items [][]byte) {
	putHeader(run, MsgResultRun, job, start)
	binary.BigEndian.PutUint16(run[hdrBytes:], uint16(len(items)))
	off := runHdrBytes
	for _, p := range items {
		off += copy(run[off:], p[hdrBytes:])
	}
}

// DecodeResultRun parses a MsgResultRun reply in the job's negotiated wire
// format: item i carries chunk start+i's aggregated values and overflow
// flag. Safe on arbitrary input — the item count is validated against the
// packet length before anything is read.
func DecodeResultRun(pkt []byte, modules int, prof core.NumericProfile) (job int, start uint32, vals [][]float32, ovfs []bool, err error) {
	job, start, count, err := decodeRunHeader(pkt, modules, prof)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	vals = make([][]float32, count)
	ovfs = make([]bool, count)
	for i := range vals {
		var region []byte
		region, ovfs[i] = runItem(pkt, i, modules, prof)
		vals[i] = make([]float32, modules)
		prof.GetValues(vals[i], region)
	}
	return job, start, vals, ovfs, nil
}

// decodeRunHeader validates a MsgResultRun reply and returns its header;
// the count items are then read with runItem.
func decodeRunHeader(pkt []byte, modules int, prof core.NumericProfile) (job int, start uint32, count int, err error) {
	if job, err = decodeAs(pkt, MsgResultRun); err != nil {
		return 0, 0, 0, err
	}
	count = int(binary.BigEndian.Uint16(pkt[hdrBytes:]))
	if count < 1 || len(pkt) != runHdrBytes+count*runItemBytes(modules, prof) {
		return 0, 0, 0, fmt.Errorf("aggservice: bad result run (%d items, %d bytes)", count, len(pkt))
	}
	return job, binary.BigEndian.Uint32(pkt[4:]), count, nil
}

// runItemBytes is the size of one run item: a RESULT's values+overflow tail.
func runItemBytes(modules int, prof core.NumericProfile) int {
	return resultBytes(modules, prof) - hdrBytes
}

// splitBody splits one chunk's values+overflow body — a RESULT's tail or a
// RESULT RUN item — into its value region and overflow flag.
func splitBody(body []byte) (vals []byte, overflow bool) {
	return body[:len(body)-1], body[len(body)-1] != 0
}

// runItem returns item i of a validated run reply: its value region (a
// view into pkt) and overflow flag.
func runItem(pkt []byte, i, modules int, prof core.NumericProfile) (vals []byte, overflow bool) {
	n := runItemBytes(modules, prof)
	return splitBody(pkt[runHdrBytes+i*n:][:n])
}

// EncodeStatsReq builds a per-job stats request.
func EncodeStatsReq(job int) []byte { return jobReq(MsgStats, job) }

func encodeStatsReply(job int, st JobStats) []byte {
	pkt := make([]byte, statsReplyBytes)
	putJobHeader(pkt, MsgStatsReply, job)
	pkt[4] = uint8(st.Phase)
	putJobSpec(pkt[5:], JobSpec{Weight: st.Weight, Profile: st.Profile, Class: st.Class})
	binary.BigEndian.PutUint64(pkt[15:], st.Adds)
	binary.BigEndian.PutUint64(pkt[23:], st.Retransmits)
	binary.BigEndian.PutUint64(pkt[31:], st.Completions)
	binary.BigEndian.PutUint64(pkt[39:], st.SchedDefers)
	binary.BigEndian.PutUint64(pkt[47:], uint64(st.Outstanding))
	binary.BigEndian.PutUint64(pkt[55:], st.CacheHits)
	binary.BigEndian.PutUint64(pkt[63:], st.CacheBytes)
	binary.BigEndian.PutUint64(pkt[71:], st.Coalesced)
	return pkt
}

// DecodeStatsReply parses a MsgStatsReply packet. Every field is
// bounds-checked before it is read: a truncated reply returns a wire error
// wrapping ErrTruncated instead of panicking the caller (fpisa-query feeds
// this whatever the socket produced).
func DecodeStatsReply(pkt []byte) (job int, st JobStats, err error) {
	if job, err = decodeAs(pkt, MsgStatsReply); err != nil {
		return 0, JobStats{}, err
	}
	if pkt[4] > uint8(PhaseDraining) {
		return 0, JobStats{}, fmt.Errorf("aggservice: unknown job phase %d in stats reply", pkt[4])
	}
	st.Phase = JobPhase(pkt[4])
	sp := getJobSpec(pkt[5:])
	st.Weight, st.Profile, st.Class = sp.Weight, sp.Profile, sp.Class
	st.Adds = binary.BigEndian.Uint64(pkt[15:])
	st.Retransmits = binary.BigEndian.Uint64(pkt[23:])
	st.Completions = binary.BigEndian.Uint64(pkt[31:])
	st.SchedDefers = binary.BigEndian.Uint64(pkt[39:])
	st.Outstanding = int64(binary.BigEndian.Uint64(pkt[47:]))
	st.CacheHits = binary.BigEndian.Uint64(pkt[55:])
	st.CacheBytes = binary.BigEndian.Uint64(pkt[63:])
	st.Coalesced = binary.BigEndian.Uint64(pkt[71:])
	return job, st, nil
}

// JobAdmit is an operator's request to admit a job at runtime under a
// JobSpec. The switch clamps weight 0 to 1 and validates the profile and
// class at admission (AckErrBadProfile / AckErrBadClass on refusal); its ack
// echoes the spec it actually applied.
type JobAdmit struct {
	Job int
	JobSpec
}

// EncodeJobAdmit builds a MsgJobAdmit.
func EncodeJobAdmit(a JobAdmit) []byte {
	pkt := make([]byte, jobAdmitBytes)
	putJobHeader(pkt, MsgJobAdmit, a.Job)
	putJobSpec(pkt[4:], a.JobSpec)
	return pkt
}

// DecodeJobAdmit parses a MsgJobAdmit. Safe on arbitrary input: truncation
// returns a wire error wrapping ErrTruncated, oversized frames are
// rejected. The weight, profile and class are returned as carried — the
// admission path, not the decoder, clamps weight 0 to 1 and validates the
// profile and class, so a round trip is byte-exact.
func DecodeJobAdmit(pkt []byte) (JobAdmit, error) {
	job, err := decodeAs(pkt, MsgJobAdmit)
	if err != nil {
		return JobAdmit{}, err
	}
	return JobAdmit{Job: job, JobSpec: getJobSpec(pkt[4:])}, nil
}

// EncodeJobEvict builds an operator request to evict (drain) job.
func EncodeJobEvict(job int) []byte { return jobReq(MsgJobEvict, job) }

// JobAck is a lifecycle status message. Epoch is the job's incarnation
// octet — the value workers of a (re-)admitted job must stamp into their
// ADDs (Worker.Epoch); on an unsolicited worker notice it echoes the
// offending datagram's octet instead. The JobSpec is what the request
// landed on: for a successful admit the weight, profile and class actually
// applied (a requested weight 0 comes back as the clamped 1, so the client
// can detect the clamp), zero where no live job exists.
type JobAck struct {
	Job    int
	Status AckStatus
	Epoch  uint8
	JobSpec
}

// EncodeJobAck builds a MsgJobAck.
func EncodeJobAck(a JobAck) []byte {
	pkt := make([]byte, jobAckBytes)
	putJobHeader(pkt, MsgJobAck, a.Job)
	pkt[4] = uint8(a.Status)
	pkt[5] = a.Epoch
	putJobSpec(pkt[6:], a.JobSpec)
	return pkt
}

// jobNotice builds the MsgJobAck the data plane bounces off a refused
// datagram: a status, the epoch to echo and the job's live weight (0 where
// none exists), with the zero profile and class.
func jobNotice(job int, status AckStatus, epoch uint8, weight int) []byte {
	return EncodeJobAck(JobAck{Job: job, Status: status, Epoch: epoch, JobSpec: JobSpec{Weight: weight}})
}

// DecodeJobAck parses a MsgJobAck. Like DecodeStatsReply it is safe on
// arbitrary input: truncation returns a wire error wrapping ErrTruncated.
// The profile and class octets are returned as carried (never validated or
// clamped), so a round trip is byte-exact.
func DecodeJobAck(pkt []byte) (JobAck, error) {
	job, err := decodeAs(pkt, MsgJobAck)
	if err != nil {
		return JobAck{}, err
	}
	if !AckStatus(pkt[4]).valid() {
		return JobAck{}, fmt.Errorf("aggservice: unknown ack status %d", pkt[4])
	}
	return JobAck{
		Job:     job,
		Status:  AckStatus(pkt[4]),
		Epoch:   pkt[5],
		JobSpec: getJobSpec(pkt[6:]),
	}, nil
}

// EncodeTuples builds an analytics MsgTuple batch: up to MaxTuplesPerBatch
// (key, value) rows folded under one op, stamped with the job's
// incarnation epoch and a stop-and-wait sequence number.
func EncodeTuples(job int, seq uint32, epoch uint8, op TupleOp, keys []uint32, vals []float32) []byte {
	pkt := make([]byte, tupleHdrBytes+8*len(keys))
	putHeader(pkt, MsgTuple, job, seq)
	pkt[hdrBytes] = epoch
	pkt[hdrBytes+1] = uint8(op)
	binary.BigEndian.PutUint16(pkt[hdrBytes+2:], uint16(len(keys)))
	for i, k := range keys {
		off := tupleHdrBytes + 8*i
		binary.BigEndian.PutUint32(pkt[off:], k)
		binary.BigEndian.PutUint32(pkt[off+4:], math.Float32bits(vals[i]))
	}
	return pkt
}

// tupleView is a validated MsgTuple batch, read in place by the switch's fold.
type tupleView struct {
	op   TupleOp
	rows []byte // count × [key(4) valbits(4)]
}

// decodeTupleView checks a MsgTuple's row count against its length before any
// row is read. The op octet is returned as carried: the switch validates it
// against the job's class.
func decodeTupleView(pkt []byte) (tupleView, error) {
	if err := decodeLen(pkt, MsgTuple); err != nil {
		return tupleView{}, err
	}
	count := int(binary.BigEndian.Uint16(pkt[hdrBytes+2:]))
	if count < 1 || count > MaxTuplesPerBatch || len(pkt) != tupleHdrBytes+8*count {
		return tupleView{}, errBadLength
	}
	return tupleView{op: TupleOp(pkt[hdrBytes+1]), rows: pkt[tupleHdrBytes:]}, nil
}

func (v tupleView) count() int { return len(v.rows) / 8 }

// row returns row i's key and value, 0 ≤ i < count().
func (v tupleView) row(i int) (key uint32, val float32) {
	r := v.rows[8*i : 8*i+8]
	return binary.BigEndian.Uint32(r), math.Float32frombits(binary.BigEndian.Uint32(r[4:]))
}

// encodeTupleAck builds the MsgTupleAck for one batch of count rows: the
// echoed sequence number plus an all-zero survivor bitmap — what a fold-only
// op acks as is, and a pruning op marks row by row with setSurvivor.
func encodeTupleAck(job int, seq uint32, count int) []byte {
	pkt := make([]byte, tupleAckHdrBytes+(count+7)/8)
	putHeader(pkt, MsgTupleAck, job, seq)
	binary.BigEndian.PutUint16(pkt[hdrBytes:], uint16(count))
	return pkt
}

// setSurvivor marks row i of a tuple ack as having survived pruning.
func setSurvivor(ack []byte, i int) { ack[tupleAckHdrBytes+i/8] |= 1 << (i % 8) }

// DecodeTupleAck parses a MsgTupleAck. Safe on arbitrary input; padding
// bits past the row count must be zero (so a round trip is byte-exact).
func DecodeTupleAck(pkt []byte) (job int, seq uint32, survivors []bool, err error) {
	if job, err = decodeAs(pkt, MsgTupleAck); err != nil {
		return 0, 0, nil, err
	}
	count := int(binary.BigEndian.Uint16(pkt[hdrBytes:]))
	if count < 1 || len(pkt) != tupleAckHdrBytes+(count+7)/8 {
		return 0, 0, nil, fmt.Errorf("aggservice: bad tuple ack (%d rows, %d bytes)", count, len(pkt))
	}
	survivors = make([]bool, count)
	for i := range survivors {
		survivors[i] = pkt[tupleAckHdrBytes+i/8]&(1<<(i%8)) != 0
	}
	if pad := count % 8; pad != 0 {
		if pkt[len(pkt)-1]>>pad != 0 {
			return 0, 0, nil, fmt.Errorf("aggservice: nonzero padding in tuple ack bitmap")
		}
	}
	return job, binary.BigEndian.Uint32(pkt[4:]), survivors, nil
}

// EncodeDrain builds an observer request to harvest one kind of analytics
// state. The nonce identifies the request: the switch caches the last
// reply per job, so a retry with the same nonce replays the harvest
// instead of re-executing the read-and-reset (drains are not idempotent).
func EncodeDrain(job int, kind DrainKind, flags uint8, nonce uint32) []byte {
	pkt := make([]byte, drainReqBytes)
	putJobHeader(pkt, MsgDrain, job)
	pkt[4] = uint8(kind)
	pkt[5] = flags
	binary.BigEndian.PutUint32(pkt[6:], nonce)
	return pkt
}

// drainReq is a decoded MsgDrain (see EncodeDrain).
type drainReq struct {
	kind  DrainKind
	flags uint8
	nonce uint32
}

func decodeDrain(pkt []byte) (drainReq, error) {
	if err := decodeLen(pkt, MsgDrain); err != nil {
		return drainReq{}, err
	}
	if pkt[4] > uint8(DrainHistogram) {
		return drainReq{}, errDrainKind
	}
	return drainReq{kind: DrainKind(pkt[4]), flags: pkt[5], nonce: binary.BigEndian.Uint32(pkt[6:])}, nil
}

// encodeDrainReply builds the MsgDrainReply carrying the harvested
// entries.
func encodeDrainReply(job int, kind DrainKind, entries []DrainEntry) []byte {
	pkt := make([]byte, drainReplyHdrBytes+8*len(entries))
	putJobHeader(pkt, MsgDrainReply, job)
	pkt[4] = uint8(kind)
	binary.BigEndian.PutUint16(pkt[5:], uint16(len(entries)))
	for i, e := range entries {
		off := drainReplyHdrBytes + 8*i
		binary.BigEndian.PutUint32(pkt[off:], e.Key)
		binary.BigEndian.PutUint32(pkt[off+4:], math.Float32bits(e.Val))
	}
	return pkt
}

// DecodeDrainReply parses a MsgDrainReply. Safe on arbitrary input: the
// entry count is validated against the packet length, truncation wraps
// ErrTruncated, and an unknown kind octet is rejected.
func DecodeDrainReply(pkt []byte) (job int, kind DrainKind, entries []DrainEntry, err error) {
	if job, err = decodeAs(pkt, MsgDrainReply); err != nil {
		return 0, 0, nil, err
	}
	if pkt[4] > uint8(DrainHistogram) {
		return 0, 0, nil, fmt.Errorf("aggservice: unknown drain kind %d", pkt[4])
	}
	count := int(binary.BigEndian.Uint16(pkt[5:]))
	if len(pkt) != drainReplyHdrBytes+8*count {
		return 0, 0, nil, fmt.Errorf("aggservice: bad drain reply (%d entries, %d bytes)", count, len(pkt))
	}
	entries = make([]DrainEntry, count)
	for i := range entries {
		off := drainReplyHdrBytes + 8*i
		entries[i].Key = binary.BigEndian.Uint32(pkt[off:])
		entries[i].Val = math.Float32frombits(binary.BigEndian.Uint32(pkt[off+4:]))
	}
	return job, DrainKind(pkt[4]), entries, nil
}

// readDownlink decodes one downlink message for a chunk-window client — a
// Worker, or a tree leaf's uplink playing the worker role one level up —
// of (job, epoch) under prof. Each aggregated chunk a RESULT or RESULT RUN
// carries is handed to result as its value region — the modules wire
// values, a view into msg that result must copy what it keeps of — and
// its overflow flag.
// A lifecycle or scheduler notice is returned
// with ok set, but only one for the client's OWN incarnation: the switch
// echoes the offending ADD's epoch, so a notice bounced off a stale
// straggler's datagram never steers a fresh client sharing the port.
// Anything else — other jobs' traffic, garbage — is dropped.
func readDownlink(msg []byte, job int, epoch uint8, prof core.NumericProfile, modules int,
	result func(chunk uint32, vals []byte, overflow bool)) (notice AckStatus, ok bool) {
	typ, _, err := decodeHeader(msg)
	if err != nil {
		return 0, false
	}
	switch typ {
	case MsgJobAck:
		ack, err := DecodeJobAck(msg)
		return ack.Status, err == nil && ack.Job == job && ack.Epoch == epoch
	case MsgResult:
		j, chunk, vals, ovf, err := decodeResultValues(msg, modules, prof)
		if err == nil && j == job {
			result(chunk, vals, ovf)
		}
	case MsgResultRun:
		j, start, count, err := decodeRunHeader(msg, modules, prof)
		if err == nil && j == job {
			for i := 0; i < count; i++ {
				vals, ovf := runItem(msg, i, modules, prof)
				result(start+uint32(i), vals, ovf)
			}
		}
	}
	return 0, false
}
