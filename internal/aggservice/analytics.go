package aggservice

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/query"
	"fpisa/internal/stats"
	"fpisa/internal/transport"
)

// This file makes in-network query acceleration and telemetry sketches
// first-class job types on the multi-tenant switch (paper §6–§7): a job
// admits under a workload CLASS — training (the ADD/RESULT allreduce
// path), query (per-job pruning registers plus FPISA group accumulators
// driving internal/query plans), or telemetry (per-job heavy-hitter and
// utilization sketches over internal/stats histograms, classified by the
// key's top bits). Analytics tenants send MsgTuple streams instead of
// ADDs, are charged against the SAME per-shard deficit-round-robin ledger
// as training binds, and are harvested over observer MsgDrain frames.
//
// An analytics job's register state hangs off its incarnation record and
// is guarded by one "home" shard's mutex (see homeShard), so the hot path's
// locking discipline (incarnation revalidated under the shard lock,
// lifeMu → shard.mu order) carries over unchanged.

// WorkloadClass is a job's workload class octet, negotiated at admission.
type WorkloadClass uint8

const (
	// ClassTraining is the allreduce path: ADD/RESULT over chunked slots.
	ClassTraining WorkloadClass = iota
	// ClassQuery accelerates internal/query plans: ordered-key pruning
	// registers (Top-N, group-max) and per-group FPISA sum accumulators.
	ClassQuery
	// ClassTelemetry runs in-switch sketches: per-class FPISA utilization
	// accumulators behind a top-bits prefix classifier, a heavy-hitter
	// table, and a log histogram of sample sizes.
	ClassTelemetry
)

func (c WorkloadClass) String() string {
	switch c {
	case ClassTraining:
		return "training"
	case ClassQuery:
		return "query"
	case ClassTelemetry:
		return "telemetry"
	}
	return fmt.Sprintf("WorkloadClass(%d)", uint8(c))
}

// AdmitClass is the workload-class descriptor a job admits under: the
// class octet plus the analytics register budget it requests. The zero
// value is a training job (today's behavior).
type AdmitClass struct {
	// Class selects the job's data path.
	Class WorkloadClass
	// TopN sizes the Top-N pruning register array (query class only).
	TopN int
	// Groups sizes the per-group state: group-max pruning buckets and sum
	// accumulator slots for query jobs; traffic classes, heavy-hitter rows
	// and utilization slots for telemetry jobs (power of two, so classes
	// are the key's top log2(Groups) bits).
	Groups int
}

func (ac AdmitClass) String() string {
	switch ac.Class {
	case ClassQuery:
		return fmt.Sprintf("query(topn=%d,groups=%d)", ac.TopN, ac.Groups)
	case ClassTelemetry:
		return fmt.Sprintf("telemetry(classes=%d)", ac.Groups)
	}
	return ac.Class.String()
}

// ParseClass parses an operator-facing workload-class descriptor in
// flag-friendly colon form: "training" (or ""), "query:TOPN:GROUPS", or
// "telemetry:GROUPS". Range validation is the admission path's job
// (validateClass) — this only rejects shapes no admission could mean.
func ParseClass(s string) (AdmitClass, error) {
	parts := strings.Split(s, ":")
	bad := func() (AdmitClass, error) {
		return AdmitClass{}, fmt.Errorf("aggservice: workload class %q: want training, query:TOPN:GROUPS or telemetry:GROUPS", s)
	}
	num := func(f string) (int, bool) {
		n, err := strconv.Atoi(f)
		return n, err == nil
	}
	switch parts[0] {
	case "", "training":
		if len(parts) != 1 {
			return bad()
		}
		return AdmitClass{}, nil
	case "query":
		if len(parts) != 3 {
			return bad()
		}
		topn, ok1 := num(parts[1])
		groups, ok2 := num(parts[2])
		if !ok1 || !ok2 {
			return bad()
		}
		return AdmitClass{Class: ClassQuery, TopN: topn, Groups: groups}, nil
	case "telemetry":
		if len(parts) != 2 {
			return bad()
		}
		groups, ok := num(parts[1])
		if !ok {
			return bad()
		}
		return AdmitClass{Class: ClassTelemetry, Groups: groups}, nil
	}
	return bad()
}

// MaxAnalyticsRegisters bounds one analytics job's register ask
// (TopN+Groups for query, 2·Groups for telemetry) — the register budget a
// production pipeline stage offers a single query (§6.1). It also keeps
// every drain reply inside one datagram.
const MaxAnalyticsRegisters = 4096

// ErrBadClass marks an admit whose workload-class descriptor does not
// validate, or an analytics message sent to a job of the wrong class.
var ErrBadClass = errors.New("aggservice: invalid workload class for this job")

// validateClass checks an admission's workload-class descriptor.
func (c Config) validateClass(ac AdmitClass) error {
	switch ac.Class {
	case ClassTraining:
		if ac.TopN != 0 || ac.Groups != 0 {
			return fmt.Errorf("%w: training carries no analytics registers (topn=%d groups=%d)", ErrBadClass, ac.TopN, ac.Groups)
		}
	case ClassQuery:
		if ac.TopN < 0 || ac.Groups < 0 || ac.TopN+ac.Groups < 1 {
			return fmt.Errorf("%w: query needs topn or groups (topn=%d groups=%d)", ErrBadClass, ac.TopN, ac.Groups)
		}
		if ac.TopN+ac.Groups > MaxAnalyticsRegisters {
			return fmt.Errorf("%w: query asks %d registers of %d", ErrBadClass, ac.TopN+ac.Groups, MaxAnalyticsRegisters)
		}
	case ClassTelemetry:
		if ac.TopN != 0 {
			return fmt.Errorf("%w: telemetry carries no top-n registers", ErrBadClass)
		}
		if ac.Groups < 1 || ac.Groups&(ac.Groups-1) != 0 {
			return fmt.Errorf("%w: telemetry classes %d must be a power of two", ErrBadClass, ac.Groups)
		}
		if 2*ac.Groups > MaxAnalyticsRegisters {
			return fmt.Errorf("%w: telemetry asks %d registers of %d", ErrBadClass, 2*ac.Groups, MaxAnalyticsRegisters)
		}
	default:
		return fmt.Errorf("%w: unknown class %d", ErrBadClass, uint8(ac.Class))
	}
	if ac.Class != ClassTraining && c.Uplink != nil {
		// The tree uplink re-emits completed chunk RESULTs as parent
		// ADDs — a training-only protocol. Analytics state drains locally
		// and never climbs.
		return fmt.Errorf("%w: analytics classes cannot run on a tree leaf", ErrBadClass)
	}
	return nil
}

// classOf returns the workload class of initially admitted job j (missing
// entries mean training).
func (c Config) classOf(j int) AdmitClass {
	if j >= len(c.Classes) {
		return AdmitClass{}
	}
	return c.Classes[j]
}

// TupleOp selects the register program a MsgTuple batch folds into.
type TupleOp uint8

const (
	// OpQueryTopN folds tuples into the Top-N ordered-key pruning
	// registers; the ack's survivor bitmap marks rows still in the running.
	OpQueryTopN TupleOp = iota
	// OpQueryGroupMax folds tuples into the per-bucket group-max pruning
	// registers (bucket = key mod Groups, owner-key tagged — the same
	// collision-safe program as the fixed engine pruner).
	OpQueryGroupMax
	// OpQueryAgg folds tuples into the per-group FPISA sum accumulators
	// (group = key mod Groups); no survivors — results drain.
	OpQueryAgg
	// OpTelemetry classifies the key by its top bits and folds the
	// value into the class's utilization accumulator, the heavy-hitter
	// table and the size histogram.
	OpTelemetry
)

func (op TupleOp) String() string {
	switch op {
	case OpQueryTopN:
		return "query-topn"
	case OpQueryGroupMax:
		return "query-groupmax"
	case OpQueryAgg:
		return "query-agg"
	case OpTelemetry:
		return "telemetry"
	}
	return fmt.Sprintf("TupleOp(%d)", uint8(op))
}

// DrainKind selects which analytics state a MsgDrain harvests.
type DrainKind uint8

const (
	// DrainGroups reads-and-resets the per-group accumulators: query sum
	// groups, or telemetry per-class utilization.
	DrainGroups DrainKind = iota
	// DrainHeavyHitters reads-and-resets the telemetry heavy-hitter table
	// (entries sorted by descending weight).
	DrainHeavyHitters
	// DrainHistogram reads-and-resets the telemetry size histogram
	// (entry key = bin exponent, value = count).
	DrainHistogram
)

func (k DrainKind) String() string {
	switch k {
	case DrainGroups:
		return "groups"
	case DrainHeavyHitters:
		return "heavy-hitters"
	case DrainHistogram:
		return "histogram"
	}
	return fmt.Sprintf("DrainKind(%d)", uint8(k))
}

// DrainFlagResetPrune, set in a MsgDrain's flags octet, additionally
// resets the query pruning registers (Top-N and group-max) so the next
// query starts clean.
const DrainFlagResetPrune = 1

// DrainEntry is one harvested register: a key (group index, heavy-hitter
// key, or histogram bin exponent) and its FP32 value.
type DrainEntry struct {
	Key uint32
	Val float32
}

// hhRow is one heavy-hitter table row (a direct-mapped space-saving
// variant: same key adds, an empty row claims, a colliding key decays the
// incumbent and takes over once it outweighs it).
type hhRow struct {
	key  uint32
	hits float32
	used bool
}

// analyticsJob is one analytics incarnation's register state, guarded by
// its job's home shard's mutex. Per-worker stop-and-wait lanes make tuple
// folding idempotent under retransmission: a batch folds exactly once, and
// its ack is cached for replay.
type analyticsJob struct {
	ac AdmitClass

	// Stop-and-wait lanes, one per worker-in-job.
	expect  []uint32
	lastAck [][]byte

	// Query state: the Top-N and group-max pruning registers — the same
	// register programs as the fixed engine plan (query/prune.go). Nil
	// when the class descriptor provisions none.
	topn *query.TopNPruner
	gmax *query.GroupMaxPruner

	// Per-group FPISA sum accumulators (query sums / telemetry per-class
	// utilization): one scalar slot per group, running the job's
	// negotiated arithmetic. seen marks touched groups so drains skip cold
	// ones.
	acc  aggregator
	seen []bool

	// Telemetry state: the classifier — Groups equal-length prefixes over
	// the key's top bits, i.e. class = key >> classShift — the heavy-hitter
	// table and the sample-size histogram.
	classShift uint
	hh         []hhRow
	hist       *stats.LogHistogram

	// Drain replay cache: the last reply sent, keyed by the client nonce.
	lastDrainNonce uint32
	lastDrainPkt   []byte

	prof core.NumericProfile
	val  [4]byte // one wire value under prof: a folded tuple's, a drained sum
}

// telemetry histogram shape: power-of-two bins over the positive float32
// sample range.
const (
	telemetryHistBase   = 2
	telemetryHistMinExp = 0
	telemetryHistMaxExp = 32
)

// newAnalyticsJob builds one analytics tenant's register state; build
// supplies the per-group accumulator bank (under the job's numeric profile
// prof, one scalar slot per group).
func newAnalyticsJob(ac AdmitClass, prof core.NumericProfile, workers int, build func(slots int) (aggregator, error)) (*analyticsJob, error) {
	an := &analyticsJob{
		ac:      ac,
		prof:    prof,
		expect:  make([]uint32, workers),
		lastAck: make([][]byte, workers),
	}
	if ac.TopN > 0 {
		an.topn = query.NewTopNPruner(ac.TopN)
	}
	if ac.Groups > 0 {
		an.gmax = query.NewGroupMaxPruner(ac.Groups)
		acc, err := build(ac.Groups)
		if err != nil {
			return nil, err
		}
		an.acc = acc
		an.seen = make([]bool, ac.Groups)
	}
	if ac.Class == ClassTelemetry {
		// Groups is a power of two (validateClass); a single class shifts the
		// whole key out.
		an.classShift = uint(32 - bits.TrailingZeros(uint(ac.Groups)))
		an.hh = make([]hhRow, ac.Groups)
		an.hist = stats.MustNewLogHistogram(telemetryHistBase, telemetryHistMinExp, telemetryHistMaxExp)
	}
	return an, nil
}

// buildAnalytics constructs one analytics job's register state: its
// per-group accumulator bank under the job's numeric profile, one scalar
// slot per group, on the same core.Accumulator arithmetic as
// internal/query's switch plan, bit for bit. Admission compiles nothing.
func (s *Switch) buildAnalytics(ac AdmitClass, prof core.NumericProfile) (*analyticsJob, error) {
	return newAnalyticsJob(ac, prof, s.cfg.Workers, func(slots int) (aggregator, error) {
		return core.NewProfileAggregator(prof, s.cfg.Mode, 1, slots, s.cfg.Arch)
	})
}

// opAllowed reports whether the job's class descriptor provisions the
// registers an op folds into.
func (an *analyticsJob) opAllowed(op TupleOp) bool {
	switch op {
	case OpQueryTopN:
		return an.ac.Class == ClassQuery && an.ac.TopN > 0
	case OpQueryGroupMax, OpQueryAgg:
		return an.ac.Class == ClassQuery && an.ac.Groups > 0
	case OpTelemetry:
		return an.ac.Class == ClassTelemetry
	}
	return false
}

// foldAgg adds one row into its group's FPISA sum accumulator.
func (an *analyticsJob) foldAgg(key uint32, val float32) {
	g := key % uint32(an.ac.Groups)
	an.prof.PutValue(an.val[:], val)
	an.acc.AddInto(int(g), an.val[:an.prof.ValueBytes()], nil) //nolint:errcheck // slot index is in range by construction
	an.seen[g] = true
}

// trafficClass is a telemetry key's class: its top log2(Groups) bits.
func (an *analyticsJob) trafficClass(key uint32) int { return int(key >> an.classShift) }

// foldTelemetry classifies one sample by its key's top bits, adds its size
// to the class's utilization accumulator, and feeds the heavy-hitter table
// and the size histogram.
func (an *analyticsJob) foldTelemetry(key uint32, val float32) {
	class := an.trafficClass(key)
	an.prof.PutValue(an.val[:], val)
	an.acc.AddInto(class, an.val[:an.prof.ValueBytes()], nil) //nolint:errcheck // class index is in range by construction
	an.seen[class] = true
	row := &an.hh[key&uint32(len(an.hh)-1)] // len(hh) = Groups, a power of two
	switch {
	case !row.used:
		*row = hhRow{key: key, hits: val, used: true}
	case row.key == key:
		row.hits += val
	default:
		row.hits -= val
		if row.hits < 0 {
			*row = hhRow{key: key, hits: -row.hits, used: true}
		}
	}
	an.hist.Observe(float64(val))
}

// fold runs one validated tuple batch through its op's register program
// and returns the ack to cache and send. Caller holds the home shard's
// lock.
func (an *analyticsJob) fold(job int, seq uint32, tv tupleView) []byte {
	ack := encodeTupleAck(job, seq, tv.count())
	for i := 0; i < tv.count(); i++ {
		key, val := tv.row(i)
		survived := false
		switch tv.op {
		case OpQueryTopN:
			survived = an.topn.Admit(val)
		case OpQueryGroupMax:
			survived = an.gmax.Admit(key, val)
		case OpQueryAgg:
			an.foldAgg(key, val)
		case OpTelemetry:
			an.foldTelemetry(key, val)
		}
		if survived {
			setSurvivor(ack, i)
		}
	}
	return ack
}

// drain harvests (and resets) one kind of analytics state. Caller holds
// the home shard's lock.
func (an *analyticsJob) drain(kind DrainKind, resetPrune bool) []DrainEntry {
	var entries []DrainEntry
	switch kind {
	case DrainGroups:
		sum := an.val[:an.prof.ValueBytes()]
		for g := range an.seen {
			if !an.seen[g] {
				continue
			}
			if _, err := an.acc.ReadResetInto(g, sum); err != nil {
				continue
			}
			entries = append(entries, DrainEntry{Key: uint32(g), Val: an.prof.GetValue(sum)})
			an.seen[g] = false
		}
	case DrainHeavyHitters:
		for i := range an.hh {
			if an.hh[i].used {
				entries = append(entries, DrainEntry{Key: an.hh[i].key, Val: an.hh[i].hits})
				an.hh[i] = hhRow{}
			}
		}
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].Val != entries[j].Val {
				return entries[i].Val > entries[j].Val
			}
			return entries[i].Key < entries[j].Key
		})
	case DrainHistogram:
		// The histogram's edges were computed once at admission; the drain
		// reads the counts against them and zeroes the counts in place.
		for _, b := range an.hist.Bins() {
			if b.Count > 0 {
				entries = append(entries, DrainEntry{Key: uint32(b.Exp), Val: float32(b.Count)})
			}
		}
		an.hist.Reset()
	}
	if resetPrune {
		if an.topn != nil {
			an.topn.Reset()
		}
		if an.gmax != nil {
			an.gmax.Reset()
		}
	}
	return entries
}

// handleTuple serves one analytics MsgTuple batch: past the same gate as an
// ADD, the batch folds under the job's home shard lock — charged against
// the same deficit-round-robin ledger as a training bind, one charge per
// batch.
func (s *Switch) handleTuple(p port, pkt []byte, out *transport.DeliveryList) refusal {
	job, seq, epoch, err := decodeDataHeader(pkt)
	if err != nil {
		return s.malformed()
	}
	inc, r := s.gate(p.job, job, epoch)
	if inc == nil {
		return r
	}
	tv, err := decodeTupleView(pkt)
	if err != nil {
		return s.malformed()
	}
	sh := s.shards[s.homeShard(job)]
	sh.mu.Lock()
	ack, r := s.tupleLocked(sh, inc, p.wij, seq, tv)
	sh.mu.Unlock()
	if ack != nil {
		out.Unicast(p.id, ack)
	}
	return r
}

// tupleLocked runs one gated tuple batch against its worker's stop-and-wait
// lane and returns the ack to send (nil: none) or the refusal. Caller holds
// the home shard's lock.
func (s *Switch) tupleLocked(sh *shard, inc *incarnation, wij int, seq uint32, tv tupleView) ([]byte, refusal) {
	if !s.isLive(inc) {
		return nil, s.retired(inc)
	}
	an, c := inc.an, &inc.ctr.shard[s.homeShard(inc.job)]
	if an == nil || !an.opAllowed(tv.op) {
		return nil, inc.refusal(&s.rejClass, AckErrBadClass)
	}
	switch {
	case seq == an.expect[wij]:
		// A NEW batch spends scheduler budget exactly like a training
		// new-chunk bind: over-deficit tenants defer (the client retries
		// after the round turns over), so mixed-class fairness rides the
		// same per-shard DRR ledger.
		if !sh.sched.charge(inc.job, inc.quantum()) {
			c.schedDefers++
			return nil, inc.refusal(&s.rejBackpressure, AckBackpressure)
		}
		an.lastAck[wij] = an.fold(inc.job, seq, tv)
		an.expect[wij] = seq + 1
		c.adds += uint64(tv.count())
		c.completions++
	case seq+1 == an.expect[wij]:
		// Retransmission of the last folded batch: replay its cached ack
		// without folding again.
		c.retransmits++
		if an.lastAck[wij] != nil {
			c.cacheHits++
		}
	default:
		// Neither the lane's next batch nor its last: a gap (dropped,
		// awaiting the retransmit) or garbage.
		return nil, s.malformed()
	}
	return an.lastAck[wij], refusal{}
}

// handleDrain serves an observer MsgDrain: harvest-and-reset one kind of
// analytics state, with nonce-keyed replay so a lost reply does not cost
// the harvested interval.
func (s *Switch) handleDrain(worker, job int, req drainReq, out *transport.DeliveryList) refusal {
	if job >= s.ncap {
		return refusal{&s.rejBadJob, jobNotice(job, AckErrUnknownJob, 0, 0)}
	}
	sh := s.shards[s.homeShard(job)]
	sh.mu.Lock()
	reply, r := s.drainLocked(job, req)
	sh.mu.Unlock()
	if reply != nil {
		out.Unicast(worker, reply)
	}
	return r
}

// drainLocked harvests job's analytics state — or, for a retried nonce,
// replays the cached harvest — and returns the reply to send or the refusal.
// Caller holds the home shard's lock.
func (s *Switch) drainLocked(job int, req drainReq) ([]byte, refusal) {
	inc := s.jobs[job].live.Load()
	switch {
	case inc == nil:
		return nil, refusal{&s.rejBadJob, jobNotice(job, AckErrNotAdmitted, 0, 0)}
	case inc.an == nil:
		return nil, inc.refusal(&s.rejClass, AckErrBadClass)
	case inc.an.lastDrainPkt != nil && inc.an.lastDrainNonce == req.nonce:
		inc.ctr.shard[s.homeShard(job)].cacheHits++
	default:
		entries := inc.an.drain(req.kind, req.flags&DrainFlagResetPrune != 0)
		inc.an.lastDrainNonce, inc.an.lastDrainPkt = req.nonce, encodeDrainReply(job, req.kind, entries)
	}
	return inc.an.lastDrainPkt, refusal{}
}

// homeShard maps a job to the shard whose lock guards its analytics state.
// Jobs spread round-robin so tenants fold and drain in parallel.
func (s *Switch) homeShard(job int) int {
	return job % s.nsh
}

// TupleClient is an analytics tenant's worker-side sender: a stop-and-wait
// MsgTuple stream with cached-ack retransmission, the analytics
// counterpart of Worker.Reduce.
type TupleClient struct {
	// Job and ID locate the tenant lane: the transport port is
	// Cfg.Port(Job, ID).
	Job, ID int
	Fabric  transport.Fabric
	Cfg     Config
	// Epoch is the job's incarnation octet (see Worker.Epoch).
	Epoch uint8
	// Timeout and Retries bound one batch's delivery; values <= 0 mean
	// DefaultTimeout and DefaultRetries, as on Worker.
	Timeout time.Duration
	Retries int

	// SentBatches, Retransmits and BackpressureAcks count the client's
	// protocol activity.
	SentBatches, Retransmits, BackpressureAcks uint64

	seq  uint32
	bufs [][]byte
}

// NewTupleClient builds an analytics sender with the default tuning.
func NewTupleClient(job, id int, fabric transport.Fabric, cfg Config) *TupleClient {
	return &TupleClient{
		Job: job, ID: id, Fabric: fabric, Cfg: cfg,
		Timeout: DefaultTimeout, Retries: DefaultRetries,
	}
}

// Send folds a row stream into the switch under one op, splitting it into
// wire batches transparently. It returns the indices of rows the switch's
// pruning registers kept alive (for fold-only ops the slice is empty).
func (c *TupleClient) Send(op TupleOp, keys []uint32, vals []float32) ([]int, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("aggservice: %d keys for %d values", len(keys), len(vals))
	}
	var survivors []int
	for base := 0; base < len(keys); base += MaxTuplesPerBatch {
		end := base + MaxTuplesPerBatch
		if end > len(keys) {
			end = len(keys)
		}
		alive, err := c.sendOne(op, keys[base:end], vals[base:end])
		if err != nil {
			return survivors, err
		}
		for _, i := range alive {
			survivors = append(survivors, base+i)
		}
	}
	return survivors, nil
}

// sendOne delivers one wire batch stop-and-wait, resending it once per
// receive timeout. A scheduler backpressure notice is counted and waited
// out: the batch goes again when the timeout expires.
func (c *TupleClient) sendOne(op TupleOp, keys []uint32, vals []float32) ([]int, error) {
	timeout, retries := retryBudget(c.Timeout, c.Retries)
	pkt := EncodeTuples(c.Job, c.seq, c.Epoch, op, keys, vals)
	if c.bufs == nil {
		c.bufs = make([][]byte, recvVec)
	}
	var out []int
	sends, err := stopAndWait(c.Fabric, c.Cfg.Port(c.Job, c.ID), pkt, retries+1, timeout, c.bufs, func(msg []byte, _ int) (bool, error) {
		if j, seq, alive, aerr := DecodeTupleAck(msg); aerr == nil && j == c.Job && seq == c.seq {
			for i, s := range alive {
				if i < len(keys) && s {
					out = append(out, i)
				}
			}
			return true, nil
		}
		ack, aerr := DecodeJobAck(msg)
		if aerr != nil || ack.Job != c.Job {
			return false, nil
		}
		switch ack.Status {
		case AckBackpressure:
			// Transient: the DRR round turns over on the switch; wait
			// out the retransmit clock.
			c.BackpressureAcks++
		case AckEvicted, AckDraining:
			if ack.Epoch == c.Epoch {
				return true, fmt.Errorf("aggservice: job %d tuple stream: %w", c.Job, ErrJobEvicted)
			}
		case AckErrBadClass:
			return true, fmt.Errorf("aggservice: job %d tuple stream: %w", c.Job, ErrBadClass)
		}
		return false, nil
	})
	if sends > 0 {
		c.SentBatches++
		c.Retransmits += uint64(sends - 1)
	}
	switch {
	case errors.Is(err, errNoReply):
		return nil, fmt.Errorf("aggservice: job %d worker %d tuple batch %d undelivered after %d attempts", c.Job, c.ID, c.seq, sends)
	case err != nil:
		return nil, err
	}
	c.seq++
	return out, nil
}
