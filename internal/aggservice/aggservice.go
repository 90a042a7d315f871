package aggservice

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// MaxJobs bounds the job-id space: the wire carries a 16-bit job field.
const MaxJobs = 1 << 16

// Config parameterizes the service.
type Config struct {
	// Workers is the number of participating workers per job.
	Workers int
	// Pool is the number of in-flight chunks (slot pool per bank) per job.
	Pool int
	// Modules is the number of vector elements per packet (compiled FPISA
	// modules).
	Modules int
	// Shards is the number of parallel pipeline replicas the switch runs;
	// every job's 2·Pool slots are striped across them (see shardOf). 0
	// means 1 (a single pipeline). Must not exceed the Capacity·2·Pool
	// slots.
	Shards int
	// Jobs is the number of tenant jobs admitted at construction. Each job
	// owns the transport ports [job·Workers, (job+1)·Workers) and, while
	// admitted, 2·Pool slots of its own. 0 means 1.
	Jobs int
	// Capacity is the job-id space: the bound on concurrently admitted
	// jobs (ports are provisioned for Capacity·Workers). Ids beyond the
	// initially admitted Jobs are vacant until a runtime admission. 0
	// means Jobs (a static tenant set with no admission headroom).
	Capacity int
	// Dynamic enables the wire control plane: MsgJobAdmit/MsgJobEvict
	// from the out-of-band observer frame. When false those messages are
	// answered with AckErrDisabled, so an unauthenticated UDP peer cannot
	// churn the tenant set unless the operator opted in. The in-process
	// Switch.Admit/Evict methods work regardless.
	Dynamic bool
	// DrainTimeout bounds how long an evicted job's in-flight slots may
	// keep it draining: when the drain has not completed by then, the job
	// is force-released (partial sums discarded). 0 means
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Weights assigns deficit-round-robin scheduler weights to the
	// initially admitted jobs: job j gets Weights[j]. Missing entries and
	// zero mean weight 1; jobs admitted at runtime carry the weight named
	// in their admit request (JobSpec.Weight). A
	// weight-w tenant's new-chunk binds converge to w shares of pipeline
	// time under contention.
	Weights []int
	// Profiles assigns numeric profiles to the initially admitted jobs:
	// job j computes under Profiles[j]. Missing entries mean the zero
	// profile (f32, no guard bits, truncating read-out — the paper's
	// standard arithmetic); jobs admitted at runtime carry the profile
	// named in their admit request (JobSpec.Profile).
	// Where Weights share pipeline time, Profiles share precision: each
	// tenant's slots run the arithmetic it negotiated.
	Profiles []core.NumericProfile
	// Classes assigns workload classes to the initially admitted jobs:
	// job j serves Classes[j]. Missing entries mean the zero descriptor
	// (a training job — today's behavior); jobs admitted at runtime carry
	// the class named in their admit request (JobSpec.Class). Query and
	// telemetry jobs fold MsgTuple streams into
	// per-job analytics registers instead of ADDs into chunk slots,
	// scheduled by the same deficit-round-robin ledger (see analytics.go).
	Classes []AdmitClass
	// Mode selects FPISA or FPISA-A.
	Mode core.Mode
	// Arch is the switch architecture.
	Arch pisa.Arch
	// Uplink, when set, makes this switch a LEAF of an aggregation tree:
	// each locally-completed chunk's partial sum is re-emitted as an ADD
	// to the parent switch, and the job's workers only receive the final
	// RESULT once the parent's tree-wide aggregate returns (see tree.go).
	// The parent is an ordinary Switch whose Workers is the leaf count.
	Uplink *UplinkConfig
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("aggservice: workers %d", c.Workers)
	}
	if c.Pool < 1 {
		return fmt.Errorf("aggservice: pool %d", c.Pool)
	}
	if c.Modules < 1 {
		return fmt.Errorf("aggservice: modules %d", c.Modules)
	}
	if c.Shards < 0 {
		return fmt.Errorf("aggservice: shards %d", c.Shards)
	}
	if c.Jobs < 0 {
		return fmt.Errorf("aggservice: jobs %d", c.Jobs)
	}
	if c.Jobs > MaxJobs {
		return fmt.Errorf("aggservice: %d jobs exceed the 16-bit job-id space", c.Jobs)
	}
	if len(c.Weights) > c.jobs() {
		return fmt.Errorf("aggservice: %d weights for %d initially admitted jobs", len(c.Weights), c.jobs())
	}
	for j, w := range c.Weights {
		if w < 0 || w > MaxWeight {
			return fmt.Errorf("aggservice: job %d weight %d outside [0, %d]", j, w, MaxWeight)
		}
	}
	if len(c.Profiles) > c.jobs() {
		return fmt.Errorf("aggservice: %d profiles for %d initially admitted jobs", len(c.Profiles), c.jobs())
	}
	for j, p := range c.Profiles {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("aggservice: job %d profile: %w", j, err)
		}
	}
	if len(c.Classes) > c.jobs() {
		return fmt.Errorf("aggservice: %d classes for %d initially admitted jobs", len(c.Classes), c.jobs())
	}
	for j, ac := range c.Classes {
		if err := c.validateClass(ac); err != nil {
			return fmt.Errorf("aggservice: job %d class: %w", j, err)
		}
	}
	if c.Capacity < 0 {
		return fmt.Errorf("aggservice: capacity %d", c.Capacity)
	}
	if c.Capacity > MaxJobs {
		return fmt.Errorf("aggservice: capacity %d exceeds the 16-bit job-id space", c.Capacity)
	}
	if c.Capacity != 0 && c.Capacity < c.jobs() {
		return fmt.Errorf("aggservice: capacity %d below the %d initially admitted jobs", c.Capacity, c.jobs())
	}
	if c.DrainTimeout < 0 {
		return fmt.Errorf("aggservice: drain timeout %v", c.DrainTimeout)
	}
	if slots := c.capacity() * 2 * c.Pool; c.Shards > slots {
		return fmt.Errorf("aggservice: %d shards exceed the %d slots", c.Shards, slots)
	}
	if u := c.Uplink; u != nil {
		if u.Fabric == nil {
			return fmt.Errorf("aggservice: uplink without a fabric")
		}
		if u.Leaves < 1 {
			return fmt.Errorf("aggservice: uplink leaves %d", u.Leaves)
		}
		if u.LeafID < 0 || u.LeafID >= u.Leaves {
			return fmt.Errorf("aggservice: uplink leaf id %d of %d leaves", u.LeafID, u.Leaves)
		}
		if u.Control == nil {
			return fmt.Errorf("aggservice: uplink without a parent control")
		}
		if u.Push == nil {
			return fmt.Errorf("aggservice: uplink without a downlink pusher")
		}
	}
	return nil
}

// shards returns the effective shard count.
func (c Config) shards() int {
	if c.Shards == 0 {
		return 1
	}
	return c.Shards
}

// jobs returns the effective initially-admitted job count.
func (c Config) jobs() int {
	if c.Jobs == 0 {
		return 1
	}
	return c.Jobs
}

// capacity returns the effective job-id space.
func (c Config) capacity() int {
	if c.Capacity == 0 {
		return c.jobs()
	}
	return c.Capacity
}

// drainTimeout returns the effective drain bound.
func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout == 0 {
		return DefaultDrainTimeout
	}
	return c.DrainTimeout
}

// weightOf returns the effective scheduler weight of initially admitted
// job j (missing and zero entries mean 1).
func (c Config) weightOf(j int) int {
	if j >= len(c.Weights) || c.Weights[j] == 0 {
		return 1
	}
	return c.Weights[j]
}

// profileOf returns the numeric profile of initially admitted job j
// (missing entries mean the zero profile: f32/trunc).
func (c Config) profileOf(j int) core.NumericProfile {
	if j >= len(c.Profiles) {
		return core.DefaultProfile
	}
	return c.Profiles[j]
}

// Ports returns the total transport port count: Capacity · Workers (ports
// for admissible jobs are provisioned up front). Job j's worker i sends
// and receives on port j·Workers + i.
func (c Config) Ports() int { return c.capacity() * c.Workers }

// ClampShards caps Shards at the provisioned slot count — the adjustment
// a daemon applies to a GOMAXPROCS-derived default before Validate, kept
// here so the slot arithmetic lives in one place.
func (c *Config) ClampShards() {
	if slots := c.capacity() * 2 * c.Pool; c.Shards > slots {
		c.Shards = slots
	}
}

// Port maps (job, worker-in-job) to the transport port.
func (c Config) Port(job, worker int) int { return job*c.Workers + worker }

// span is the period of a job's chunk clock: the largest multiple of the
// 2·Pool slots the 32-bit chunk field holds, so slotOf runs on across the
// wrap (2³² for a power-of-two Pool).
func (c Config) span() int64 {
	slots := int64(2 * c.Pool)
	return (1 << 32) / slots * slots
}

// ahead is how far chunk runs ahead of base on a chunk clock of period span:
// their distance modulo span, by one subtract and a conditional add.
func ahead(chunk uint32, base, span int64) int64 {
	d := int64(chunk) - base
	if d < 0 {
		d += span
	}
	return d
}

// aggregator is the arithmetic surface a shard drives — the seam that lets
// tests inject faults and count operations. It moves wire bytes
// (core.ProfileAggregator.AddInto): an ADD's value region in, the sums out
// into a non-nil out, and the overflow bit the wire carries. SetInto is the
// first ADD of a slot version: it adds into the slot as if freshly zeroed.
type aggregator interface {
	AddInto(idx int, vals, out []byte) (ovf bool, err error)
	SetInto(idx int, vals, out []byte) (ovf bool, err error)
	ReadResetInto(idx int, out []byte) (ovf bool, err error)
}

// JobStats is one tenant job's protocol counters.
type JobStats struct {
	// Phase is the job's lifecycle state (vacant/admitted/draining).
	Phase JobPhase
	// Weight is the job's deficit-round-robin scheduler weight (0 while
	// vacant): its share of pipeline time relative to the other admitted
	// jobs under contention.
	Weight int
	// Profile is the numeric profile the job's admission negotiated (the
	// zero profile while vacant): the wire format, guard bits and rounding
	// its slots compute under.
	Profile core.NumericProfile
	// Class is the workload-class descriptor the job's admission
	// negotiated (the zero descriptor — training — while vacant). For
	// analytics jobs Adds counts tuples folded and Completions counts
	// tuple batches.
	Class AdmitClass
	// Adds counts values aggregated into the switch for this job.
	Adds uint64
	// Retransmits counts duplicate ADDs observed — the switch-side view
	// of the job's retransmission traffic.
	Retransmits uint64
	// Completions counts chunks fully aggregated.
	Completions uint64
	// SchedDefers counts new-chunk binds deferred by the deficit-round-
	// robin scheduler (the job was over its deficit while other tenants
	// held unspent budget); each was answered with an AckBackpressure
	// notice and recovered by the sender's retransmit path.
	SchedDefers uint64
	// Outstanding is the gauge of slots currently aggregating.
	Outstanding int64
	// CacheHits counts duplicate ADDs answered from a slot's cached
	// RESULT packet (the loss-recovery replay path).
	CacheHits uint64
	// CacheBytes is the gauge of RESULT bytes currently cached for the
	// job. A cached RESULT lives exactly as long as its slot version — it
	// is freed when the slot rebinds to a later chunk and when the job is
	// released — so the gauge is bounded by 2·Pool entries.
	CacheBytes uint64
	// Coalesced counts completed chunks whose RESULT rode a run-length
	// MsgResultRun reply instead of its own per-chunk datagram — chunks
	// that completed consecutively in one batch (or fanned down from a
	// parent switch together) share one downlink message.
	Coalesced uint64
}

// WireRejects counts datagrams HandleBatch refused, by cause.
type WireRejects struct {
	// Legacy is always 0: a datagram that does not lead with WireVersion is
	// Malformed. The field stays only because the benchmark harness still
	// sums it.
	Legacy uint64
	// Malformed counts short, truncated or mistyped frames, including the
	// reserved message type 2.
	Malformed uint64
	// BadJob counts messages naming a job the switch does not admit
	// (outside the capacity, or a vacant/evicted job id).
	BadJob uint64
	// CrossJob counts messages whose job header does not match the
	// sending port's job partition — a tenant reaching for another
	// tenant's slots.
	CrossJob uint64
	// Draining counts ADDs that tried to bind a NEW chunk for a job being
	// evicted; in-flight chunks still complete, new ones are refused with
	// a MsgJobAck notice.
	Draining uint64
	// Backpressure counts ADDs deferred by the deficit-round-robin
	// scheduler across all jobs (the sum of every job's SchedDefers):
	// over-deficit new-chunk binds dropped with an AckBackpressure notice
	// while other tenants held unspent budget.
	Backpressure uint64
	// Stale counts ADDs whose incarnation epoch octet does not match the
	// job's current incarnation — datagrams buffered in the network from
	// an evicted incarnation of a re-admitted job id.
	Stale uint64
	// BadClass counts messages refused by the workload-class guard: ADDs
	// sent to an analytics job, tuples sent to a training job, or tuple
	// ops the job's class descriptor does not provision. Each is answered
	// with an AckErrBadClass notice.
	BadClass uint64
}

// incarnation is one admitted life of a job id and the one home of
// everything the switch keeps for the tenant — slots, arithmetic, class and
// register state. Switch.Admit builds it with every slot free; its own fields
// never change afterwards (Evict alone flips the draining flag and arms the
// drain timer), the slots and registers behind it change under their shard's
// lock. It is published with one store to jobState.live and retired with one
// store of nil, which drops the tenant's state with it, so a reader holds a
// whole tenant or none. Hot-path entries load it once, carry the pointer, and
// revalidate under the shard lock by pointer identity: the counters,
// scheduler ledger and downlink ports are indexed by the job id, which the
// next incarnation inherits, so work gated under a retired record must not
// reach them.
type incarnation struct {
	job int
	// epoch is the job's release counter at admission; its low octet is
	// the incarnation's wire epoch.
	epoch uint64
	// spec is the admission as applied (weight clamped to ≥ 1).
	spec JobSpec
	// banks holds a training job's 2·Pool slots, one bank per shard: the
	// slots striped onto shard k (see shardOf) are banks[k], guarded by
	// shard k's lock. Nil for analytics jobs.
	banks []bank
	// an is an analytics job's register state, guarded by the home shard's
	// lock (see homeShard). Nil for training jobs.
	an *analyticsJob
	// up is a tree leaf's uplink client for this incarnation (see tree.go).
	// Nil on a switch without an Uplink.
	up *uplinkJob
	// draining is set by Evict: in-flight chunks may complete, new binds
	// are refused.
	draining atomic.Bool
	// drainTimer force-releases the incarnation when its drain outlives
	// Config.DrainTimeout; nil unless Evict armed it. Guarded by lifeMu.
	drainTimer *time.Timer
}

// phase is the lifecycle state a (possibly nil) incarnation stands for.
func (inc *incarnation) phase() JobPhase {
	switch {
	case inc == nil:
		return PhaseVacant
	case inc.draining.Load():
		return PhaseDraining
	}
	return PhaseAdmitted
}

// quantum is the incarnation's per-round deficit replenishment: weight · the
// per-weight-unit bind budget.
func (inc *incarnation) quantum() int64 { return int64(inc.spec.Weight) * drrQuantum }

// jobState is a job id's live incarnation plus its counters; all atomic so
// shards (and the hot path racing the control plane) touch them without a
// shared lock. The counters belong to the id, not the incarnation: an
// evicted id keeps its last incarnation's totals until the next Admit
// zeroes them.
type jobState struct {
	adds, retransmits, completions atomic.Uint64
	schedDefers                    atomic.Uint64
	cacheHits                      atomic.Uint64
	coalesced                      atomic.Uint64
	cacheBytes                     atomic.Int64
	outstanding                    atomic.Int64
	// live is the job's current incarnation, nil while the id is vacant.
	// Stored under lifeMu (Admit publishes, release retires), loaded
	// lock-free everywhere.
	live atomic.Pointer[incarnation]
	// epoch counts releases; it names the next incarnation's wire octet.
	epoch atomic.Uint64
}

// reset zeroes a jobState's counters for a fresh incarnation.
func (js *jobState) reset() {
	js.adds.Store(0)
	js.retransmits.Store(0)
	js.completions.Store(0)
	js.schedDefers.Store(0)
	js.cacheHits.Store(0)
	js.coalesced.Store(0)
	js.cacheBytes.Store(0)
	js.outstanding.Store(0)
}

// Switch is the service's switch side: N parallel FPISA pipeline replicas
// (shards), each a lock and a scheduler. An admitted job owns 2·Pool slots —
// registers plus the protocol state a production P4 program holds in
// additional registers (the seen-bitmap and result cache) — striped across
// the shards. HandleBatch may be called concurrently; packets for different
// shards proceed in parallel.
type Switch struct {
	cfg     Config
	nsh     int
	njobs   int   // initially admitted jobs
	ncap    int   // admissible job-id space
	perBank int   // slots per (job, shard) bank
	span    int64 // the chunk clock's period, Config.span

	shards []*shard
	jobs   []jobState

	// util is the resource report of the default FPISA program for this
	// switch's shape (compiled once per shape per process, see compile):
	// the witness that the configured shape fits the switch.
	// Switches of one shape share its Stages; Utilization hands out copies.
	// No packet runs through the program; every bank sums on a
	// core.ProfileAggregator.
	util pisa.Utilization

	// OnLifecycle, when set before the switch starts handling traffic, is
	// called on every admit / drain-begin / release transition (under the
	// lifecycle lock — keep it fast; JobStats is safe to call from it).
	OnLifecycle func(job int, ev LifecycleEvent)

	// lifeMu orders lifecycle transitions; it guards every incarnation's
	// drain timer and every store to a jobState.live. Lock order is
	// lifeMu → shard.mu, never the reverse: the hot path only loads live.
	lifeMu sync.Mutex

	// scratchPool recycles the per-HandleBatch grouping state so the hot
	// path does not allocate per packet vector.
	scratchPool sync.Pool

	rejMalformed, rejBadJob, rejCrossJob, rejDraining, rejStale atomic.Uint64
	rejBackpressure, rejClass                                   atomic.Uint64
}

// shard is one pipeline replica: a lock and its deficit-round-robin
// scheduler instance. mu also guards the stripe of every live incarnation's
// slots that maps onto this shard (incarnation.banks[k]) and the analytics
// registers of the jobs homed here.
type shard struct {
	mu    sync.Mutex
	sched drrSched
}

// bank is the stripe of one training incarnation's slots on one shard: the
// aggregator's registers and the protocol state of the same slots, under one
// bank-local index (local slot / Shards). Each incarnation has its own
// aggregator, which is what lets tenants run different arithmetic.
type bank struct {
	agg  aggregator
	slot []slotState
}

// slotState is a chunk's in-flight life at the switch: free (chunk -1) →
// aggregating → complete → final (cached set), until the slot rebinds to a
// later chunk or its incarnation is released. On a tree leaf a complete
// chunk waits for the parent's aggregate with nothing cached; its uplink ADD
// is owed by the incarnation's uplink sender (see tree.go).
type slotState struct {
	chunk  int64 // bound chunk id in [0, span), -1 when free
	seen   []bool
	nSeen  int
	cached []byte // RESULT packet, nil until final
}

// aggregating reports whether the slot holds a chunk still waiting for
// contributions — what the job's Outstanding gauge counts and a drain waits
// on.
func (st *slotState) aggregating() bool { return st.chunk >= 0 && st.nSeen < len(st.seen) }

// NewSwitch checks that the configured shape fits (compile), provisions the
// shards, then admits the initial jobs through Admit — static and runtime
// tenants are built by the same path. Only the first switch of a shape in a
// process pays for compiling the FPISA program.
func NewSwitch(cfg Config) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsh := cfg.shards()
	njobs := cfg.jobs()
	ncap := cfg.capacity()
	// One (job, shard) bank covers the job's slots striped onto that shard —
	// at most ceil(2·Pool / shards) of them.
	perBank := (2*cfg.Pool + nsh - 1) / nsh
	util, err := compile(cfg, perBank)
	if err != nil {
		return nil, err
	}
	s := &Switch{
		cfg: cfg, nsh: nsh, njobs: njobs, ncap: ncap, perBank: perBank, span: cfg.span(),
		jobs: make([]jobState, ncap),
		util: util,
	}
	for k := 0; k < nsh; k++ {
		s.shards = append(s.shards, &shard{sched: newDRRSched(ncap, schedRoundAge)})
	}
	s.scratchPool.New = func() any {
		return &batchScratch{byShard: make([][]int, nsh)}
	}
	for j := 0; j < njobs; j++ {
		spec := JobSpec{Weight: cfg.weightOf(j), Profile: cfg.profileOf(j), Class: cfg.classOf(j)}
		if err := s.Admit(j, spec); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// shape is everything compile reads of a Config: switches with equal shapes
// compile the identical program.
type shape struct {
	mode    core.Mode
	modules int
	slots   int
	arch    pisa.Arch
}

// compiled holds the resource report of every shape compiled so far in this
// process. Only successes are stored, so a refused shape is compiled, and
// refused, again on every call.
var (
	compiledMu sync.Mutex
	compiled   = map[shape]pisa.Utilization{}
)

// compile builds and compiles the default FPISA program for the configured
// mode, module count and architecture, with a bank's slots, and returns its
// resource report. A shape the switch cannot hold — more modules than
// core.MaxModules(arch), full FPISA without the RSAW extension, or more
// register SRAM than a stage holds — fails here, before any job is admitted.
// The program is a compile-time artifact, so it is compiled once per shape
// per process; every later switch of that shape reuses the report.
func compile(cfg Config, slots int) (pisa.Utilization, error) {
	key := shape{mode: cfg.Mode, modules: cfg.Modules, slots: slots, arch: cfg.Arch}
	compiledMu.Lock()
	u, ok := compiled[key]
	compiledMu.Unlock()
	if ok {
		return u, nil
	}
	prog, _, err := core.BuildProgram(core.DefaultFP32(cfg.Mode), cfg.Modules, slots, cfg.Arch)
	if err != nil {
		return pisa.Utilization{}, err
	}
	sw, err := pisa.New(prog, cfg.Arch)
	if err != nil {
		return pisa.Utilization{}, fmt.Errorf("aggservice: FPISA program failed to compile: %w", err)
	}
	u = sw.Utilization()
	compiledMu.Lock()
	compiled[key] = u
	compiledMu.Unlock()
	return u, nil
}

// newBanks builds a training incarnation's per-shard banks under profile p:
// one accumulator bank per shard, replicated from a prototype built from
// the job's Config, and every slot free.
func (s *Switch) newBanks(p core.NumericProfile) ([]bank, error) {
	proto, err := core.NewProfileAggregator(p, s.cfg.Mode, s.cfg.Modules, s.perBank, s.cfg.Arch)
	if err != nil {
		return nil, err
	}
	w := s.cfg.Workers
	banks := make([]bank, s.nsh)
	for k := range banks {
		banks[k] = bank{agg: proto.Replicate(), slot: make([]slotState, s.perBank)}
		// One seen array per bank; each slot's flags are a capped window of
		// it, so clear and len act on that slot's Workers flags only.
		seen := make([]bool, s.perBank*w)
		for i := range banks[k].slot {
			banks[k].slot[i] = slotState{chunk: -1, seen: seen[i*w : (i+1)*w : (i+1)*w]}
		}
	}
	return banks, nil
}

// Utilization is the resource report of the default FPISA program compiled
// for this switch's shape (the paper's Table 3 layout). Its Stages are a
// copy: switches of one shape share the report.
func (s *Switch) Utilization() pisa.Utilization {
	u := s.util
	u.Stages = slices.Clone(u.Stages)
	return u
}

// Shards returns the effective shard count.
func (s *Switch) Shards() int { return s.nsh }

// Jobs returns the admissible job-id space (Config.Capacity); use JobStats'
// Phase to tell live tenants from vacant ids.
func (s *Switch) Jobs() int { return s.ncap }

// slotOf maps a chunk to its job-local slot in [0, 2·Pool): SwitchML's
// two-bank self-clocked slot.
func (s *Switch) slotOf(chunk uint32) int {
	pool := uint32(s.cfg.Pool)
	return int(chunk%pool + pool*(chunk/pool%2))
}

// shardOf maps a job's local slot to the shard guarding it: the jobs' slots
// laid end to end in id order and dealt round-robin over the shards, so
// consecutive slots sit behind consecutive locks and, when Shards does not
// divide 2·Pool, consecutive jobs start on different shards.
func (s *Switch) shardOf(job, slot int) int { return (job*2*s.cfg.Pool + slot) % s.nsh }

// slotAt returns inc's local slot; the caller holds the lock of shard
// shardOf(inc.job, slot).
func (s *Switch) slotAt(inc *incarnation, slot int) *slotState {
	return &inc.banks[s.shardOf(inc.job, slot)].slot[slot/s.nsh]
}

// HandleBatch implements transport.BatchHandler: it ingests one worker's
// whole packet vector per invocation, each datagram through admit. ADDs are
// validated, grouped by destination shard, and each shard's
// group is processed under ONE lock acquisition — one lock round per shard
// per batch instead of one per chunk — so a full protocol window costs as
// many lock rounds as it spans shards. It is safe for concurrent use:
// only the shards owning the batch's slots are locked, one at a time.
// worker is the transport port (job·Workers + worker-in-job), or
// transport.ObserverWorker for an out-of-band observer, which may only
// drive the control plane (stats, lifecycle, drains) and gets every reply
// back whatever worker it is addressed to.
func (s *Switch) HandleBatch(worker int, pkts [][]byte, out *transport.DeliveryList) {
	if worker < transport.ObserverWorker || worker >= s.ncap*s.cfg.Workers { // Config.Ports
		return
	}
	sc := s.scratchPool.Get().(*batchScratch)
	defer s.putScratch(sc)
	for _, pkt := range pkts {
		if r := s.admit(worker, pkt, sc, out); r.refused() {
			s.refuse(worker, r, out)
		}
	}
	s.processAdds(worker, sc, out)
}

// refusal is why a datagram was turned away: the WireRejects bucket it
// counts in and, where the sender can act on it, the notice to bounce (see
// jobNotice). The zero refusal means the datagram was taken.
type refusal struct {
	bucket *atomic.Uint64
	notice []byte
}

func (r refusal) refused() bool { return r.bucket != nil }

// refuse is the one place a turned-away datagram is counted and, where the
// sender can act on it, noticed.
func (s *Switch) refuse(worker int, r refusal, out *transport.DeliveryList) {
	r.bucket.Add(1)
	if r.notice != nil {
		out.Unicast(worker, r.notice)
	}
}

// malformed is the silent refusal of a datagram that does not parse.
func (s *Switch) malformed() refusal { return refusal{bucket: &s.rejMalformed} }

// refusal is the noticed refusal of a message that reached a live
// incarnation, echoing its own epoch octet so only its workers act on it.
func (inc *incarnation) refusal(bucket *atomic.Uint64, status AckStatus) refusal {
	return refusal{bucket, jobNotice(inc.job, status, uint8(inc.epoch), inc.spec.Weight)}
}

// admit is the switch's one front door: decode the header, authorise the
// sender by the type's msgTable row, dispatch to the type's decoder (which
// checks the length) and handler — which receives decoded values and indexes
// no packet.
func (s *Switch) admit(worker int, pkt []byte, sc *batchScratch, out *transport.DeliveryList) refusal {
	typ, job, err := decodeHeader(pkt)
	if err != nil {
		return s.malformed()
	}
	// Observers drive only the control plane, and a tenant's worker port
	// must not drive another tenant's lifecycle: the table says who may.
	from := fromWorker
	if worker == transport.ObserverWorker {
		from = fromObserver
	}
	if msgTable[typ].from&from == 0 {
		return s.malformed()
	}
	switch typ {
	case MsgAdd:
		return s.classifyAdd(worker, pkt, sc)
	case MsgTuple:
		return s.handleTuple(worker, pkt, out)
	case MsgJobAdmit:
		req, err := DecodeJobAdmit(pkt)
		if err != nil {
			return s.malformed()
		}
		s.handleLifecycle(worker, typ, req, out)
	case MsgDrain:
		req, err := decodeDrain(pkt)
		if err != nil {
			return s.malformed()
		}
		return s.handleDrain(worker, job, req, out)
	case MsgStats, MsgJobEvict:
		// The header was the whole message.
		if decodeLen(pkt, typ) != nil {
			return s.malformed()
		}
		if typ == MsgStats {
			return s.handleStats(worker, job, out)
		}
		s.handleLifecycle(worker, typ, JobAdmit{Job: job}, out)
	}
	return refusal{}
}

// batchScratch is one HandleBatch invocation's reusable grouping state,
// recycled through Switch.scratchPool.
type batchScratch struct {
	adds    []addReq
	byShard [][]int        // indices into adds, grouped by destination shard
	touched []int          // shards with pending ADDs, in first-touch order
	drains  []*incarnation // draining incarnations that completed a chunk this round
	done    []resDone      // completed chunks awaiting run-coalesced delivery
	ups     []upReq        // completed chunks awaiting their uplink offer (tree leaves)
	items   [][]byte       // packet-vector scratch: emitResults' run splices, then submitUplinks' send vectors
}

// resDone is one completed chunk's RESULT waiting for the batch-end
// delivery pass, where consecutive chunks coalesce into run replies.
type resDone struct {
	job   int
	chunk uint32
	pkt   []byte
}

// upReq is one locally-complete chunk whose partial sum is offered to the
// uplink sender once the shard lock is released (see tree.go): pkt is its
// parent-bound ADD, ovf the leaf-level overflow of the sum.
type upReq struct {
	inc   *incarnation // leaf incarnation the completion was observed under
	chunk uint32
	pkt   []byte
	ovf   bool
}

// addReq is one validated ADD waiting for its shard's lock round; vals
// views the datagram's value region, for this HandleBatch call only.
type addReq struct {
	inc   *incarnation
	chunk uint32
	slot  int // job-local slot
	vals  []byte
}

func (s *Switch) putScratch(sc *batchScratch) {
	clear(sc.adds)
	sc.adds = sc.adds[:0]
	for _, k := range sc.touched {
		sc.byShard[k] = sc.byShard[k][:0]
	}
	sc.touched = sc.touched[:0]
	sc.drains = sc.drains[:0]
	for i := range sc.done {
		sc.done[i].pkt = nil
	}
	sc.done = sc.done[:0]
	clear(sc.ups)
	sc.ups = sc.ups[:0]
	for i := range sc.items {
		sc.items[i] = nil
	}
	sc.items = sc.items[:0]
	s.scratchPool.Put(sc)
}

// handleStats answers a per-job stats request to the requesting port.
func (s *Switch) handleStats(worker, job int, out *transport.DeliveryList) refusal {
	if job >= s.ncap {
		// Answered, so a probe can tell "unknown job" from a lost datagram.
		return refusal{&s.rejBadJob, jobNotice(job, AckErrUnknownJob, 0, 0)}
	}
	st, _ := s.JobStats(job)
	out.Unicast(worker, encodeStatsReply(job, st))
	return refusal{}
}

// gate is the worker-port admission check every data-plane message (ADD,
// TUPLE) passes first: it resolves the message's job header to the live
// incarnation the packet was sent under, or refuses it — where the sender
// can act on that, with a notice.
func (s *Switch) gate(worker, job int, epoch uint8) (*incarnation, refusal) {
	if job >= s.ncap {
		return nil, refusal{bucket: &s.rejBadJob}
	}
	// The sending port is bound to its job partition: a packet claiming
	// another tenant's job id would reach that tenant's slots, so it is
	// refused before any slot state is touched.
	if worker/s.cfg.Workers != job {
		return nil, refusal{bucket: &s.rejCrossJob}
	}
	// Eviction notices echo the OFFENDING packet's epoch octet, not the
	// job's current one: a worker aborts only on a notice matching its own
	// incarnation, so a notice provoked by one stale buffered datagram can
	// never kill the re-admitted incarnation sharing the port.
	inc := s.jobs[job].live.Load()
	if inc == nil {
		// An evicted (or never-admitted) job id on its own port: tell the
		// worker so it can fail fast instead of retransmitting blind.
		return nil, refusal{&s.rejBadJob, jobNotice(job, AckEvicted, epoch, 0)}
	}
	if epoch != uint8(inc.epoch) {
		// A datagram buffered in the network from an evicted incarnation
		// of this (re-admitted) job id: without the epoch octet it would
		// bind a stale chunk into the fresh incarnation (see doc.go).
		return nil, refusal{&s.rejStale, jobNotice(job, AckEvicted, epoch, 0)}
	}
	return inc, refusal{}
}

// isLive reports whether inc is still its job's live incarnation — the
// revalidation every shard-locked section runs before touching the
// incarnation's slots or registers.
func (s *Switch) isLive(inc *incarnation) bool { return s.jobs[inc.job].live.Load() == inc }

// retired is the refusal of a worker's message that outlived the incarnation
// it was gated under: the notice carries inc's own epoch octet (and no live
// weight), so only that incarnation's workers abort on it.
func (s *Switch) retired(inc *incarnation) refusal {
	return refusal{&s.rejBadJob, jobNotice(inc.job, AckEvicted, uint8(inc.epoch), 0)}
}

// classifyAdd validates one ADD message against its incarnation and queues
// it, with a view of its values, for its slot's shard; refusals surface
// here so the shard lock rounds only see bindable work.
func (s *Switch) classifyAdd(worker int, pkt []byte, sc *batchScratch) refusal {
	job, chunk, epoch, err := decodeDataHeader(pkt)
	if err != nil || int64(chunk) >= s.span {
		return s.malformed()
	}
	inc, r := s.gate(worker, job, epoch)
	if inc == nil {
		return r
	}
	if inc.an != nil {
		// An analytics tenant owns this job id: it holds pruning registers
		// and group accumulators, not chunk slots — ADDs have nothing to
		// bind into.
		return inc.refusal(&s.rejClass, AckErrBadClass)
	}
	// The exact payload length depends on the job's negotiated profile, so
	// it is checked only now that the job is known.
	vals, err := addValues(pkt, s.cfg.Modules, inc.spec.Profile)
	if err != nil {
		return s.malformed()
	}
	slot := s.slotOf(chunk)
	sc.queue(s.shardOf(job, slot), addReq{inc: inc, chunk: chunk, slot: slot, vals: vals})
	return refusal{}
}

// queue appends an ADD to its shard's group, tracking first use.
func (sc *batchScratch) queue(shard int, a addReq) {
	if len(sc.byShard[shard]) == 0 {
		sc.touched = append(sc.touched, shard)
	}
	sc.adds = append(sc.adds, a)
	sc.byShard[shard] = append(sc.byShard[shard], len(sc.adds)-1)
}

// processAdds drives the queued ADDs shard by shard: one lock round per
// shard covers that shard's whole share of the batch. Drain completions
// collected under a shard's lock run right after it is released (they take
// lifeMu and other shard locks).
func (s *Switch) processAdds(worker int, sc *batchScratch, out *transport.DeliveryList) {
	for _, k := range sc.touched {
		sh := s.shards[k]
		sh.mu.Lock()
		for _, idx := range sc.byShard[k] {
			if r := s.slotHandleLocked(k, &sc.adds[idx], worker, sc, out); r.refused() {
				s.refuse(worker, r, out)
			}
		}
		sh.mu.Unlock()
		for _, inc := range sc.drains {
			s.finishDrain(inc, false)
		}
		clear(sc.drains)
		sc.drains = sc.drains[:0]
	}
	s.emitResults(sc, out)
	s.submitUplinks(sc)
}

// slotHandleLocked runs the slot protocol for one queued ADD of shard k's
// group; the caller holds that shard's lock for the whole group. Deliveries
// are appended to out; deferred work that needs other locks or does I/O
// (drain completion, uplink sends) is queued on the scratch for after the
// unlock. ADDs the protocol drops by design (stale, duplicate) are not refused.
func (s *Switch) slotHandleLocked(k int, a *addReq, worker int, sc *batchScratch, out *transport.DeliveryList) refusal {
	inc := a.inc
	if !s.isLive(inc) {
		return s.retired(inc)
	}
	sh := s.shards[k]
	job, prof := inc.job, inc.spec.Profile
	js := &s.jobs[job]
	wij := worker % s.cfg.Workers
	// One bank-local index names the slot's registers and its protocol state.
	b, bi := &inc.banks[k], a.slot/s.nsh
	st := &b.slot[bi]
	chunk := a.chunk

	// Serial-number arithmetic on the job's chunk clock: a free slot binds
	// any chunk; a bound one binds a chunk less than half the span ahead of
	// its own and drops one behind it, on either side of the wrap.
	d := ahead(chunk, st.chunk, s.span)
	fresh := st.chunk < 0 || (d != 0 && 2*d < s.span)
	switch {
	case !fresh && d != 0:
		// Stale retransmit for a chunk every worker already completed
		// (guaranteed by the self-clocked window); ignore.
		return refusal{}
	case fresh:
		// First packet of a new chunk binds the slot (pool versioning).
		// A draining job may finish chunks already in flight but binds
		// nothing new — that is what lets it quiesce.
		if inc.draining.Load() {
			return inc.refusal(&s.rejDraining, AckDraining)
		}
		// Binding a new chunk is the unit of pipeline time the deficit-
		// round-robin scheduler meters: an over-deficit tenant is deferred
		// while other demanding tenants hold unspent budget, told with an
		// AckBackpressure notice (so its worker waits instead of hammering
		// retransmits), and recovers the chunk through its normal
		// retransmit path in a later round. Retransmits of
		// in-flight chunks never reach this branch and stay free.
		if !sh.sched.charge(job, inc.quantum()) {
			js.schedDefers.Add(1)
			return inc.refusal(&s.rejBackpressure, AckBackpressure)
		}
	case st.seen[wij]:
		js.retransmits.Add(1)
		if st.cached != nil {
			// The worker missed the broadcast; replay the result.
			js.cacheHits.Add(1)
			out.Unicast(worker, st.cached)
		}
		return refusal{} // duplicate while aggregation is in progress
	}

	// Aggregate first, account afterwards: if the aggregator rejects the
	// add, the slot must stay retransmittable — marking the worker seen
	// before a failed add would drop its contribution for good while the
	// protocol believes it arrived, completing the chunk with a wrong sum.
	// Only the ADD that completes the chunk reads the running sums, straight
	// into the packet they leave in (the RESULT, or a leaf's uplink ADD);
	// every other one passes a nil out, so no response is built.
	var pkt, sums []byte
	nSeen := st.nSeen + 1 // once this ADD counts
	if fresh {
		nSeen = 1
	}
	if nSeen == s.cfg.Workers {
		if s.cfg.Uplink != nil {
			pkt, sums = newAdd(job, chunk, inc.up.parentEpoch, s.cfg.Modules, prof)
		} else {
			pkt, sums = newResult(job, chunk, s.cfg.Modules, prof)
		}
	}
	var ovf bool
	var err error
	if fresh {
		// The first ADD of a slot version binds by overwrite: one SetInto
		// stores the values over whatever the slot's previous chunk
		// left, and the slot is bound only once that call has succeeded —
		// a failed one leaves the slot's protocol state as it was and
		// refunds the scheduler, so the job is not billed for work that
		// never ran. Rebinding ends the previous slot version: its cached
		// RESULT goes with it.
		if ovf, err = b.agg.SetInto(bi, a.vals, sums); err != nil {
			sh.sched.refund(job)
			return refusal{}
		}
		if !st.aggregating() {
			js.outstanding.Add(1)
		}
		st.chunk = int64(chunk)
		clear(st.seen)
		st.nSeen = 0
		if st.cached != nil {
			js.cacheBytes.Add(-int64(len(st.cached)))
			st.cached = nil
		}
	} else if ovf, err = b.agg.AddInto(bi, a.vals, sums); err != nil {
		return refusal{}
	}
	st.seen[wij] = true
	st.nSeen++
	js.adds.Add(1)

	if st.nSeen < s.cfg.Workers {
		return refusal{}
	}

	// Last worker: the running sums are the final aggregation (for a tree
	// leaf, the final LOCAL aggregation — the tree-wide sum still needs
	// the other leaves, so it comes back from the parent).
	js.completions.Add(1)
	js.outstanding.Add(-1)
	if inc.draining.Load() {
		sc.drains = append(sc.drains, inc)
	}
	if s.cfg.Uplink != nil {
		// Tree leaf: the local sum is a partial aggregate, an ADD to the
		// parent under the parent-level epoch, offered to the uplink sender
		// after the shard unlock (submitUplinks). The slot caches nothing
		// and answers retransmits silently until the final installs.
		sc.ups = append(sc.ups, upReq{inc: inc, chunk: chunk, pkt: pkt, ovf: ovf})
		return refusal{}
	}
	putOverflow(pkt, ovf)
	st.cached = pkt
	js.cacheBytes.Add(int64(len(pkt)))
	// Delivery is deferred to the batch-end pass so consecutive chunks
	// completing in one batch share a run-length reply (see emitResults).
	sc.done = append(sc.done, resDone{job: job, chunk: chunk, pkt: pkt})
	return refusal{}
}

// emitResults delivers a batch's completed chunks, coalescing runs of ≥ 2
// consecutive chunks of one job into run-length MsgResultRun replies — the
// per-chunk packets stay individually cached for the replay path, only the
// broadcast downlink shares datagrams. Called after the shard lock rounds.
func (s *Switch) emitResults(sc *batchScratch, out *transport.DeliveryList) {
	if len(sc.done) == 0 {
		return
	}
	// Insertion sort by (job, chunk); sort.Slice would allocate on the hot
	// path. With one shard, completion order tracks chunk order closely.
	// With Shards ≥ 2 it does not: processAdds completes a batch shard by
	// shard, so a window's consecutive chunks arrive grouped by shard —
	// with two, every chunk of one slot parity before any of the other
	// (even slots, then odd, when the batch's first ADD has an even slot)
	// — and each later group is sorted back in past the earlier ones.
	d := sc.done
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && (d[j].job < d[j-1].job ||
			(d[j].job == d[j-1].job && d[j].chunk < d[j-1].chunk)); j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
	// A run reply must fit a datagram like a result batch would; the
	// 16-bit item count bounds it regardless.
	maxRun := maxBatchChunks(s.cfg.Modules)
	if maxRun > 65535 {
		maxRun = 65535
	}
	for i := 0; i < len(d); {
		j := i + 1
		for j < len(d) && j-i < maxRun && d[j].job == d[i].job &&
			d[j].chunk == d[i].chunk+uint32(j-i) {
			j++
		}
		if j-i == 1 {
			s.deliverToJob(d[i].job, d[i].pkt, out)
		} else {
			items := sc.items[:0]
			for k := i; k < j; k++ {
				items = append(items, d[k].pkt)
			}
			sc.items = items
			s.jobs[d[i].job].coalesced.Add(uint64(j - i))
			s.deliverToJob(d[i].job, encodeResultRun(d[i].job, d[i].chunk, items), out)
		}
		i = j
	}
}

// deliverToJob routes a downlink message to a job's own workers.
func (s *Switch) deliverToJob(job int, pkt []byte, out *transport.DeliveryList) {
	if s.ncap == 1 {
		// Single tenant: every port belongs to the job, broadcast.
		out.Broadcast(pkt)
		return
	}
	// Multi-tenant: deliver to the job's own port range only, so one
	// job's completions never consume another job's downlink.
	base := job * s.cfg.Workers
	for i := 0; i < s.cfg.Workers; i++ {
		out.Unicast(base+i, pkt)
	}
}

// Stats returns protocol counters summed across jobs: total values
// aggregated, duplicate ADDs observed and chunks completed.
func (s *Switch) Stats() (adds, dups, completions uint64) {
	for j := range s.jobs {
		js := &s.jobs[j]
		adds += js.adds.Load()
		dups += js.retransmits.Load()
		completions += js.completions.Load()
	}
	return adds, dups, completions
}

// JobStats returns one job's counters; ok is false for a job id outside
// the switch's capacity. A vacant id inside the capacity answers with
// Phase == PhaseVacant, a zero Weight/Profile/Class, and the counters its
// last incarnation ended on (only the Outstanding and CacheBytes gauges
// are zeroed at release); the next Admit resets them.
func (s *Switch) JobStats(job int) (st JobStats, ok bool) {
	if job < 0 || job >= s.ncap {
		return JobStats{}, false
	}
	js := &s.jobs[job]
	cb := js.cacheBytes.Load()
	if cb < 0 {
		cb = 0 // release zeroes the gauge; racing decrements may transiently undershoot
	}
	st = JobStats{
		Adds:        js.adds.Load(),
		Retransmits: js.retransmits.Load(),
		Completions: js.completions.Load(),
		SchedDefers: js.schedDefers.Load(),
		Outstanding: js.outstanding.Load(),
		CacheHits:   js.cacheHits.Load(),
		CacheBytes:  uint64(cb),
		Coalesced:   js.coalesced.Load(),
	}
	if inc := js.live.Load(); inc != nil {
		st.Phase = inc.phase()
		st.Weight, st.Profile, st.Class = inc.spec.Weight, inc.spec.Profile, inc.spec.Class
	}
	return st, true
}

// Rejects returns the wire-level reject counters.
func (s *Switch) Rejects() WireRejects {
	return WireRejects{
		Malformed:    s.rejMalformed.Load(),
		BadJob:       s.rejBadJob.Load(),
		CrossJob:     s.rejCrossJob.Load(),
		Draining:     s.rejDraining.Load(),
		Stale:        s.rejStale.Load(),
		Backpressure: s.rejBackpressure.Load(),
		BadClass:     s.rejClass.Load(),
	}
}

// Worker tuning defaults; see NewWorker.
const (
	DefaultTimeout = 200 * time.Millisecond
	DefaultRetries = 50
)

// DefaultDrainTimeout bounds an eviction's drain phase when
// Config.DrainTimeout is zero: generous next to the retransmit timeout, so
// in-flight chunks normally complete, but bounded so a dead tenant cannot
// hold its job id forever.
const DefaultDrainTimeout = 2 * time.Second

// Worker is the host side: it reduces a gradient vector through the switch.
// NewWorker fills the tuning fields with defaults; on a hand-built Worker,
// Timeout and Retries treat anything at or below zero as the default.
// Reduce runs entirely in its caller's goroutine and updates the counters
// as it goes, so a Worker serves one Reduce at a time.
type Worker struct {
	// ID is the worker's index within its job, 0 ≤ ID < Cfg.Workers. The
	// transport port is Cfg.Port(Job, ID).
	ID int
	// Job is the tenant job this worker belongs to.
	Job    int
	Fabric transport.Fabric
	Cfg    Config
	// Timeout is the receive timeout per window stall. Values <= 0 apply
	// DefaultTimeout.
	Timeout time.Duration
	// Retries bounds retransmission rounds per window stall. Values <= 0
	// apply DefaultRetries.
	Retries int
	// Epoch is the job incarnation octet stamped into every ADD. It is 0
	// for a job's first incarnation; workers of a re-admitted job id must
	// carry the epoch echoed in the admit ack (or Switch.JobEpoch), or
	// the switch rejects their traffic as stale.
	Epoch uint8
	// Profile is the job's negotiated numeric profile: ADD values are
	// narrowed to its wire format (halving the payload for the 16-bit
	// formats) and RESULTs are decoded under it. It must match what the
	// job's admission applied (the admit ack echoes it, as does
	// Switch.JobStats), or the switch rejects the ADDs as malformed.
	// The zero value is the default f32 profile.
	Profile core.NumericProfile
	// SentPackets counts ADD messages transmitted (including
	// retransmits), one per chunk transmission.
	SentPackets uint64
	// SentDatagrams counts send vectors: one for the initial window, one
	// per received delivery vector that freed a slot, and one per
	// retransmit round. A vector is one wire datagram when it fits one;
	// the fabric splits a larger one transparently.
	SentDatagrams uint64
	// BatchShrinks is always 0: Reduce has no batch size to shrink. It is
	// kept, like LastBatch, only because the bench/ module reads it.
	BatchShrinks uint64
	// BackpressureAcks counts AckBackpressure notices received: the
	// switch's deficit-round-robin scheduler deferred one of this worker's
	// new-chunk binds. A notice refills the stall budget; the deferred
	// chunk is recovered by the normal retransmit path once the job's
	// deficit replenishes.
	BackpressureAcks uint64
	// LastBatch is the largest send vector, in ADDs, the last Reduce sent:
	// at most Cfg.Pool.
	LastBatch int

	next int64 // where the next Reduce starts on the job's chunk clock

	// What Reduce keeps across calls, so a steady-state reduce allocates
	// only its output (see rewind and entry).
	snd  addSender
	win  []byte
	send [][]byte
	bufs [][]byte
}

// NewWorker builds a job-0 worker with the default timeout and retry
// budget.
func NewWorker(id int, fabric transport.Fabric, cfg Config) *Worker {
	return NewJobWorker(0, id, fabric, cfg)
}

// NewJobWorker builds a worker for one tenant job with the default tuning,
// carrying the profile Config assigns the job (runtime-admitted jobs are
// not in Config.Profiles — their workers set Profile from the admit ack).
func NewJobWorker(job, id int, fabric transport.Fabric, cfg Config) *Worker {
	return &Worker{
		ID: id, Job: job, Fabric: fabric, Cfg: cfg,
		Timeout: DefaultTimeout, Retries: DefaultRetries,
		Profile: cfg.profileOf(job),
	}
}

// recvVec is a receive loop's reusable buffer-vector size: how many
// deliveries one RecvBatch may drain. Buffers are recycled across calls,
// so steady-state receiving allocates nothing.
const recvVec = 64

// retryBudget resolves a client's Timeout/Retries tuning: a non-positive
// value means the default.
func retryBudget(timeout time.Duration, retries int) (time.Duration, int) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if retries <= 0 {
		retries = DefaultRetries
	}
	return timeout, retries
}

// rewind readies the sender (nothing owed), window entries, send vector and
// receive buffers for the next reduce, reusing the last one's.
func (w *Worker) rewind(span int64, retries int) {
	w.snd.reset(w.Job, w.Epoch, w.Profile, w.Cfg.Modules, w.Cfg.Pool, span, retries)
	n := 2 * w.Cfg.Pool * addBytes(w.Cfg.Modules, w.Profile)
	w.win = slices.Grow(w.win[:0], n)[:n]
	w.send = slices.Grow(w.send[:0], w.Cfg.Pool)
	w.bufs = slices.Grow(w.bufs[:0], recvVec)[:recvVec]
}

// entry encodes chunk id's ADD of vals (a short tail zero-padded) into window
// entry id mod 2·Pool and returns it; a retransmit resends those bytes (see
// doc.go, "Buffer ownership").
func (w *Worker) entry(id uint32, vals []float32) []byte {
	size := addBytes(w.Cfg.Modules, w.Profile)
	e := int(id%uint32(2*w.Cfg.Pool)) * size
	return appendAdd(w.win[e:e:e+size], w.Job, id, w.Epoch, w.Profile, w.Cfg.Modules, vals)
}

// Reduce aggregates vec with the job's other workers and returns the
// summed vector. All of a job's workers must call Reduce with equal-length
// vectors. Each call continues the Worker's chunk stream (see doc.go), so
// one incarnation serves every reduce of a training run.
//
// It is one run-to-completion loop in the caller's goroutine that sends at
// the protocol's own events only: the first Pool chunks go out as one
// vector, then it alternates — receive a delivery vector, copy out every
// chunk its messages complete and offer chunk c+Pool for each, and send
// what was offered as one vector when the received vector ends. What is
// owed, each timeout's retransmit round and the give-up after Retries in a
// row are the addSender's. The counters and LastBatch are current on every
// return, errors included.
func (w *Worker) Reduce(vec []float32) ([]float32, error) {
	if w.Job < 0 || w.Job >= w.Cfg.capacity() {
		return nil, fmt.Errorf("aggservice: job %d outside the switch's %d-job capacity", w.Job, w.Cfg.capacity())
	}
	if w.ID < 0 || w.ID >= w.Cfg.Workers {
		return nil, fmt.Errorf("aggservice: worker %d outside the job's %d workers", w.ID, w.Cfg.Workers)
	}
	port := w.Cfg.Port(w.Job, w.ID)
	modules := w.Cfg.Modules
	pool := w.Cfg.Pool
	timeout, retries := retryBudget(w.Timeout, w.Retries)
	w.LastBatch = 0

	nChunks := (len(vec) + modules - 1) / modules
	out := make([]float32, len(vec))
	if nChunks == 0 {
		return out, nil
	}

	// The next reduce starts after this one's chunks whatever the outcome:
	// the job's workers reduce equal-length vectors, so they stay in step.
	span := w.Cfg.span()
	first := w.next
	w.next = (first + int64(nChunks)) % span

	w.rewind(span, retries)

	// flush hands what was offered to the fabric. The first SendBatch error
	// sticks in sendErr, turns later flushes into no-ops and ends the loop.
	send := w.send
	var sendErr error
	flush := func() {
		if len(send) > 0 && sendErr == nil {
			w.SentPackets += uint64(len(send))
			w.SentDatagrams++
			w.LastBatch = max(w.LastBatch, len(send))
			sendErr = w.Fabric.SendBatch(port, send)
		}
		send = send[:0]
	}
	offer := func(c int) {
		id := first + int64(c)
		if id >= span { // no divide per chunk: first < span, c < span
			id -= span
		}
		send = w.snd.offer(send, uint32(id), w.entry(uint32(id), vec[c*modules:min(len(vec), (c+1)*modules)]), false)
	}
	// final takes an owed chunk's values, from whichever downlink message,
	// and opens exactly chunk c+pool's slot — per-slot self-clocking, so a
	// straggler never blocks the slots behind it. The oldest chunk not yet
	// final is always owed, so the loop runs while anything is.
	final := func(chunk uint32, vals []byte, _ bool) {
		c := int(ahead(chunk, first, span))
		w.Profile.GetValues(out[c*modules:min(len(vec), (c+1)*modules)], vals)
		if c+pool < nChunks {
			offer(c + pool)
		}
	}

	// Initial window: the first pool chunks are ungated.
	for c := 0; c < nChunks && c < pool; c++ {
		offer(c)
	}
	flush()

	for w.snd.owed > 0 && sendErr == nil {
		k, err := w.Fabric.RecvBatch(port, w.bufs, timeout)
		switch {
		case err == transport.ErrTimeout:
			if send, err = w.snd.onTimeout(send); err != nil {
				return nil, fmt.Errorf("aggservice: job %d worker %d %w", w.Job, w.ID, err)
			}
		case err != nil:
			return nil, err
		default:
			var bp int
			bp, err = w.snd.onDownlink(w.bufs[:k], final)
			w.BackpressureAcks += uint64(bp)
			if err != nil { // draining or evicted: fail fast
				return nil, fmt.Errorf("job %d worker %d: %w", w.Job, w.ID, err)
			}
		}
		flush()
	}
	if sendErr != nil {
		return nil, sendErr
	}
	return out, nil
}
