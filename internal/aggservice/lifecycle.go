package aggservice

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/transport"
)

// This file is the runtime job lifecycle control plane: admitting a new
// tenant and evicting a leaving one without restarting the switch (or
// disturbing any other tenant's in-flight windows).
//
// A job id moves through three phases:
//
//	vacant ──Admit──▶ admitted ──Evict──▶ draining ──release──▶ vacant
//
// Admission allocates a 2·Pool slot range from the free-list and binds it
// through the indirection table (jobState.rangeIdx). Eviction first drains:
// ADDs that would bind a NEW chunk are refused (counted, answered with an
// AckDraining notice) while chunks already in flight complete normally;
// when the last outstanding slot completes — or DrainTimeout passes — the
// range is reset and returned to the free-list for the next admission.

// Lifecycle errors. Admit/Evict return these; the wire control plane maps
// them to AckStatus codes (and back, on the client).
var (
	// ErrUnknownJob names a job id outside the switch's capacity.
	ErrUnknownJob = errors.New("aggservice: job id outside the switch's capacity")
	// ErrNotAdmitted marks an evict for a job that is not currently live.
	ErrNotAdmitted = errors.New("aggservice: job not admitted")
	// ErrAlreadyAdmitted marks an admit for a live job.
	ErrAlreadyAdmitted = errors.New("aggservice: job already admitted")
	// ErrJobDraining marks admit/evict racing an eviction still draining.
	ErrJobDraining = errors.New("aggservice: job is draining")
	// ErrNoCapacity marks an admit with an empty slot-range free-list.
	ErrNoCapacity = errors.New("aggservice: no free slot range (evict a job or raise Capacity)")
	// ErrLifecycleDisabled marks a wire admit/evict on a switch whose
	// operator did not enable the runtime control plane.
	ErrLifecycleDisabled = errors.New("aggservice: runtime lifecycle disabled (enable Config.Dynamic)")
	// ErrJobEvicted is what a Worker's Reduce wraps when the switch
	// refuses its chunks because the job was evicted (or is draining).
	ErrJobEvicted = errors.New("aggservice: job evicted from the switch")
	// ErrBadWeight marks an admit with a scheduler weight outside what the
	// 16-bit wire field carries.
	ErrBadWeight = errors.New("aggservice: scheduler weight outside [0, MaxWeight]")
	// ErrBadProfile marks an admit whose numeric profile does not validate:
	// an unknown format or rounding octet, guard bits that leave the
	// mantissa register no headroom (Headroom() < 1), or
	// round-to-nearest-even without a guard bit to round with.
	ErrBadProfile = errors.New("aggservice: invalid numeric profile")
	// ErrBackpressure is what AckBackpressure maps to: the scheduler
	// deferred a new-chunk bind because the job is over its deficit while
	// other tenants hold unspent budget. It is transient by construction —
	// the deficit replenishes next round — and workers recover through
	// their retransmit path rather than surfacing it.
	ErrBackpressure = errors.New("aggservice: bind deferred by the fair scheduler (over deficit)")
)

// JobPhase is a job id's lifecycle state.
type JobPhase uint8

const (
	// PhaseVacant: the id holds no slot range; ADDs are refused with an
	// AckEvicted notice.
	PhaseVacant JobPhase = iota
	// PhaseAdmitted: the id owns a slot range and aggregates normally.
	PhaseAdmitted
	// PhaseDraining: eviction in progress — in-flight chunks may
	// complete, new chunk binds are refused.
	PhaseDraining
)

func (p JobPhase) String() string {
	switch p {
	case PhaseVacant:
		return "vacant"
	case PhaseAdmitted:
		return "admitted"
	case PhaseDraining:
		return "draining"
	}
	return fmt.Sprintf("JobPhase(%d)", uint8(p))
}

// LifecycleEvent tags an OnLifecycle callback.
type LifecycleEvent uint8

const (
	// EventAdmitted fires when Admit binds a job to a slot range.
	EventAdmitted LifecycleEvent = iota
	// EventDraining fires when Evict begins draining a job.
	EventDraining
	// EventEvicted fires when the drained (or timed-out) range is
	// released back to the free-list.
	EventEvicted
)

func (e LifecycleEvent) String() string {
	switch e {
	case EventAdmitted:
		return "admitted"
	case EventDraining:
		return "draining"
	case EventEvicted:
		return "evicted"
	}
	return fmt.Sprintf("LifecycleEvent(%d)", uint8(e))
}

// AckStatus is the status octet of a MsgJobAck.
type AckStatus uint8

const (
	// AckAdmitted answers a successful MsgJobAdmit.
	AckAdmitted AckStatus = iota
	// AckEvicting answers a successful MsgJobEvict (drain begun, possibly
	// already finished).
	AckEvicting
	// AckEvicted is the unsolicited notice sent to a worker whose ADDs
	// name a vacant (evicted) job.
	AckEvicted
	// AckDraining is the unsolicited notice sent to a worker whose ADD
	// tried to bind a new chunk while its job drains.
	AckDraining
	// AckErrUnknownJob: the request named a job id outside the capacity.
	AckErrUnknownJob
	// AckErrNotAdmitted: evict for a job that is not live.
	AckErrNotAdmitted
	// AckErrAlreadyAdmitted: admit for a live job.
	AckErrAlreadyAdmitted
	// AckErrDraining: admit/evict while the id's old incarnation drains.
	AckErrDraining
	// AckErrNoCapacity: admit with an empty free-list.
	AckErrNoCapacity
	// AckErrDisabled: the switch does not enable the wire control plane.
	AckErrDisabled
	// AckBackpressure is the unsolicited notice sent to a worker whose ADD
	// tried to bind a new chunk while its job was over its deficit-round-
	// robin budget: the bind is deferred, not lost — the worker backs its
	// adaptive batch off and recovers the chunk by retransmit once the
	// scheduler round turns over.
	AckBackpressure
	// AckErrBadProfile: the admit carried a numeric profile that does not
	// validate (unknown octet, no headroom, or RNE without guard bits).
	AckErrBadProfile
	// AckErrBadClass: the admit carried a workload-class descriptor that
	// does not validate — or, as an unsolicited notice, a data-plane
	// message reached a job of the wrong class (an ADD to an analytics
	// job, a tuple to a training job, or an unprovisioned tuple op).
	AckErrBadClass
)

func (a AckStatus) String() string {
	switch a {
	case AckAdmitted:
		return "admitted"
	case AckEvicting:
		return "evicting"
	case AckEvicted:
		return "evicted"
	case AckDraining:
		return "draining"
	case AckErrUnknownJob:
		return "error: unknown job"
	case AckErrNotAdmitted:
		return "error: not admitted"
	case AckErrAlreadyAdmitted:
		return "error: already admitted"
	case AckErrDraining:
		return "error: draining"
	case AckErrNoCapacity:
		return "error: no capacity"
	case AckErrDisabled:
		return "error: lifecycle disabled"
	case AckBackpressure:
		return "backpressure"
	case AckErrBadProfile:
		return "error: bad numeric profile"
	case AckErrBadClass:
		return "error: bad workload class"
	}
	return fmt.Sprintf("AckStatus(%d)", uint8(a))
}

// Err maps an ack status back to its sentinel error: nil for the success
// acks, ErrJobEvicted for the worker notices, and the matching lifecycle
// error otherwise — so a wire client can errors.Is exactly like an
// in-process caller.
func (a AckStatus) Err() error {
	switch a {
	case AckAdmitted, AckEvicting:
		return nil
	case AckEvicted, AckDraining:
		return ErrJobEvicted
	case AckErrUnknownJob:
		return ErrUnknownJob
	case AckErrNotAdmitted:
		return ErrNotAdmitted
	case AckErrAlreadyAdmitted:
		return ErrAlreadyAdmitted
	case AckErrDraining:
		return ErrJobDraining
	case AckErrNoCapacity:
		return ErrNoCapacity
	case AckErrDisabled:
		return ErrLifecycleDisabled
	case AckBackpressure:
		return ErrBackpressure
	case AckErrBadProfile:
		return ErrBadProfile
	case AckErrBadClass:
		return ErrBadClass
	}
	return fmt.Errorf("aggservice: unknown ack status %d", uint8(a))
}

// handleLifecycle serves a wire MsgJobAdmit/MsgJobEvict. Only the
// out-of-band observer frame may drive the control plane — a tenant's
// worker port must not be able to evict another tenant — and only when the
// operator enabled Config.Dynamic.
func (s *Switch) handleLifecycle(worker int, typ byte, pkt []byte, out *transport.DeliveryList) {
	if worker != ObserverWorker {
		s.rejMalformed.Add(1)
		return
	}
	var req JobAdmit
	if typ == MsgJobAdmit {
		var derr error
		if req, derr = DecodeJobAdmit(pkt); derr != nil {
			s.rejMalformed.Add(1)
			return
		}
	} else {
		if len(pkt) != jobReqBytes {
			s.rejMalformed.Add(1)
			return
		}
		req.Job = int(binary.BigEndian.Uint16(pkt[2:]))
	}
	var err error
	ok := AckAdmitted
	switch {
	case !s.cfg.Dynamic:
		err = ErrLifecycleDisabled
	case typ == MsgJobAdmit:
		err = s.Admit(req.Job, req.JobSpec)
	default:
		ok = AckEvicting
		err = s.Evict(req.Job)
	}
	out.Unicast(worker, EncodeJobAck(s.jobAck(req.Job, ok, err)))
}

// jobAck answers a lifecycle request that ended in err (ok is the status a
// nil err means). The echoed epoch and JobSpec are the incarnation the
// request landed on: for a successful admit that is the NEW incarnation's
// octet — which the operator hands to the job's workers — plus the weight,
// profile and class actually applied; for ErrAlreadyAdmitted, the live
// incarnation's, so a second negotiator learns them without a second
// exchange.
func (s *Switch) jobAck(job int, ok AckStatus, err error) JobAck {
	status := ok
	switch {
	case err == nil:
	case errors.Is(err, ErrNotAdmitted):
		status = AckErrNotAdmitted
	case errors.Is(err, ErrAlreadyAdmitted):
		status = AckErrAlreadyAdmitted
	case errors.Is(err, ErrJobDraining):
		status = AckErrDraining
	case errors.Is(err, ErrNoCapacity):
		status = AckErrNoCapacity
	case errors.Is(err, ErrLifecycleDisabled):
		status = AckErrDisabled
	case errors.Is(err, ErrBadProfile):
		status = AckErrBadProfile
	case errors.Is(err, ErrBadClass):
		status = AckErrBadClass
	default:
		status = AckErrUnknownJob
	}
	return JobAck{
		Job: job, Status: status, Epoch: s.JobEpoch(job),
		JobSpec: JobSpec{Weight: s.JobWeight(job), Profile: s.JobProfile(job), Class: s.JobClass(job)},
	}
}

// Admit brings a vacant job id live under a JobSpec, allocating its slot
// range from the free-list and zeroing its counters for the new
// incarnation. Under contention the job's new-chunk binds get Weight shares
// of pipeline time relative to the other admitted tenants, and every value
// the job aggregates runs through the arithmetic Profile names. A weight of
// 0 (the wire's "unspecified") is clamped to 1; weights above MaxWeight are
// refused with ErrBadWeight; a profile that does not validate (unknown
// octet, Headroom() < 1, or RNE without guard bits) is refused with
// ErrBadProfile before any state moves.
//
// The zero Class admits a training tenant. Its profile's compiled
// aggregator is fetched from the switch's per-profile program cache —
// distinct profiles compile once per switch, and every shard of every job
// sharing a profile shares the compiled program, replicated into per-range
// state. The banks are installed under each shard's lock BEFORE the range
// and phase publish, so the hot path can never observe an admitted job
// without its arithmetic.
//
// A query or telemetry Class provisions the job's analytics state — the
// pruning registers, FPISA group accumulators, LPM classifier, heavy-hitter
// rows and latency histogram the class calls for — on the job's home shard
// instead of per-shard training banks. A descriptor that does not validate
// (see Config.validateClass) is refused with ErrBadClass before any state
// moves. Analytics classes are refused on tree leaves: tuples carry keys,
// not slot-addressed partial sums, so they cannot climb an aggregation tree.
func (s *Switch) Admit(job int, spec JobSpec) error {
	weight, prof, ac := spec.Weight, spec.Profile, spec.Class
	if job < 0 || job >= s.ncap {
		return fmt.Errorf("%w: job %d of %d", ErrUnknownJob, job, s.ncap)
	}
	if weight < 0 || weight > MaxWeight {
		return fmt.Errorf("%w: job %d weight %d", ErrBadWeight, job, weight)
	}
	if weight == 0 {
		weight = 1
	}
	if err := prof.Validate(); err != nil {
		return fmt.Errorf("%w: job %d: %v", ErrBadProfile, job, err)
	}
	if err := s.cfg.validateClass(ac); err != nil {
		return fmt.Errorf("job %d: %w", job, err)
	}
	if ac.Class != ClassTraining && s.cfg.Uplink != nil {
		return fmt.Errorf("%w: job %d: analytics classes cannot run on a tree leaf", ErrBadClass, job)
	}
	// A tree leaf negotiates the admission UP the tree before it takes
	// effect locally: the parent must run the same job under the same
	// profile before any partial sum can climb, and its ack names the
	// parent-level incarnation epoch the uplink ADDs will stamp. Done
	// before lifeMu — the negotiation is network I/O on a wire control
	// path and must not stall other tenants' lifecycle transitions.
	var parentEpoch uint8
	if u := s.cfg.Uplink; u != nil && u.Control != nil {
		pe, err := admitUp(u.Control, job, JobSpec{Weight: weight, Profile: prof})
		if err != nil {
			return err
		}
		parentEpoch = pe
	}
	// Analytics state (pruning registers, accumulators, LPM, sketch rows)
	// is built before any lock: the FPISA compile is the slow part and must
	// not stall other tenants' lifecycle transitions.
	var an *analyticsJob
	if ac.Class != ClassTraining {
		var berr error
		if an, berr = s.buildAnalytics(ac, prof); berr != nil {
			return fmt.Errorf("%w: job %d: %v", ErrBadClass, job, berr)
		}
	}
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	js := &s.jobs[job]
	switch JobPhase(js.phase.Load()) {
	case PhaseAdmitted:
		return fmt.Errorf("%w: job %d", ErrAlreadyAdmitted, job)
	case PhaseDraining:
		return fmt.Errorf("%w: job %d", ErrJobDraining, job)
	}
	if len(s.freeRanges) == 0 {
		return fmt.Errorf("%w: job %d", ErrNoCapacity, job)
	}
	var proto *core.ProfileAggregator
	if an == nil {
		var perr error
		if proto, perr = s.getProtoLocked(prof); perr != nil {
			return fmt.Errorf("%w: job %d: %v", ErrBadProfile, job, perr)
		}
	}
	ri := s.freeRanges[len(s.freeRanges)-1]
	s.freeRanges = s.freeRanges[:len(s.freeRanges)-1]
	js.reset()
	js.weight.Store(int32(weight))
	js.profBits.Store(prof.Pack())
	js.classBits.Store(packClass(ac))
	// Install the range's state before the range publishes: the hot path
	// loads phase, then the profile, then the range, and revalidates the
	// epoch under the shard lock — so once it can see the range it is
	// guaranteed to find the bank (or analytics state) behind it. A
	// training job gets per-shard aggregator banks; an analytics job's
	// state lives on its home shard alone, guarded by that shard's lock.
	if an != nil {
		hs := s.shards[s.homeShard(ri)]
		hs.mu.Lock()
		s.analytics[job] = an
		hs.mu.Unlock()
	} else {
		for _, sh := range s.shards {
			sh.mu.Lock()
			sh.agg[ri] = proto.Replicate()
			sh.mu.Unlock()
		}
	}
	// Publish range before phase: the hot path loads phase first, so it
	// never sees an admitted job without its range.
	js.rangeIdx.Store(int32(ri))
	js.phase.Store(int32(PhaseAdmitted))
	s.startUplinkLocked(job, parentEpoch)
	if s.OnLifecycle != nil {
		s.OnLifecycle(job, EventAdmitted)
	}
	return nil
}

// Evict starts draining a live job: new chunk binds are refused from now
// on, in-flight chunks may complete, and the slot range is released to the
// free-list when the job quiesces — or after Config.DrainTimeout, whichever
// comes first. Evict returns once the drain has begun (it may also already
// have finished, when the job had nothing outstanding).
func (s *Switch) Evict(job int) error {
	if job < 0 || job >= s.ncap {
		return fmt.Errorf("%w: job %d of %d", ErrUnknownJob, job, s.ncap)
	}
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	js := &s.jobs[job]
	switch JobPhase(js.phase.Load()) {
	case PhaseVacant:
		return fmt.Errorf("%w: job %d", ErrNotAdmitted, job)
	case PhaseDraining:
		return fmt.Errorf("%w: job %d", ErrJobDraining, job)
	}
	js.phase.Store(int32(PhaseDraining))
	if s.OnLifecycle != nil {
		s.OnLifecycle(job, EventDraining)
	}
	if js.outstanding.Load() == 0 {
		s.release(job)
		return nil
	}
	// The timer closure captures this incarnation's epoch: a callback that
	// fired during release (Stop raced) and only later wins lifeMu must
	// not cut short a LATER incarnation's drain.
	epoch := js.epoch.Load()
	s.drainTimers[job] = time.AfterFunc(s.cfg.drainTimeout(), func() {
		s.lifeMu.Lock()
		defer s.lifeMu.Unlock()
		if js.epoch.Load() == epoch && JobPhase(js.phase.Load()) == PhaseDraining {
			s.release(job)
		}
	})
	return nil
}

// maybeFinishDrain releases a draining job's range once nothing is
// outstanding. Called from the hot path after a completion (outside the
// shard lock — release re-takes every shard lock it needs).
func (s *Switch) maybeFinishDrain(job int) {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	js := &s.jobs[job]
	if JobPhase(js.phase.Load()) == PhaseDraining && js.outstanding.Load() == 0 {
		s.release(job)
	}
}

// release returns a job's slot range to the free-list, resetting every
// slot (freeing cached RESULTs, unbinding chunks, clearing quota charges)
// so the next admission starts clean. Caller holds lifeMu.
func (s *Switch) release(job int) {
	js := &s.jobs[job]
	ri := int(js.rangeIdx.Load())
	// Unpublish before touching slots: once the epoch moves and the range
	// entry is cleared, the hot path's under-lock revalidation guarantees
	// no ADD (and no deferred cache-free) can reach these slots while —
	// or after — they reset, even if a later admission hands the same
	// range back to this same job id.
	js.epoch.Add(1)
	js.phase.Store(int32(PhaseVacant))
	js.rangeIdx.Store(-1)
	if t := s.drainTimers[job]; t != nil {
		t.Stop()
		s.drainTimers[job] = nil
	}
	// Stop the incarnation's uplink client (tree leaves): aggregates the
	// parent still owed it are stale now — the epoch moved — and a fresh
	// admission starts a fresh client.
	s.stopUplink(job)
	if ri >= 0 {
		base := ri * 2 * s.cfg.Pool
		for gs := base; gs < base+2*s.cfg.Pool; gs++ {
			sh := s.shards[gs%s.nsh]
			sh.mu.Lock()
			st := &sh.slot[gs/s.nsh]
			st.chunk = -1
			for i := range st.seen {
				st.seen[i] = false
			}
			st.nSeen = 0
			st.cached = nil
			st.outstanding = false
			st.upPending = false
			sh.mu.Unlock()
		}
		s.freeRanges = append(s.freeRanges, ri)
	}
	// Return the job's unspent scheduler deficit on every shard, and tear
	// down the range's aggregator banks — the compiled program stays cached
	// on the switch (keyed by profile), only this incarnation's per-slot
	// state is dropped. An analytics incarnation's state is cleared under
	// its home shard's lock in the same pass, for the same reason the
	// banks are: the epoch moved above, so no tuple or drain for this
	// incarnation can fold after its shard section here.
	for si, sh := range s.shards {
		sh.mu.Lock()
		sh.sched.forfeit(job)
		if ri >= 0 {
			sh.agg[ri] = nil
			if si == s.homeShard(ri) {
				s.analytics[job] = nil
			}
		}
		sh.mu.Unlock()
	}
	js.profBits.Store(0)
	js.classBits.Store(0)
	js.weight.Store(0)
	js.outstanding.Store(0)
	js.cacheBytes.Store(0)
	if s.OnLifecycle != nil {
		s.OnLifecycle(job, EventEvicted)
	}
}

// JobRange reports the slot range the indirection table currently assigns
// to job; ok is false when the job holds none (vacant or out of range).
func (s *Switch) JobRange(job int) (base, n int, ok bool) {
	if job < 0 || job >= s.ncap {
		return 0, 0, false
	}
	ri := int(s.jobs[job].rangeIdx.Load())
	if ri < 0 {
		return 0, 0, false
	}
	return ri * 2 * s.cfg.Pool, 2 * s.cfg.Pool, true
}

// JobPhaseOf reports a job id's current lifecycle phase (PhaseVacant for
// ids outside the capacity).
func (s *Switch) JobPhaseOf(job int) JobPhase {
	if job < 0 || job >= s.ncap {
		return PhaseVacant
	}
	return JobPhase(s.jobs[job].phase.Load())
}

// JobEpoch reports a job id's current wire incarnation epoch — the octet
// its workers must stamp into their ADDs (0 for ids outside the capacity,
// and for every job's first incarnation). The full release counter is
// truncated to the eight bits the wire carries.
func (s *Switch) JobEpoch(job int) uint8 {
	if job < 0 || job >= s.ncap {
		return 0
	}
	return uint8(s.jobs[job].epoch.Load())
}

// JobProfile reports a job id's current numeric profile: the profile the
// admission applied for live jobs, the default (f32) profile for vacant ids
// and ids outside the capacity.
func (s *Switch) JobProfile(job int) core.NumericProfile {
	if job < 0 || job >= s.ncap {
		return core.DefaultProfile
	}
	return core.UnpackProfile(s.jobs[job].profBits.Load())
}

// JobWeight reports a job id's current deficit-round-robin scheduler
// weight: 0 for vacant ids (and ids outside the capacity), the weight the
// admission applied otherwise.
func (s *Switch) JobWeight(job int) int {
	if job < 0 || job >= s.ncap {
		return 0
	}
	return int(s.jobs[job].weight.Load())
}
