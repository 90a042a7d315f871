package aggservice

import (
	"errors"
	"fmt"
	"time"

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
// Admission builds one incarnation record — the applied JobSpec and the
// 2·Pool free slots or the analytics registers behind it — and publishes it
// with a single store to jobState.live. Eviction first drains: ADDs that
// would bind a NEW chunk are refused (counted, answered with an AckDraining
// notice) while chunks already in flight complete normally; when the last
// outstanding slot completes — or DrainTimeout passes — release retires the
// record with a single store of nil, and everything the tenant held goes
// with it.

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
	// PhaseVacant: the id has no live incarnation; ADDs are refused with an
	// AckEvicted notice.
	PhaseVacant JobPhase = iota
	// PhaseAdmitted: the id has a live incarnation and aggregates normally.
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
	// EventAdmitted fires when Admit publishes a job's incarnation.
	EventAdmitted LifecycleEvent = iota
	// EventDraining fires when Evict begins draining a job.
	EventDraining
	// EventEvicted fires when the drained (or timed-out) incarnation is
	// released and the id is vacant again.
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
	// Status octet 8 is retired, not reused: it named an admission refusal
	// no switch could produce. DecodeJobAck rejects it as unknown.
	_
	// AckErrDisabled: the switch does not enable the wire control plane.
	AckErrDisabled
	// AckBackpressure is the unsolicited notice sent to a worker whose ADD
	// tried to bind a new chunk while its job was over its deficit-round-
	// robin budget: the bind is deferred, not lost — the worker sends
	// nothing in answer and recovers the chunk by retransmit once the
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

// ackTable is the one record of every AckStatus: its display name and the
// sentinel error it stands for (nil for the success acks; the worker notices
// AckEvicted/AckDraining both mean ErrJobEvicted). String, Err, the
// error → status mapping in jobAck and DecodeJobAck's range check all read
// it, so a new status is one new row; a retired octet is a nameless one.
var ackTable = [...]struct {
	name string
	err  error
}{
	AckAdmitted:           {"admitted", nil},
	AckEvicting:           {"evicting", nil},
	AckEvicted:            {"evicted", ErrJobEvicted},
	AckDraining:           {"draining", ErrJobEvicted},
	AckErrUnknownJob:      {"error: unknown job", ErrUnknownJob},
	AckErrNotAdmitted:     {"error: not admitted", ErrNotAdmitted},
	AckErrAlreadyAdmitted: {"error: already admitted", ErrAlreadyAdmitted},
	AckErrDraining:        {"error: draining", ErrJobDraining},
	AckErrDisabled:        {"error: lifecycle disabled", ErrLifecycleDisabled},
	AckBackpressure:       {"backpressure", ErrBackpressure},
	AckErrBadProfile:      {"error: bad numeric profile", ErrBadProfile},
	AckErrBadClass:        {"error: bad workload class", ErrBadClass},
}

// valid reports whether a is a status octet this wire version defines.
func (a AckStatus) valid() bool { return int(a) < len(ackTable) && ackTable[a].name != "" }

func (a AckStatus) String() string {
	if !a.valid() {
		return fmt.Sprintf("AckStatus(%d)", uint8(a))
	}
	return ackTable[a].name
}

// Err maps an ack status back to its sentinel error: nil for the success
// acks, ErrJobEvicted for the worker notices, and the matching lifecycle
// error otherwise — so a wire client can errors.Is exactly like an
// in-process caller.
func (a AckStatus) Err() error {
	if !a.valid() {
		return fmt.Errorf("aggservice: unknown ack status %d", uint8(a))
	}
	return ackTable[a].err
}

// ackStatusOf maps a lifecycle error to the status octet that carries it:
// ok for nil, the row whose sentinel err wraps, and AckErrUnknownJob for
// anything else (ErrUnknownJob itself, and refusals with no octet of their
// own such as ErrBadWeight).
func ackStatusOf(ok AckStatus, err error) AckStatus {
	if err == nil {
		return ok
	}
	for a, row := range ackTable {
		if row.err != nil && errors.Is(err, row.err) {
			return AckStatus(a)
		}
	}
	return AckErrUnknownJob
}

// handleLifecycle serves a wire MsgJobAdmit/MsgJobEvict (an evict names only
// req.Job) when the operator enabled Config.Dynamic.
func (s *Switch) handleLifecycle(worker int, typ byte, req JobAdmit, out *transport.DeliveryList) {
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
	ack := JobAck{Job: job, Status: ackStatusOf(ok, err), Epoch: s.JobEpoch(job)}
	if inc := s.current(job); inc != nil {
		ack.JobSpec = inc.spec
	}
	return ack
}

// Admit brings a vacant job id live under a JobSpec, building its fresh
// incarnation with zeroed counters. Under contention the job's
// new-chunk binds get Weight shares of pipeline time relative to the other
// admitted tenants, and every value the job aggregates runs through the
// arithmetic Profile names. A weight of
// 0 (the wire's "unspecified") is clamped to 1; weights above MaxWeight are
// refused with ErrBadWeight; a profile that does not validate (unknown
// octet, Headroom() < 1, or RNE without guard bits) is refused with
// ErrBadProfile before any state moves.
//
// The zero Class admits a training tenant: one bank of fresh registers
// (beside the bank's free slots) per shard, each a bit-exact accumulator
// bank under the job's profile (core.NewProfileAggregator), whatever the
// profile.
//
// A query or telemetry Class provisions the job's analytics state — the
// pruning registers, FPISA group accumulators, prefix classifier,
// heavy-hitter rows and latency histogram the class calls for — guarded by the job's
// home shard lock, instead of per-shard training banks. A descriptor that
// does not validate (see Config.validateClass) is refused with ErrBadClass
// before any state moves. Analytics classes are refused on tree leaves:
// tuples carry keys, not slot-addressed partial sums, so they cannot climb
// an aggregation tree.
//
// Admit is the only place an incarnation is built. The record is assembled
// without touching any shard and published with one store, so the hot path
// sees the whole tenant or a vacant id — never an admitted job without its
// arithmetic.
func (s *Switch) Admit(job int, spec JobSpec) error {
	if job < 0 || job >= s.ncap {
		return fmt.Errorf("%w: job %d of %d", ErrUnknownJob, job, s.ncap)
	}
	if spec.Weight < 0 || spec.Weight > MaxWeight {
		return fmt.Errorf("%w: job %d weight %d", ErrBadWeight, job, spec.Weight)
	}
	if spec.Weight == 0 {
		spec.Weight = 1
	}
	if err := spec.Profile.Validate(); err != nil {
		return fmt.Errorf("%w: job %d: %v", ErrBadProfile, job, err)
	}
	if err := s.cfg.validateClass(spec.Class); err != nil {
		return fmt.Errorf("job %d: %w", job, err)
	}
	inc := &incarnation{job: job, spec: spec, base: job * int(s.slots) % len(s.layout)}
	// A tree leaf negotiates the admission UP the tree before it takes
	// effect locally: the parent must run the same job under the same
	// profile before any partial sum can climb, and its ack names the
	// parent-level incarnation epoch the uplink ADDs will stamp. Done
	// before lifeMu — the negotiation is network I/O on a wire control
	// path and must not stall other tenants' lifecycle transitions.
	if u := s.cfg.Uplink; u != nil {
		parentEpoch, err := admitUp(u.Control, job, JobSpec{Weight: spec.Weight, Profile: spec.Profile})
		if err != nil {
			return err
		}
		inc.up = newUplinkJob(s, inc, parentEpoch)
	}
	// Analytics state (pruning registers, accumulators, sketch rows) is
	// built before any lock, so allocating it does not stall other
	// tenants' lifecycle transitions.
	if spec.Class.Class != ClassTraining {
		var err error
		if inc.an, err = s.buildAnalytics(spec.Class, spec.Profile); err != nil {
			return fmt.Errorf("%w: job %d: %v", ErrBadClass, job, err)
		}
	}
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	js := &s.jobs[job]
	switch js.live.Load().phase() {
	case PhaseAdmitted:
		return fmt.Errorf("%w: job %d", ErrAlreadyAdmitted, job)
	case PhaseDraining:
		return fmt.Errorf("%w: job %d", ErrJobDraining, job)
	}
	if inc.an == nil {
		var err error
		if inc.banks, err = s.newBanks(spec.Profile); err != nil {
			return fmt.Errorf("%w: job %d: %v", ErrBadProfile, job, err)
		}
	}
	inc.epoch = js.epoch.Load()
	inc.ctr = &jobCounters{shard: make([]counters, s.nsh)}
	js.ctr.Store(inc.ctr)
	js.live.Store(inc)
	if inc.up != nil {
		go inc.up.run()
	}
	if s.OnLifecycle != nil {
		s.OnLifecycle(job, EventAdmitted)
	}
	return nil
}

// Evict starts draining a live job: new chunk binds are refused from now
// on, in-flight chunks may complete, and the job is released — its id vacant
// again — when it quiesces or after Config.DrainTimeout, whichever comes
// first. Evict returns once the drain has begun (it may also already
// have finished, when the job had nothing outstanding).
func (s *Switch) Evict(job int) error {
	if job < 0 || job >= s.ncap {
		return fmt.Errorf("%w: job %d of %d", ErrUnknownJob, job, s.ncap)
	}
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	js := &s.jobs[job]
	inc := js.live.Load()
	switch inc.phase() {
	case PhaseVacant:
		return fmt.Errorf("%w: job %d", ErrNotAdmitted, job)
	case PhaseDraining:
		return fmt.Errorf("%w: job %d", ErrJobDraining, job)
	}
	inc.draining.Store(true)
	if s.OnLifecycle != nil {
		s.OnLifecycle(job, EventDraining)
	}
	if s.outstanding(inc) == 0 {
		s.release(inc)
		return nil
	}
	// A callback that fired during release (Stop raced) and only later wins
	// lifeMu finds inc retired and cannot cut short a LATER incarnation's
	// drain.
	inc.drainTimer = time.AfterFunc(s.cfg.drainTimeout(), func() { s.finishDrain(inc, true) })
	return nil
}

// finishDrain releases a draining incarnation if it is still the live one
// and either nothing is outstanding or force is set (the drain timed out:
// partial sums are discarded). The hot path calls it after a completion,
// outside the shard lock — release takes every shard's lock in turn.
func (s *Switch) finishDrain(inc *incarnation, force bool) {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.isLive(inc) && (force || s.outstanding(inc) == 0) {
		s.release(inc)
	}
}

// release retires a live incarnation, leaving its job id vacant. The slots
// (bound chunks, cached RESULTs), registers, analytics state and uplink
// sender go with the record — the next admission builds its own. Caller
// holds lifeMu.
func (s *Switch) release(inc *incarnation) {
	job := inc.job
	js := &s.jobs[job]
	// Once live no longer points at inc, the hot path's under-lock
	// revalidation bounces every ADD, tuple, drain and parent aggregate
	// still carrying it.
	js.live.Store(nil)
	js.epoch.Add(1)
	if inc.drainTimer != nil {
		inc.drainTimer.Stop()
	}
	// Aggregates the parent still owes are stale now; a fresh admission
	// starts a fresh uplink client.
	if inc.up != nil {
		inc.up.stop()
	}
	// Return the job's unspent scheduler deficit on every shard. Having held
	// each shard's lock after the retire, release has also outlasted every
	// locked section that still saw inc live, so inc's counters are final;
	// JobStats reports the vacant id's gauges as 0.
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.sched.forfeit(job)
		sh.mu.Unlock()
	}
	if s.OnLifecycle != nil {
		s.OnLifecycle(job, EventEvicted)
	}
}

// current returns job's live incarnation: nil for vacant ids and ids
// outside the capacity.
func (s *Switch) current(job int) *incarnation {
	if job < 0 || job >= s.ncap {
		return nil
	}
	return s.jobs[job].live.Load()
}

// JobPhaseOf reports a job id's current lifecycle phase (PhaseVacant for
// ids outside the capacity).
func (s *Switch) JobPhaseOf(job int) JobPhase { return s.current(job).phase() }

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
