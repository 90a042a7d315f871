package aggservice

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fpisa/internal/transport"
)

// This file composes switches into an aggregation tree (the paper's
// rack → spine scaling story): a switch configured with an Uplink is a
// LEAF whose locally-completed chunks are PARTIAL sums. Instead of
// answering its own workers, the leaf re-emits each completed chunk as an
// ADD to a parent switch — playing the worker role one level up, on the
// same wire protocol, fabrics and incarnation epochs the real workers use
// — and fans the parent's aggregate back down to its own workers only when
// it returns. The parent needs no tree code at all: it is an ordinary
// Switch whose "workers" are the leaves (Workers = the leaf count), which
// is also what lets trees nest — a mid-tier switch is simply both a parent
// to its children and a leaf of its own Uplink.
//
// Lifecycle composes the same way. Admitting a job on a leaf first
// negotiates the same job/weight/profile at the parent (ParentControl), so
// the whole path a chunk climbs runs one arithmetic; the parent's admit
// ack supplies the parent-level incarnation epoch the uplink ADDs must
// stamp, fencing stale cross-level datagrams exactly like worker traffic.
// An eviction at the parent propagates DOWN: the leaf's uplink ADDs bounce
// off the draining parent with epoch-matched AckDraining/AckEvicted
// notices, the uplink client evicts the job locally, and the leaf's own
// vacant→admitted→draining machine drains its workers. A leaf-local evict
// deliberately does NOT propagate up — other leaves may still feed the
// parent's job.
//
// The self-clocked window needs no new machinery, but it does need the
// SAME Pool at every level: a leaf worker only sends chunk c after
// receiving chunk c−Pool's final result, which required the parent round
// trip, so the leaf's uplink never runs more than Pool chunks ahead of the
// parent's window. Configure tree levels with equal Pool.

// UplinkConfig makes a Switch a leaf of an aggregation tree.
type UplinkConfig struct {
	// Fabric is the client fabric dialed to the parent switch (e.g.
	// transport.DialUDP, or the shared Memory fabric in tests). The leaf
	// sends job j's partial sums on parent port j·Leaves + LeafID.
	Fabric transport.Fabric
	// LeafID is this leaf's worker index at the parent, 0 ≤ LeafID < Leaves.
	LeafID int
	// Leaves is the parent's fan-in (its Config.Workers).
	Leaves int
	// Control negotiates every local admission up the tree before it takes
	// effect locally (see ParentControl). Required.
	Control ParentControl
	// Push fans final RESULTs down to this leaf's own workers
	// (transport.Memory and transport.UDPServer implement it). Parent
	// results arrive on the uplink, outside any downlink handler
	// invocation, so they cannot ride a handler's DeliveryList. Required.
	Push transport.Pusher
	// Timeout is the uplink client's receive timeout per retransmit round;
	// Retries bounds consecutive timed-out rounds with uplink ADDs owed
	// before the client declares the parent unreachable and evicts the job
	// locally. Values <= 0 mean DefaultTimeout and DefaultRetries.
	Timeout time.Duration
	Retries int
}

// ParentControl negotiates a leaf's job admission with its parent switch.
// SwitchControl (in-process) and Observer (the parent's UDP control plane,
// which needs Config.Dynamic there) implement it.
type ParentControl interface {
	// Admit admits job under spec at the parent. The ack carries the
	// parent-level incarnation epoch and the spec the parent runs the job
	// under — also beside ErrAlreadyAdmitted, which only means another leaf
	// negotiated first.
	Admit(job int, spec JobSpec) (JobAck, error)
}

// SwitchControl is the in-process ParentControl: it negotiates directly
// against a parent Switch in the same process (tests, single-binary demos).
type SwitchControl struct{ Parent *Switch }

func (c SwitchControl) Admit(job int, spec JobSpec) (JobAck, error) {
	err := c.Parent.Admit(job, spec)
	return c.Parent.jobAck(job, AckAdmitted, err), err
}

// admitUp admits (job, spec) at the parent and returns the parent-level
// incarnation epoch the leaf's uplink ADDs must carry. An already-admitted
// parent job is success PROVIDED the live profile matches; a mismatch is an
// error (the leaves would feed the parent undecodable ADDs).
func admitUp(ctl ParentControl, job int, spec JobSpec) (uint8, error) {
	ack, err := ctl.Admit(job, spec)
	if err != nil && !errors.Is(err, ErrAlreadyAdmitted) {
		return 0, fmt.Errorf("aggservice: job %d parent admit: %w", job, err)
	}
	if ack.Profile != spec.Profile {
		return 0, fmt.Errorf("aggservice: job %d parent admit: %w: live at the parent under profile %v, leaf wants %v",
			job, ErrBadProfile, ack.Profile, spec.Profile)
	}
	return ack.Epoch, nil
}

// uplinkJob is one leaf incarnation's uplink client: the Worker-like state
// machine that re-emits the job's partial sums to the parent, retransmits
// them on timeout, and installs the parent's aggregates as the job's final
// RESULTs. It keeps no per-chunk state of its own — which chunks are owed,
// and the ADDs to resend for them, live in the incarnation's slots
// (slotState.up). It lives on the incarnation record (incarnation.up): Admit
// starts it, release stops it, and a re-admission gets a fresh one.
type uplinkJob struct {
	s           *Switch
	inc         *incarnation // leaf incarnation this client serves
	parentEpoch uint8        // parent incarnation stamped into uplink ADDs
	fab         transport.Fabric
	port        int // parent port: job·Leaves + LeafID
	timeout     time.Duration
	retries     int

	quit chan struct{}
	once sync.Once

	retrans atomic.Uint64

	// The receiver's reusable scratch: the final RESULTs one received
	// vector installed, and the delivery pass that fans them down.
	finals []resDone
	sc     batchScratch
	dl     transport.DeliveryList
}

// newUplinkJob builds (without starting) the uplink client for a leaf
// incarnation.
func newUplinkJob(s *Switch, inc *incarnation, parentEpoch uint8) *uplinkJob {
	u := s.cfg.Uplink
	timeout, retries := retryBudget(u.Timeout, u.Retries)
	return &uplinkJob{
		s: s, inc: inc,
		parentEpoch: parentEpoch,
		fab:         u.Fabric,
		port:        inc.job*u.Leaves + u.LeafID,
		timeout:     timeout,
		retries:     retries,
		quit:        make(chan struct{}),
	}
}

func (u *uplinkJob) stop() { u.once.Do(func() { close(u.quit) }) }

// owed appends the parent-bound ADD of every slot of inc still awaiting the
// parent's aggregate to msgs, in slot order. It walks the incarnation's
// 2·Pool slots one shard lock at a time — the timeout and audit paths only,
// never the hot path — and finds nothing once inc is retired (the parent may
// already be serving its successor).
func (s *Switch) owed(inc *incarnation, msgs [][]byte) [][]byte {
	for slot := 0; slot < 2*s.cfg.Pool; slot++ {
		sh := s.shards[s.shardOf(inc.job, slot)]
		sh.mu.Lock()
		if up := s.slotAt(inc, slot).up; up != nil && s.isLive(inc) {
			msgs = append(msgs, up)
		}
		sh.mu.Unlock()
	}
	return msgs
}

// run is the uplink receiver: it drains the parent's downlink (final
// RESULTs, run replies, lifecycle notices) and drives the retransmit
// clock. It exits on stop(), on a fabric error, or after evicting the job
// over an unreachable parent.
func (u *uplinkJob) run() {
	bufs := make([][]byte, recvVec)
	var resend [][]byte
	stalls := 0
	final := func(chunk uint32, vals []byte, ovf bool) {
		stalls = 0
		if pkt, ok := u.s.installFinal(u.inc, chunk, vals, ovf); ok {
			u.finals = append(u.finals, resDone{job: u.inc.job, chunk: chunk, pkt: pkt})
		}
	}
	for {
		select {
		case <-u.quit:
			return
		default:
		}
		k, err := u.fab.RecvBatch(u.port, bufs, u.timeout)
		if err == transport.ErrTimeout {
			resend = u.s.owed(u.inc, resend[:0])
			if len(resend) == 0 {
				stalls = 0 // idle: nothing owed, a quiet parent is fine
				continue
			}
			stalls++
			if stalls > u.retries {
				// The parent owes us aggregates and has answered nothing
				// for the whole retry budget: declare it unreachable and
				// tear the job down locally so the leaf's workers fail
				// fast instead of stalling forever.
				u.s.Evict(u.inc.job)
				return
			}
			// A datagram lost on either leg is recovered here: the slots
			// keep every owed ADD until its aggregate installs.
			u.retrans.Add(uint64(len(resend)))
			u.fab.SendBatch(u.port, resend)
			continue
		}
		if err != nil {
			return // fabric closed
		}
		for _, msg := range bufs[:k] {
			notice, ok := readDownlink(msg, u.inc.job, u.parentEpoch, u.inc.spec.Profile, u.s.cfg.Modules, final)
			if !ok {
				continue
			}
			switch notice {
			case AckEvicted, AckDraining:
				// A mid-tree eviction propagating down: the parent refuses
				// this job's uplink, so drain the leaf too. Evict → release
				// closes u.quit; push what already arrived first.
				u.pushFinals()
				u.s.Evict(u.inc.job)
				return
			case AckBackpressure:
				// The parent's fair scheduler deferred a bind; the chunk
				// stays pending and the retransmit clock recovers it next
				// round. The parent is alive.
				stalls = 0
			}
		}
		u.pushFinals()
	}
}

// installFinal resolves an uplinked chunk against the parent's aggregate:
// it caches the final RESULT — the parent's value bytes copied, its
// overflow flag ORed with the leaf's — and ends the slot's uplinked state,
// with the same under-lock revalidation the ADD path uses: if the leaf
// retired the incarnation or rebound the slot since the chunk went up, or
// the slot is already final (a duplicate parent result), the aggregate is
// dropped.
func (s *Switch) installFinal(inc *incarnation, chunk uint32, vals []byte, parentOvf bool) ([]byte, bool) {
	slot := s.slotOf(chunk)
	sh := s.shards[s.shardOf(inc.job, slot)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !s.isLive(inc) {
		return nil, false
	}
	st := s.slotAt(inc, slot)
	if st.chunk != int64(chunk) || st.up == nil {
		return nil, false
	}
	pkt, out := newResult(inc.job, chunk, s.cfg.Modules, inc.spec.Profile)
	copy(out, vals)
	putOverflow(pkt, parentOvf || st.upOvf)
	st.cached = pkt
	st.up = nil
	s.jobs[inc.job].cacheBytes.Add(int64(len(pkt)))
	return pkt, true
}

// pushFinals fans the final RESULTs one received vector installed down to
// the leaf's own workers through the fabric's push path, coalescing
// consecutive chunks into run replies exactly like the handler's delivery
// pass. Push routes synchronously, so the scratch is reused at once.
func (u *uplinkJob) pushFinals() {
	if len(u.finals) == 0 {
		return
	}
	u.sc.done = u.finals
	u.s.emitResults(&u.sc, &u.dl)
	u.s.cfg.Uplink.Push.Push(u.dl.Deliveries())
	u.dl.Reset()
	clear(u.sc.items)
	u.sc.items = u.sc.items[:0]
	clear(u.finals)
	u.finals = u.finals[:0]
}

// submitUplinks sends a batch's locally-completed chunks up the tree, one
// vector per incarnation. Runs after the shard lock rounds — it is fabric
// I/O. The slots already own the packets, so a datagram lost here (or a send
// error) is recovered by the uplink client's retransmit round like any other.
func (s *Switch) submitUplinks(sc *batchScratch) {
	for i := 0; i < len(sc.ups); {
		inc := sc.ups[i].inc
		msgs := sc.items[:0]
		for ; i < len(sc.ups) && sc.ups[i].inc == inc; i++ {
			msgs = append(msgs, sc.ups[i].pkt)
		}
		sc.items = msgs
		// A completion observed under an incarnation retired since must
		// not climb: the parent may already be serving its successor.
		if s.isLive(inc) {
			inc.up.fab.SendBatch(inc.up.port, msgs)
		}
	}
}

// UplinkRetransmits reports how many uplink ADDs the job's live uplink
// client has retransmitted (0 for non-leaves and vacant jobs).
func (s *Switch) UplinkRetransmits(job int) uint64 {
	if inc := s.current(job); inc != nil && inc.up != nil {
		return inc.up.retrans.Load()
	}
	return 0
}

// UplinkPending reports how many uplink ADDs await the parent's aggregate
// (0 for non-leaves and vacant jobs); tests use it to audit that a drain
// left nothing owed.
func (s *Switch) UplinkPending(job int) int {
	if inc := s.current(job); inc != nil && inc.up != nil {
		return len(s.owed(inc, nil))
	}
	return 0
}

// Close stops the switch's background machinery: every live uplink client
// and every pending drain timer. The switch must not handle traffic after
// Close; it exists so leaves (whose uplink receivers poll their fabric)
// shut down cleanly with their process. A stopped receiver returns at its
// next wake-up: at once if the uplink fabric is closed too (every fabric's
// Close fails a blocked RecvBatch), else when its receive timeout expires.
func (s *Switch) Close() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	for j := range s.jobs {
		inc := s.jobs[j].live.Load()
		if inc == nil {
			continue
		}
		if inc.drainTimer != nil {
			inc.drainTimer.Stop()
		}
		if inc.up != nil {
			inc.up.stop()
		}
	}
}
