package aggservice

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fpisa/internal/transport"
)

// This file composes switches into an aggregation tree (doc.go,
// "Aggregation trees"). A leaf is a worker of its parent: its uplink client
// feeds each locally complete partial sum to the addSender Worker.Reduce
// runs, and adds only what a leaf alone does — installing the parent's
// aggregates as final RESULTs, fanning them down, and evicting the job when
// the parent refuses it or stays silent for the retry budget.

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

// uplinkJob is one leaf incarnation's uplink client. It lives on the
// incarnation record (incarnation.up): Admit starts it, release stops it,
// and a re-admission gets a fresh one.
type uplinkJob struct {
	s           *Switch
	inc         *incarnation // leaf incarnation this client serves
	parentEpoch uint8        // parent incarnation stamped into uplink ADDs
	fab         transport.Fabric
	port        int // parent port: job·Leaves + LeafID
	timeout     time.Duration

	quit chan struct{}
	once sync.Once

	retrans atomic.Uint64

	// mu serialises the sender's steps: HandleBatch goroutines offer under
	// it (submitUplinks), the receiver takes finals and timeouts under it.
	// No other lock is taken and no fabric call runs under it.
	mu  sync.Mutex
	snd addSender
	// win is the sender's 2·Pool window entries, one ADD each, entry chunk
	// mod 2·Pool holding the owed ADD of that chunk: written (submitUplinks)
	// and read (a retransmit round) only under mu.
	win []byte

	// The receiver's reusable scratch: the final RESULTs one received
	// vector installed, the delivery list they and their run replies are
	// built in, the delivery pass that fans them down, and the copy of a
	// retransmit round taken out of the window.
	finals    []resDone
	sc        batchScratch
	dl        transport.DeliveryList
	resendBuf []byte
}

// newUplinkJob builds (without starting) the uplink client for a leaf
// incarnation.
func newUplinkJob(s *Switch, inc *incarnation, parentEpoch uint8) *uplinkJob {
	u := s.cfg.Uplink
	timeout, retries := retryBudget(u.Timeout, u.Retries)
	up := &uplinkJob{
		s: s, inc: inc,
		parentEpoch: parentEpoch,
		fab:         u.Fabric,
		port:        inc.job*u.Leaves + u.LeafID,
		timeout:     timeout,
		quit:        make(chan struct{}),
		win:         make([]byte, 2*s.cfg.Pool*addBytes(s.cfg.Modules, inc.spec.Profile)),
	}
	up.snd.reset(inc.job, parentEpoch, inc.spec.Profile, s.cfg.Modules, s.cfg.Pool, s.span, retries)
	return up
}

func (u *uplinkJob) stop() { u.once.Do(func() { close(u.quit) }) }

// run is the uplink receiver: it steps the sender with the parent's
// downlink and each receive timeout, and sends the retransmit rounds. It
// exits on stop() — checked after every wait, so a retired incarnation's
// owed ADDs never reach a parent that may serve its successor — on a
// fabric error, or after evicting the job.
func (u *uplinkJob) run() {
	bufs := make([][]byte, recvVec)
	var resend [][]byte
	var paid []paidFinal
	take := func(chunk uint32, vals []byte, ovf bool) { paid = append(paid, paidFinal{chunk, vals, ovf}) }
	for {
		k, err := u.fab.RecvBatch(u.port, bufs, u.timeout)
		select {
		case <-u.quit:
			return // released (or the switch closed) while it waited
		default:
		}
		if err != nil && err != transport.ErrTimeout {
			return // fabric closed
		}
		resend, paid = resend[:0], paid[:0]
		u.mu.Lock()
		if err == nil {
			_, err = u.snd.onDownlink(bufs[:k], take)
		} else {
			resend, err = u.snd.onTimeout(resend)
			// The round is sent after the unlock: take it out of the window.
			u.resendBuf = detach(u.resendBuf, resend)
		}
		u.mu.Unlock()
		// Installed after the unlock, so a handler offering completions
		// never waits on a shard lock.
		u.finals = u.s.installFinals(u.inc, paid, u.finals, &u.dl)
		u.pushFinals()
		if err != nil {
			// The parent evicted the job, or is unreachable: evict it here
			// so the leaf's workers fail fast. Evict → release closes u.quit.
			u.s.Evict(u.inc.job)
			return
		}
		if len(resend) > 0 {
			u.retrans.Add(uint64(len(resend)))
			u.fab.SendBatch(u.port, resend)
		}
	}
}

// paidFinal is a parent final the sender took for an owed chunk; vals
// views the received buffer, which holds until the receiver's next wait.
type paidFinal struct {
	chunk uint32
	vals  []byte
	ovf   bool
}

// installFinals resolves owed chunks against the parent's aggregates: for
// each paid final it writes the final RESULT — the parent's value bytes
// copied, with ovf (the parent's flag ORed with the leaf's) — into the
// slot's region and appends a copy built in out's arena to done, which it
// returns. A run of consecutive finals on one shard installs under one hold
// of that shard's lock, as an ADD batch's share does, and each final
// revalidates as the ADD path does: if the leaf retired the incarnation or
// rebound the slot since the chunk went up, or the slot is already final,
// that aggregate is dropped.
func (s *Switch) installFinals(inc *incarnation, paid []paidFinal, done []resDone, out *transport.DeliveryList) []resDone {
	held := -1
	for _, f := range paid {
		loc := s.locate(inc, s.slotOf(f.chunk))
		if loc.shard != held {
			if held >= 0 {
				s.shards[held].mu.Unlock()
			}
			held = loc.shard
			s.shards[held].mu.Lock()
		}
		if !s.isLive(inc) {
			continue
		}
		st := &inc.banks[held].slot[loc.idx]
		if st.chunk != int64(f.chunk) || st.final {
			continue
		}
		putHeader(st.res, MsgResult, inc.job, f.chunk)
		copy(st.res[hdrBytes:len(st.res)-1], f.vals)
		putOverflow(st.res, f.ovf)
		st.final = true
		inc.ctr.shard[held].cacheBytes += int64(len(st.res))
		done = append(done, resDone{inc: inc, chunk: f.chunk, pkt: copyInto(out, st.res)})
	}
	if held >= 0 {
		s.shards[held].mu.Unlock()
	}
	return done
}

// pushFinals fans the final RESULTs one received vector installed down to
// the leaf's own workers through the fabric's push path, coalescing
// consecutive chunks into run replies exactly like the handler's delivery
// pass. Push copies or writes every packet before it returns, so the
// delivery list (and the arena the finals were copied into) is reset, and
// the scratch reused, at once.
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

// submitUplinks offers a batch's locally-completed chunks to their
// incarnations' uplink senders and sends what the senders return, one
// vector per incarnation. It runs after the shard lock rounds, and sends
// after the uplink mutex is released — it is fabric I/O. Each ADD was
// built in the handler's delivery arena; the sender keeps a copy in the
// uplink window, written under the mutex, while the send carries the
// arena's bytes, which the handler's caller keeps until the call returns.
// From the offer on the sender owes each packet, so a datagram lost here
// (or a send error) is recovered by its retransmit round like any other.
func (s *Switch) submitUplinks(sc *batchScratch) {
	for i := 0; i < len(sc.ups); {
		inc := sc.ups[i].inc
		u := inc.up
		msgs := sc.items[:0]
		u.mu.Lock()
		// A completion observed under an incarnation retired since must
		// not climb: the parent may already be serving its successor.
		live := s.isLive(inc)
		for ; i < len(sc.ups) && sc.ups[i].inc == inc; i++ {
			if up := &sc.ups[i]; live {
				msgs = u.snd.offer(msgs, up.chunk, u.entry(up.chunk, up.pkt), up.ovf)
				msgs[len(msgs)-1] = up.pkt
			}
		}
		u.mu.Unlock()
		sc.items = msgs
		if len(msgs) > 0 {
			u.fab.SendBatch(u.port, msgs)
		}
	}
}

// entry copies pkt, chunk's ADD, into its window entry and returns the
// entry. Caller holds u.mu.
func (u *uplinkJob) entry(chunk uint32, pkt []byte) []byte {
	n := len(u.win) / len(u.snd.ring)
	e := int(chunk%uint32(len(u.snd.ring))) * n
	copy(u.win[e:e+n], pkt)
	return u.win[e : e+n : e+n]
}

// detach copies pkts into buf, pointing each at its copy, and returns the
// grown buf: the packets then outlive the lock their originals need.
func detach(buf []byte, pkts [][]byte) []byte {
	buf = buf[:0]
	for _, p := range pkts {
		buf = append(buf, p...)
	}
	off := 0
	for i, p := range pkts {
		pkts[i] = buf[off : off+len(p) : off+len(p)]
		off += len(p)
	}
	return buf
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
		inc.up.mu.Lock()
		defer inc.up.mu.Unlock()
		return inc.up.snd.owed
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
