package aggservice

import "time"

// This file is the per-shard deficit-round-robin (DRR) scheduler that
// shares pipeline time across tenant jobs in weight proportion — the
// switch's one isolation mechanism: every admitted job carries a Weight and
// the switch meters NEW chunk binds — the unit of pipeline time in this
// protocol — so that under contention each tenant's bind throughput
// converges to its weight share, while an uncontended switch stays
// work-conserving (a lone tenant is never throttled).
//
// Each shard runs its own scheduler instance under the shard lock it
// already holds for the slot protocol, so the hot path adds no new lock
// and no cross-shard coordination. Per-shard fairness composes to global
// fairness because each shard holds an equal block of every job's slots
// (when Shards divides 2·Pool; see Switch.locate) and a job's chunk stream
// cycles through all of its slots: over 2·Pool chunks every job binds the
// same share on each shard, though one window's binds may meet one shard.
//
// The algorithm is the lazy-round variant of classic DRR:
//
//   - Time is divided into rounds. A job's deficit is replenished to
//     Weight · drrQuantum binds on its FIRST bind attempt of each round
//     (lazy, so an idle tenant costs nothing and a round advance is O(1)).
//   - Every bind of a new chunk spends one unit of deficit. Retransmits of
//     in-flight chunks and result replays are free — only binding fresh
//     pipeline work is metered.
//   - An over-deficit bind is DEFERRED while another job that has shown
//     demand this round still holds unspent deficit: the packet is dropped,
//     counted (WireRejects.Backpressure, JobStats.SchedDefers) and answered
//     with an AckBackpressure notice so the sender waits instead of
//     hammering retransmits. The sender's normal timeout/retransmit path
//     recovers the chunk in a later round.
//   - The round advances as soon as no demanding job holds deficit — the
//     work-conserving exit: a lone flooding tenant advances rounds freely,
//     reading no clock — or schedRoundAge after the round's first
//     deferral, which bounds the stall when a budget-holding tenant goes
//     quiet mid-round (crashed worker).
//
// Eviction returns unspent deficit: release() forfeits the job's budget on
// every shard so a dead tenant's leftover deficit can neither block the
// round nor leak into the job id's next incarnation.

// drrQuantum is the number of new-chunk binds one unit of Weight buys per
// shard per scheduler round. Small enough that the round — the fairness
// granularity — turns over quickly under contention; large enough that a
// weight-1 tenant still binds a useful burst per round.
const drrQuantum = 8

// schedRoundAge bounds a round's lifetime once a bind has been deferred: if
// a demanding job holds unspent deficit but stops binding (its workers
// died), deferred tenants wait at most this long before the round is forced
// over. Well under the workers' retransmit timeouts, so a forced advance is
// invisible to the protocol.
const schedRoundAge = 3 * time.Millisecond

// MaxWeight bounds a job's scheduler weight: the wire carries 16 bits.
const MaxWeight = 1<<16 - 1

// drrSched is one shard's scheduler state, guarded by the owning shard's
// mutex (it has no lock of its own).
type drrSched struct {
	// maxAge is the round-age stall bound: schedRoundAge on a switch's
	// shards.
	maxAge time.Duration
	// round is the current round number. Rounds start at 1 so a zeroed
	// drrJob.seenRound can never alias a live round.
	round uint64
	// roundStart is when the current round first deferred a bind, zero
	// until it does: the maxAge stall bound counts from there, so a round
	// nobody defers never reads the clock.
	roundStart time.Time
	// holders counts jobs that have shown demand this round AND still hold
	// unspent deficit — the O(1) round-advance test.
	holders int
	// jobs is indexed by job id (the switch's full capacity).
	jobs []drrJob
}

// drrJob is one job's per-shard deficit state.
type drrJob struct {
	// deficit is the binds left this round; only meaningful while
	// seenRound == sched.round.
	deficit int64
	// seenRound is the round this job last attempted a bind in.
	seenRound uint64
}

func newDRRSched(ncap int, maxAge time.Duration) drrSched {
	return drrSched{maxAge: maxAge, round: 1, jobs: make([]drrJob, ncap)}
}

// charge spends one new-chunk bind from job's deficit, replenishing
// quantum binds on the job's first attempt of the round. It returns false
// when the bind must be deferred: the job is over-deficit and another
// demanding job still holds budget within the round-age bound. Caller
// holds the shard lock.
func (d *drrSched) charge(job int, quantum int64) bool {
	j := &d.jobs[job]
	if j.seenRound != d.round {
		// First attempt this round: replenish in weight proportion. Unspent
		// deficit from earlier rounds does not carry — a round's budget is
		// its fairness guarantee, not a bankable credit.
		j.seenRound = d.round
		j.deficit = quantum
		d.holders++
	}
	if j.deficit <= 0 {
		if d.holders > 0 {
			// Another demander still owns this round's budget: defer, until
			// the round has stalled maxAge past its first deferral.
			if d.roundStart.IsZero() {
				d.roundStart = time.Now()
				return false
			}
			if time.Since(d.roundStart) < d.maxAge {
				return false
			}
		}
		// Work conservation: nobody (demanding) holds budget, or the round
		// stalled past its age bound — start the next round and serve.
		d.round++
		d.holders = 1
		d.roundStart = time.Time{}
		j.seenRound = d.round
		j.deficit = quantum
	}
	j.deficit--
	if j.deficit == 0 {
		d.holders--
	}
	return true
}

// refund returns one charged bind to job — the undo for a bind that was
// admitted by the scheduler but then refused by the aggregator, so the job is
// not billed for work that never ran. Caller holds the shard lock.
func (d *drrSched) refund(job int) {
	j := &d.jobs[job]
	if j.seenRound != d.round {
		return // the round moved on; the budget expired with it
	}
	if j.deficit == 0 {
		d.holders++
	}
	j.deficit++
}

// forfeit zeroes job's deficit and removes it from the round — the
// eviction path's "return unspent deficit": a released job must neither
// block the round for the tenants still running nor hand leftover budget
// to the id's next incarnation. Caller holds the shard lock.
func (d *drrSched) forfeit(job int) {
	j := &d.jobs[job]
	if j.seenRound == d.round && j.deficit > 0 {
		d.holders--
	}
	j.deficit = 0
	j.seenRound = 0
}
