// Package aggservice is the FPISA in-network aggregation service: the
// "SwitchML enhanced with FPISA" system of paper §5. Workers stream raw
// floating-point gradient chunks to the switch in a single round; the
// switch aggregates them with the arithmetic the job negotiated at
// admission (internal/core) and broadcasts each chunk's sum when the last
// worker's packet arrives.
//
// Compared to the SwitchML baseline there is no quantization, no
// scaling-factor round and no host-side format conversion — exactly the
// §5.2.3 protocol difference that frees worker CPU cores
// (internal/perfmodel's HostWork measures each system's host work).
//
// # Multi-job tenancy
//
// One switch serves several training jobs at once — the deployment the
// paper's line-rate claim implies. State is partitioned by tenant: an
// admitted job j owns 2·Pool slots of its own (registers and protocol
// state, living on its incarnation record) and the transport ports
// [j·Workers, (j+1)·Workers). Because a packet's slot is derived from its
// authenticated (port, job) pair — and a header
// job id that disagrees with the sending port's partition is rejected and
// counted (WireRejects.CrossJob) — no tenant can read or clobber another
// tenant's aggregation state.
//
// Each job carries its own Stats (values aggregated, retransmits observed,
// chunks completed, scheduler defers, outstanding-slot gauge, result
// replays and the bytes of final RESULTs its slots hold), queryable in
// process (Switch.JobStats) or over the wire (MsgStats/MsgStatsReply, used
// by fpisa-query). The counters are kept per (incarnation, shard): a
// cache-line-padded block per shard, bumped as plain integers under the
// shard lock the slot protocol already holds, and summed block by block
// under each shard's lock when read. Pipeline time is shared by the
// deficit-round-robin scheduler below, and — because the deficit and every
// counter are per job — one tenant hitting its limits never stalls another.
//
// # Fair scheduling (deficit round robin)
//
// The switch pipeline is the shared resource tenants contend for, and the
// unit of pipeline time in this protocol is BINDING A NEW CHUNK: a bound
// chunk owns a slot, its Workers ADD passes, and a result broadcast.
// Every admitted job therefore carries a Weight (Config.Weights at
// construction, JobSpec.Weight in Switch.Admit / MsgJobAdmit at runtime;
// default 1, a requested 0 is clamped to 1 and revealed in the ack), and
// each shard meters new-chunk binds with a deficit-round-robin ledger it
// keeps under the shard lock it already holds:
//
//   - On a job's first bind attempt of a scheduler round, its deficit is
//     replenished to Weight · 8 binds (lazily, so idle tenants cost
//     nothing). Each bind spends one unit; retransmits of in-flight
//     chunks and final-RESULT replays are free.
//   - An over-deficit bind is DEFERRED while another tenant that showed
//     demand this round still holds budget: the ADD is dropped, counted
//     (WireRejects.Backpressure, JobStats.SchedDefers) and answered with
//     an AckBackpressure notice echoing the offending ADD's epoch. The
//     worker counts the notice and retransmits nothing — it does not
//     hammer a deferred bind — and recovers the chunk through its normal
//     timeout path once the round turns over.
//   - The round advances the moment no demanding tenant holds budget
//     (work conservation: a lone tenant is never throttled, and reads no
//     clock), or 3 ms after the round's first deferral when a budget
//     holder goes quiet mid-round (dead workers) so nobody waits on a
//     ghost.
//
// Because each shard holds an equal block of every job's slots (when
// Shards divides 2·Pool) and a job's chunk stream cycles through all of
// them, per-shard fairness composes: under contention each tenant's
// completed-chunk throughput converges to its weight share (the fairness
// property test pins 1:2:4 within 10%, Jain's index ≥ 0.95). Eviction returns a
// tenant's unspent deficit on every shard — a leaving job can neither
// block the round nor hand leftover budget to the id's next incarnation.
//
// # Numeric profiles (per-job arithmetic)
//
// Precision is a per-tenant resource, negotiated at admission the same way
// pipeline time is: weights share time, profiles share precision. A
// core.NumericProfile names the wire value format (f32, f16 or bf16), the
// accumulator guard bits (paper Appendix A.1's swamping protection) and
// the rounding mode (truncate or round-to-nearest-even). Initial jobs take
// theirs from Config.Profiles (fpisa-switch -profiles); runtime admissions
// carry one in their JobSpec (Switch.Admit, MsgJobAdmit, fpisa-query
// -admit -profile). The admission validates before any state moves —
// unknown octets, guard bits that leave the mantissa register no headroom
// (Headroom() < 1) and RNE without a guard bit to round on are refused
// with AckErrBadProfile/ErrBadProfile — and the ack echoes the profile
// actually applied, the operator's receipt to hand to the job's workers
// (Worker.Profile).
//
// On the switch, the one-pipeline-per-switch assumption is gone: each
// job holds a BANK per shard — an aggregator plus the protocol state of the
// job's block of slots on that shard — built at admission and dropped
// with the incarnation at release. Every bank, whatever its profile, is a
// bit-exact accumulator built at admission from the job's Config
// (core.NewProfileAggregator), so two jobs with different profiles run
// different arithmetic side by side on one switch. The compiled FPISA
// program serves no packet: it is compiled once per shape per process
// (Mode, Modules, a bank's slots and Arch), by the first switch of that
// shape, as the witness that the shape fits and as the Utilization report;
// later switches of the shape reuse the report. A shape that does not fit
// is compiled, and refused, on every construction. core's differential
// tests hold the accumulator to the program. On the wire, ADD values
// and RESULT sums are carried in the job's negotiated format — the 16-bit
// formats halve the value payload — and a worker speaking the wrong width
// for its job is refused as malformed rather than mis-decoded.
//
// # Job lifecycle (runtime control plane)
//
// The switch is a long-lived shared resource: jobs join and leave without
// a restart. Config.Capacity is the job-id space, and every job id moves
// through a three-state machine:
//
//	vacant ──admit──▶ admitted ──evict──▶ draining ──release──▶ vacant
//
// A live job is ONE record, the incarnation: the JobSpec the admission
// applied (weight, profile, class), the per-shard banks (registers plus
// slot state) or analytics registers behind it, and — on a tree leaf — its
// uplink client. Admit (MsgJobAdmit over the observer frame, fpisa-query
// -admit, or the in-process Switch.Admit; Config.Jobs' initial tenants go
// through the same call) builds the record with every slot free, zeroes the
// job's counters and publishes the record with a single pointer store; a
// vacant id inside the capacity is never refused for want of room. Evict
// (MsgJobEvict / Switch.Evict) flags the record draining: ADDs
// that would bind a NEW chunk are refused (counted in WireRejects.Draining,
// answered with an AckDraining notice) while chunks already in flight
// complete and deliver normally. When the last outstanding slot completes
// — or Config.DrainTimeout expires — release retires the record with a
// single store of nil; its slots, caches and registers go with it. An
// evicted id keeps its final counters until it is re-admitted. Workers of
// an evicted job receive MsgJobAck notices (AckDraining/AckEvicted) and
// surface ErrJobEvicted from Reduce instead of retransmitting forever.
//
// The wire control plane is observer-only (a tenant's worker port cannot
// evict another tenant) and opt-in via Config.Dynamic (fpisa-switch
// -dynamic): a switch that does not enable it answers AckErrDisabled.
// Every transition can be observed in process through Switch.OnLifecycle.
//
// In-process, a handler loads the record once, carries the pointer, and
// every shard-locked section revalidates it by pointer identity against
// the job's live record. A handler racing an eviction therefore sees one
// whole incarnation or none: the slots it would touch belong to the record
// it carries, and the id-indexed state the next incarnation inherits
// (counters, scheduler ledger, downlink ports) is only reached while that
// record is still the live one. Each release also advances the job's epoch counter, which names
// the next incarnation on the wire: every ADD carries the epoch octet (the
// release counter mod 256), and an ADD whose octet disagrees with the job's
// current incarnation is refused as stale (WireRejects.Stale, an
// AckEvicted notice). A datagram buffered in the network from an evicted incarnation
// of a re-admitted job id therefore bounces instead of binding a stale
// chunk into the fresh incarnation — the operator hands the admit ack's epoch
// (fpisa-query prints it; Switch.JobEpoch serves the in-process path) to
// the new incarnation's workers (Worker.Epoch). Control-plane acks echo
// the job's CURRENT epoch (that is what an admit teaches the operator);
// worker-facing eviction/draining notices echo the OFFENDING ADD's
// octet, and a worker aborts only on a notice matching its own
// incarnation — so a notice bounced off one stale straggler datagram can
// never kill the fresh workers sharing the port. The
// octet wraps at 256 releases; an id would need 256 evict/re-admit cycles
// while one datagram stays buffered for a collision, orders of magnitude
// beyond any straggler window a drain leaves open.
//
// # Wire format (version 2)
//
// Every message leads with a version octet, WireVersion = 0xF2; a datagram
// that leads with anything else is malformed (WireRejects.Malformed). The
// second octet is the message type; every message carries a 16-bit
// big-endian job id next. All integers are big-endian. wire.go holds the
// whole protocol: msgTable, the list of messages (who may send each to a
// switch, and its size), one encoder and at most one decoder per message —
// the switch's included: HandleBatch parses each datagram once through them
// and nothing else indexes a packet.
//
//	add    = [ver(1) type(1) job(2) chunk(4) epoch(1) values(W·M)]
//	result = [ver(1) type(1) job(2) chunk(4) values(W·M) overflow(1)]
//	run    = [ver(1) type(1) job(2) start(4) count(2)
//	          { values(W·M) overflow(1) }·count]
//	stats  = [ver(1) type(1) job(2)]
//	reply  = [ver(1) type(1) job(2) phase(1) weight(2) fmt(1) guard(1)
//	          round(1) class(1) topn(2) groups(2) adds(8) retransmits(8)
//	          completions(8) schedDefers(8) outstanding(8) cacheHits(8)
//	          cacheBytes(8) coalesced(8)]
//	admit  = [ver(1) type(1) job(2) weight(2) fmt(1) guard(1) round(1)
//	          class(1) topn(2) groups(2)]
//	evict  = [ver(1) type(1) job(2)]
//	ack    = [ver(1) type(1) job(2) status(1) epoch(1) weight(2) fmt(1)
//	          guard(1) round(1) class(1) topn(2) groups(2)]
//	tuple  = [ver(1) type(1) job(2) seq(4) epoch(1) op(1) count(2)
//	          { key(4) val(4) }·count]
//	tupack = [ver(1) type(1) job(2) seq(4) count(2) bitmap(⌈count/8⌉)]
//	drain  = [ver(1) type(1) job(2) kind(1) flags(1) nonce(4)]
//	dreply = [ver(1) type(1) job(2) kind(1) count(2) { key(4) val(4) }·count]
//
// The run reply (MsgResultRun) is the range-coalesced downlink: when one
// batch completes consecutive chunks of a job, the switch answers a single
// run carrying count ≥ 2 result bodies for chunks start..start+count−1
// instead of count individual RESULTs (JobStats.Coalesced counts chunks
// delivered this way). Each chunk's RESULT stays in its own slot, so
// retransmit-driven replays still answer per chunk.
//
// W is the job's negotiated value width: 4 bytes under the f32 profile, 2
// under f16/bf16 — an ADD whose length disagrees with its job's profile is
// rejected as malformed. The admit request names the tenant's scheduler
// weight, numeric profile (the fmt/guard/round octets) and workload class
// (the class/topn/groups octets, see below), and every ack echoes the
// job's live weight, profile and class next to its incarnation epoch — a
// successful admit's ack is the operator's receipt for what the switch
// will actually enforce (a requested weight 0 comes back as the clamped
// 1). Decoders return the profile and class octets exactly as carried;
// validation is the admission path's job, so a decode/encode round trip is
// byte-exact even for frames the switch would refuse.
//
// One packet is one protocol message: coalescing lives BELOW this wire
// format — packets cross the transport as VECTORS (transport.BatchHandler /
// Fabric.SendBatch) and the UDP fabric packs a vector into its own frames.
// This package never sees a frame; it sizes what must cross as one datagram
// by the fabric's budget, transport.FrameCapacity. Message type 2, which
// once framed several messages inside the protocol, is reserved and
// rejected as malformed. Every decoder checks bounds first — a truncated frame
// returns a wire error wrapping ErrTruncated rather than panicking — and is
// fuzzed: the clients' by the FuzzDecode* targets, the switch's ingress by
// FuzzHandleBatch.
//
// The layouts are not versioned against each other: they evolve with the
// repository (this revision widened the stats reply, the admit request and
// the ack with the workload-class octets, after earlier revisions added the
// numeric-profile octets and the scheduler's weight fields), and peers are
// expected to be built from the same commit — mixed-commit deployments are
// not supported.
//
// # Workload classes (query & telemetry tenants)
//
// Training is no longer the only first-class workload: an admission
// carries an AdmitClass descriptor (the class/topn/groups wire octets;
// Config.Classes for initial jobs, fpisa-switch -classes, fpisa-query
// -admit -class, or ParseClass's "query:TOPN:GROUPS" / "telemetry:GROUPS"
// operator syntax) that selects the job's data path:
//
//   - training (the zero descriptor): the gradient ADD/RESULT protocol
//     above, unchanged.
//   - query: in-network query acceleration (§6). The job provisions
//     TopN ordered-key pruning registers, Groups group-max pruning
//     buckets and Groups FPISA sum accumulators; workers stream
//     key/value rows as MsgTuple batches under OpQueryTopN /
//     OpQueryGroupMax (the ack's survivor bitmap tells the worker which
//     rows still matter) or OpQueryAgg (rows fold into per-group FPISA
//     sums and never cross to the master).
//   - telemetry: in-switch traffic sketches (§7). Groups (a power of
//     two) traffic classes — equal-length prefixes of the key's top
//     bits — a Groups-row space-saving heavy-hitter table, per-class FP32
//     utilization accumulators and a log2 size histogram
//     (internal/stats), all fed by OpTelemetry samples.
//
// The descriptor is validated at admission (AckErrBadClass/ErrBadClass on
// refusal — analytics classes are also refused on tree leaves, since
// their state drains locally and never climbs an uplink), echoed in the
// ack and reported by MsgStatsReply. Class membership is enforced on
// every data-plane message: an ADD to an analytics job, a tuple to a
// training job, or a tuple op the class did not provision bounces with an
// AckErrBadClass notice (WireRejects.BadClass). Analytics batches spend
// scheduler budget exactly like training chunk binds — one DRR unit per
// NEW tuple batch, deferral answered with AckBackpressure — so
// mixed-class tenants share the pipeline under the same fairness ledger
// (the property test pins mixed training/query/telemetry throughput at
// 1:2:4 within 10%, Jain ≥ 0.95).
//
// Analytics state leaves the switch through observer drain frames
// (MsgDrain/MsgDrainReply; Observer.Drain client-side, fpisa-query
// -drain): kind selects the grouped registers (query sums, telemetry
// per-class utilization), the heavy-hitter table or the histogram bins,
// each read-and-reset. The nonce makes the non-idempotent harvest safe
// under retries — the switch caches the last reply per job and replays it
// when the same nonce returns (JobStats.CacheHits counts replays). The
// DrainFlagResetPrune flag additionally recycles the pruning registers
// and tuple sequence lanes, the between-queries reset a query tenant
// uses. Incremental drains compose exactly because FPISA registers
// read-and-reset atomically; draining every interval also keeps §3.3
// sticky-overflow inside the register's dynamic range — the drain cadence
// is the telemetry accuracy contract.
//
// # Sharded switch
//
// The switch side is sharded across N independent pipeline replicas, the
// way a multi-pipe ASIC stamps identical pipelines out of one P4 compile:
// each job's banks are replicas of one accumulator bank
// (core.ProfileAggregator.Replicate), and the jobs' slots, laid end to end
// in id order, are dealt to the shards in blocks of perBank =
// ceil(2·Pool/Shards) consecutive slots (see Switch.locate). An incarnation
// holds one bank per shard — its registers plus the seen-bitmaps and RESULT
// regions of its block there — and one counter block per shard, and each
// shard's lock guards every live job's bank and block on that shard, so
// packets addressed to different shards aggregate concurrently without
// writing a byte another shard writes — per-slot state independence is
// exactly what makes switch pipelines parallel. Shards: 1 (the default) reproduces the
// single-pipeline switch.
//
// Ingest is vectored (Switch.HandleBatch, the transport.BatchHandler): a
// worker's packet vector is validated once and its ADDs run in arrival
// order, each run of consecutive ADDs on one shard under ONE hold of that
// shard's lock — the packet-vector-per-pipeline-pass shape SwitchML-class
// data planes aggregate at. Every sender sends in chunk order and the
// shards hold blocks, so a window meets as few locks as it spans blocks
// (a Pool-aligned window on up to two shards meets one) and completes in
// chunk order for the run replies, without a sort; a leaf installs the
// parent's finals the same way (installFinals). A call's scratch belongs
// to the calling lane, as a packet's state to the pipeline port running
// it: it lives in the caller's DeliveryList.Lane, which each fabric keeps
// per lane (a Memory port, a UDP serve reader), and holds nothing sized by
// the switch. HandleBatch clears its ADDs' views of the caller's packets
// before it returns, and the fabric reuses a packet only after that, so no
// view reaches the lane's next call.
//
// # Slot protocol
//
// Slot management follows SwitchML's self-clocked pool with two banks:
// within its partition, chunk c uses slot (c mod pool) + pool·((c/pool)
// mod 2), a worker sends chunk c only after receiving the result of chunk
// c−pool, and duplicate packets for completed chunks are answered from the
// slot's own state — which makes the protocol robust to packet loss in
// either direction. The slot holds a chunk's in-flight state (slotState:
// free → aggregating → complete → final): a final slot holds its RESULT in
// its window of the bank's RESULT region, preallocated at admission, until
// chunk c+2·pool rebinds the slot or the incarnation is released, so a job
// holds at most 2·pool final RESULTs (their bytes and the replays are
// tracked per job as CacheBytes/CacheHits).
//
// An incarnation serves one chunk stream, not one reduce. Chunk ids run on
// a clock of period span = ⌊2³²/(2·pool)⌋·2·pool — the largest multiple of
// the slot count the 32-bit field holds, so the slot mapping runs on across
// the wrap; an ADD naming a chunk ≥ span is malformed. A slot compares
// chunks by serial-number arithmetic modulo span: a free slot binds any
// chunk, a bound one binds a chunk less than half the span ahead of its own
// and drops anything behind it as stale. The self-clocked window keeps a
// live worker within 2·pool chunks of its slot, far from that ambiguity.
//
// A slot is rebound by overwrite, not by a reset: the first ADD of a new
// chunk passes the draining and scheduler gates, then runs ONE aggregator
// operation (SetInto; on the compiled program, one core.PktSet pass) that
// stores its values over whatever the slot's previous chunk left — bit for
// bit what a read-reset followed by an add would leave. Only when that
// operation has succeeded is the slot bound to the chunk; a failed one
// refunds the scheduler and leaves the slot unbound, so the sender's
// retransmit binds it as if nothing had happened. Every later worker's
// ADD is one AddInto, duplicates and replays are answered before the
// aggregator, so a chunk costs exactly one aggregator operation per
// contribution, on the ADD's value bytes as sent. Only the ADD that
// completes the chunk reads the sums, into its fresh RESULT (a leaf's
// uplink ADD); every other one passes a nil out and no response is built
// — one discarding and one reading operation per two-worker chunk
// (TestAggregatorOpsPerChunk).
//
// # Aggregation trees (uplink role)
//
// Switches compose into a multi-level aggregation tree — the paper's
// rack → spine scale-out. A switch configured with Config.Uplink is a LEAF
// and a worker of its parent: a locally-completed chunk is a PARTIAL sum,
// which the leaf offers as an ADD to the same addSender a Worker runs
// (parent port job·Leaves + LeafID on UplinkConfig.Fabric), and the final
// RESULT goes down to the leaf's workers only when the parent's aggregate
// returns. The parent is an ordinary Switch whose workers are the leaves,
// so trees nest. Levels share one Pool: a leaf worker sends chunk c only
// after chunk c−Pool's final, so the uplink never runs more than Pool
// chunks ahead of the parent's window.
//
// Admitting a job on a leaf first negotiates the same job, weight and
// profile at the parent (ParentControl: SwitchControl in process, Observer
// over the observer frame; a job another leaf already admitted is joined, a
// profile mismatch is refused before any local state moves), and the
// parent's ack supplies the parent-level incarnation epoch stamped into
// every uplink ADD. An eviction at the parent propagates DOWN: the leaf's
// uplink ADDs bounce as epoch-matched AckDraining/AckEvicted notices and the
// leaf evicts the job locally; a leaf-local evict does NOT propagate up —
// sibling leaves may still feed the parent's job. The uplink spends its
// retry budget (UplinkConfig.Timeout/Retries) by the Worker's rule: when it
// runs out with aggregates owed, the leaf evicts the job so its workers fail
// fast. NewSwitch refuses a leaf without UplinkConfig.Control or Push.
//
// # Control client
//
// Observer is the one client of the out-of-band control plane: Admit,
// Evict, Stats and Drain each send one request through a socket the
// transport dials for observers (transport.DialObserver, whose frames the
// switch answers to the sender without learning it as a worker) and wait
// for the reply (a fixed attempt budget; a definitive refusal is returned,
// not retried away; a retransmitted admit or evict that finds its work
// already done reports the success it was). fpisa-query, the examples and a
// leaf's ParentControl all go through it. The wait is stopAndWait, the loop
// a TupleClient's batches run too: it resends on timeout only, so a stray
// or stale datagram costs no attempt.
//
// # Host side
//
// Worker.Reduce is one run-to-completion loop in its caller's goroutine —
// the polling-loop shape of the paper's DPDK worker, with no goroutine or
// channel, so a scripted fabric can step it (worker_test.go). It sends the
// first Pool chunks as one vector, then the chunks each received vector
// frees (the final of chunk c offers chunk c+Pool) as one vector; its
// addSender owes each chunk until its final and turns a receive timeout into
// one retransmit vector or, after Retries in a row, the give-up. Pool bounds
// every vector; one larger than a datagram is the fabric's to split
// (transport.FrameCapacity). Consecutive Reduce calls on one Worker continue
// one chunk stream on one reused window; build a job's Workers once per
// incarnation — a new one starts at chunk 0. The decode step — notices
// filtered by job and epoch, RESULT and RESULT RUN bodies handed out per
// chunk — is readDownlink, which both senders step.
//
// # Buffer ownership
//
// A completed chunk writes only memory its shard or its caller owns, and
// allocates nothing. Under the shard lock the completing ADD's aggregator
// pass reads the sums into a packet built in the handler's delivery list
// (transport.DeliveryList.Alloc): the RESULT, or on a tree leaf the ADD to
// the parent. A flat switch then copies the RESULT into the slot's RESULT
// region and marks the slot final; a replay copies the region into the
// replaying call's list; a leaf's installFinals writes the parent's final
// into the region and copies it out into the receiver's list. All three
// touch the region under the shard lock, and what leaves the lock is the
// copy, so a delivery never aliases a slot: another goroutine rebinding the
// slot later rewrites the region, never a packet the fabric still holds.
// The run replies emitResults coalesces are built in the same list. The
// fabric borrows the list's packets until it resets the list: Memory copies
// each into a ring slot's buffer before SendBatch returns, the UDP serve
// loop writes a burst's deliveries before its next dispatch, and Push
// copies or writes before it returns, after which the leaf's receiver
// resets its list.
//
// A Worker encodes each chunk once, into window entry chunk mod 2·Pool, and
// a retransmit resends those bytes. Reduce is one goroutine, and the entry
// of chunk c is rewritten only for chunk c+2·Pool, offered at c+Pool's
// final, itself offered at c's: c is owed no more and no send of it is
// running (SendBatch lets the caller reuse its input once it returns). A
// leaf's uplink client has the same window, 2·Pool ADDs: HandleBatch copies
// each completion's ADD from its delivery list into entry chunk mod 2·Pool
// under the uplink mutex and offers the entry, then sends the list's own
// copy after releasing the mutex (the list lives until HandleBatch
// returns). The receiver takes a retransmit round out of the window under
// the same mutex, into its own buffer, and sends that: every access to a
// window entry is ordered by the mutex. Each step appends to a vector its
// caller owns and sends after releasing the mutex, so a vector one
// goroutine got stays its own while another steps the sender
// (TestSenderFramesSurviveReuse holds a stale reference across both;
// TestDeliveryOutlivesSlotReuse and TestLeafOwedAddSurvivesArenaReuse hold
// a delivery across the slot's and the arena's next use).
package aggservice
