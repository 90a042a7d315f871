// Package transport provides the network substrates the aggregation
// protocols run over: an in-memory switch fabric with per-worker delivery
// rings and deterministic loss injection (for protocol tests and
// benchmarks), and a UDP fabric for running the same protocols across real
// sockets (examples and the fpisa-switch daemon).
//
// # Vectored I/O
//
// The fabric contract is batched: workers submit packet VECTORS
// (Fabric.SendBatch) and drain delivery vectors into reusable buffers
// (Fabric.RecvBatch), and the switch side consumes a whole vector per
// handler invocation (BatchHandler). This is the shape a line-rate data
// plane has — SwitchML-class aggregation amortizes per-packet cost over
// packet vectors per pipeline pass — and it is what lets the Go
// reproduction move gradients without a heap allocation and two copies per
// datagram:
//
//   - the Memory fabric enqueues delivery REFERENCES into per-worker ring
//     buffers (no per-target copy) and copies each packet exactly once, into
//     the receiver's reusable buffer, at RecvBatch time;
//   - the UDP fabric coalesces a send vector into frames and drains its
//     sockets with pooled read buffers; its serve loop hands each worker's
//     packets of one drained burst to the handler as ONE vector, whatever
//     datagrams they came in, so the switch answers a burst with one run
//     reply per job;
//   - receive timeouts use a reusable time.Timer per ring instead of a
//     time.After allocation per call.
//
// Every UDP datagram, in both directions, is one frame: [id(1) count(2)
// {len(2) pkt}·count], big-endian, id being the sending worker, 0xFF for an
// observer (DialObserver), and 0 on the downlink. Only this package knows
// the layout; callers size what must cross as one datagram by FrameCapacity.
//
// Below the framing, the UDP fabric batches at the KERNEL boundary too:
// on Linux amd64/arm64 the batchWriter/batchReader seam submits whole
// datagram vectors per syscall via sendmmsg/recvmmsg (see mmsg.go;
// WithMmsg selects the backend, SyscallStats counts every kernel entry),
// degrading to a portable per-datagram loop elsewhere. The Fabric
// contract and the ownership rules below are identical on both backends.
//
// # Ownership rules
//
// Batching only stays zero-copy under explicit buffer ownership:
//
//   - SendBatch: the caller keeps ownership of pkts and may reuse them as
//     soon as the call returns. The handler runs synchronously within
//     SendBatch/the serve loop and MUST NOT retain the input slices past
//     its return.
//   - BatchHandler deliveries: ownership of every Delivery.Packet passes to
//     the fabric, which may hold it until delivery (the Memory ring stores
//     the reference, a result cache may replay it later). Handlers must
//     treat a delivered packet as immutable and must not alias the input
//     pkts into a delivery — copy into a fresh buffer instead.
//   - RecvBatch: packets are copied into the caller's bufs (growing them as
//     needed, so nil buffers work); the caller owns them outright.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrTimeout is returned by RecvBatch when no packet arrives in time.
var ErrTimeout = errors.New("transport: receive timeout")

// ErrClosed is returned by SendBatch after Close, and by the Memory
// fabric's RecvBatch once it is closed and the worker's ring is empty.
var ErrClosed = errors.New("transport: fabric closed")

// Delivery routes one switch output packet.
type Delivery struct {
	// Worker is the destination worker index; Broadcast overrides it.
	Worker    int
	Broadcast bool
	Packet    []byte
}

// DeliveryList accumulates a handler invocation's output deliveries. The
// fabric owns the list and recycles it across handler calls, so the
// backing array is reused instead of reallocated per packet; handlers only
// append (Unicast/Broadcast).
type DeliveryList struct {
	ds []Delivery
}

// Unicast appends a delivery addressed to one worker.
func (l *DeliveryList) Unicast(worker int, pkt []byte) {
	l.ds = append(l.ds, Delivery{Worker: worker, Packet: pkt})
}

// Broadcast appends a delivery addressed to every worker.
func (l *DeliveryList) Broadcast(pkt []byte) {
	l.ds = append(l.ds, Delivery{Broadcast: true, Packet: pkt})
}

// Len reports the number of accumulated deliveries.
func (l *DeliveryList) Len() int { return len(l.ds) }

// Deliveries exposes the accumulated deliveries; the slice is valid until
// the next Reset.
func (l *DeliveryList) Deliveries() []Delivery { return l.ds }

// Reset empties the list, keeping capacity but dropping packet references
// so recycled lists do not pin delivered buffers.
func (l *DeliveryList) Reset() {
	for i := range l.ds {
		l.ds[i].Packet = nil
	}
	l.ds = l.ds[:0]
}

// BatchHandler is the switch's packet function: it consumes one worker's
// packet vector and appends any deliveries to out. Fabrics may invoke the
// handler from several goroutines at once — a multi-pipe switch processes
// packet vectors on every pipeline in parallel — so handlers must do their
// own locking (the sharded aggservice switch takes one lock round per shard
// per batch). See the package comment for the buffer-ownership rules.
type BatchHandler func(worker int, pkts [][]byte, out *DeliveryList)

// Fabric connects workers to one switch through vectored I/O.
type Fabric interface {
	// SendBatch submits a vector of packets from one worker to the switch.
	// The caller may reuse pkts (and their backing arrays) once it returns.
	SendBatch(worker int, pkts [][]byte) error
	// RecvBatch blocks up to timeout for the worker's next delivery, then
	// drains — without further blocking — up to len(bufs) packets, copying
	// packet i into bufs[i] (reusing its capacity, growing it as needed; a
	// nil buffer is allocated). It returns the packet count, which is ≥ 1
	// unless err is non-nil.
	RecvBatch(worker int, bufs [][]byte, timeout time.Duration) (int, error)
	// Close releases resources and ends receiving: a RecvBatch with nothing
	// left to deliver, one already blocked included, returns an error other
	// than ErrTimeout instead of sitting out its timeout.
	Close() error
}

// Pusher is implemented by fabric switch sides that can deliver
// switch-ORIGINATED packets outside a handler invocation: Memory routes
// into the worker rings, UDPServer writes to the learned return paths. An
// aggregation-tree leaf needs this seam — a parent's RESULT arrives on the
// leaf's uplink, not inside any downlink handler call, and still has to
// fan down to the leaf's own workers.
type Pusher interface {
	// Push routes deliveries exactly like handler output (per-destination
	// coalescing, broadcast fan-out). Ownership of every Delivery.Packet
	// passes to the fabric, as with handler deliveries; the ds slice itself
	// does not — Push routes it before returning and keeps no reference,
	// so the caller may reuse it (a DeliveryList it Resets) at once.
	Push(ds []Delivery) error
}

// ring is one worker's delivery queue: a fixed-capacity FIFO of packet
// references. Pushes drop on overflow, as a NIC ring would; pops copy into
// the receiver's buffers. The receive timeout reuses one timer per ring
// instead of allocating a time.After channel per call.
type ring struct {
	mu     sync.Mutex
	buf    [][]byte
	head   int
	n      int
	closed bool          // the fabric closed: an empty ring fails pops instead of blocking
	notify chan struct{} // capacity 1: wakes a blocked pop

	// popMu serializes poppers so the reusable timer has one owner; a
	// worker's deliveries are consumed by one receiver at a time.
	popMu sync.Mutex
	timer *time.Timer
}

func newRing(depth int) *ring {
	return &ring{buf: make([][]byte, depth), notify: make(chan struct{}, 1)}
}

// pushN enqueues packet references, returning how many fit before the ring
// overflowed.
func (r *ring) pushN(pkts [][]byte) int {
	r.mu.Lock()
	accepted := 0
	for _, pkt := range pkts {
		if r.n == len(r.buf) {
			break
		}
		r.buf[(r.head+r.n)%len(r.buf)] = pkt
		r.n++
		accepted++
	}
	r.mu.Unlock()
	if accepted > 0 {
		select {
		case r.notify <- struct{}{}:
		default:
		}
	}
	return accepted
}

// close ends blocking on this ring: what is queued stays poppable, and a pop
// that finds (or is waiting on) an empty ring returns ErrClosed.
func (r *ring) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// pop copies up to len(bufs) packets into bufs, blocking up to timeout for
// the first; on a closed fabric an empty ring returns ErrClosed at once.
func (r *ring) pop(bufs [][]byte, timeout time.Duration) (int, error) {
	if len(bufs) == 0 {
		return 0, fmt.Errorf("transport: RecvBatch needs at least one buffer")
	}
	r.popMu.Lock()
	defer r.popMu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		if r.n > 0 {
			k := min(len(bufs), r.n)
			for i := 0; i < k; i++ {
				pkt := r.buf[r.head]
				r.buf[r.head] = nil
				r.head = (r.head + 1) % len(r.buf)
				r.n--
				bufs[i] = append(bufs[i][:0], pkt...)
			}
			r.mu.Unlock()
			return k, nil
		}
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return 0, ErrClosed
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return 0, ErrTimeout
		}
		if r.timer == nil {
			r.timer = time.NewTimer(remaining)
		} else {
			// go 1.23 timers: Reset leaves no stale tick in the channel.
			r.timer.Reset(remaining)
		}
		select {
		case <-r.notify:
		case <-r.timer.C:
			// Re-check the ring before giving up: a push may have raced
			// the timer (the loop's size check decides, not the race).
		}
	}
}

// Memory is an in-memory fabric with independent loss probabilities on the
// uplink (worker→switch) and downlink (switch→worker), driven by a seeded
// RNG for reproducible loss patterns. The handler runs *outside* the
// fabric lock, so workers sending concurrently drive the switch
// concurrently — the fabric only serializes the RNG and its counters.
// Deliveries land in per-worker rings by reference; the only copy happens
// into the receiver's reusable buffers at RecvBatch time.
type Memory struct {
	workers int
	handler BatchHandler
	uplinkP float64
	downP   float64
	// closeMu is read-held for a SendBatch's whole duration (handler
	// included) and write-held by Close, which therefore still acts as a
	// barrier: once Close returns, no handler is running and no further
	// deliveries land.
	closeMu sync.RWMutex
	mu      sync.Mutex // guards the RNG, counters and closed flag
	rng     *rand.Rand // nil on a lossless fabric: only a loss draw reads it
	rings   []*ring
	closed  bool

	routePool sync.Pool // *routeState: per-SendBatch routing scratch

	// Stats
	sent, lostUp, lostDown, delivered uint64
}

// destGroups groups packets per worker, tracking first use — the routing
// scaffolding shared by Memory.SendBatch and the UDP serve loop, so the
// delivery routing rule and the reference-dropping reset each exist exactly
// once. The serve loop also groups a drained burst's packets per SENDING
// worker with it (see burst).
type destGroups struct {
	perDst  [][][]byte
	touched []int
}

func (g *destGroups) init(workers int) {
	g.perDst = make([][][]byte, workers)
}

// route appends pkt to worker w's pending group.
func (g *destGroups) route(w int, pkt []byte) {
	if len(g.perDst[w]) == 0 {
		g.touched = append(g.touched, w)
	}
	g.perDst[w] = append(g.perDst[w], pkt)
}

// deliver routes one delivery: a Broadcast joins every worker's group, a
// unicast its destination's; a destination outside the fabric is dropped.
func (g *destGroups) deliver(d Delivery) {
	if d.Broadcast {
		for w := range g.perDst {
			g.route(w, d.Packet)
		}
		return
	}
	if d.Worker >= 0 && d.Worker < len(g.perDst) {
		g.route(d.Worker, d.Packet)
	}
}

// reset empties every touched group, dropping packet references so the
// recycled scaffolding does not pin delivered buffers.
func (g *destGroups) reset() {
	for _, w := range g.touched {
		group := g.perDst[w]
		for i := range group {
			group[i] = nil
		}
		g.perDst[w] = group[:0]
	}
	g.touched = g.touched[:0]
}

// routeState is a SendBatch invocation's reusable scratch: the delivery
// list handed to the handler, per-destination packet groups, and the
// per-delivery loss decisions.
type routeState struct {
	dl     DeliveryList
	groups destGroups
	drops  []bool
	alive  [][]byte
}

// MemoryConfig configures the in-memory fabric.
type MemoryConfig struct {
	Workers int
	// BatchHandler is the switch's vectored packet function.
	BatchHandler BatchHandler
	UplinkLoss   float64
	DownlinkLoss float64
	// Seed seeds the loss RNG; a lossless fabric builds none.
	Seed int64
	// QueueDepth bounds each worker's delivery ring (0 means 1024; a
	// negative depth is refused); overflowing deliveries are dropped, as a
	// NIC ring would.
	QueueDepth int
}

// NewMemory builds the fabric.
func NewMemory(cfg MemoryConfig) (*Memory, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("transport: workers %d", cfg.Workers)
	}
	if cfg.BatchHandler == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	if cfg.UplinkLoss < 0 || cfg.UplinkLoss >= 1 || cfg.DownlinkLoss < 0 || cfg.DownlinkLoss >= 1 {
		return nil, fmt.Errorf("transport: loss probabilities must be in [0,1)")
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("transport: queue depth %d", cfg.QueueDepth)
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 1024
	}
	m := &Memory{
		workers: cfg.Workers,
		handler: cfg.BatchHandler,
		uplinkP: cfg.UplinkLoss,
		downP:   cfg.DownlinkLoss,
		rings:   make([]*ring, cfg.Workers),
	}
	if m.uplinkP > 0 || m.downP > 0 {
		m.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	for i := range m.rings {
		m.rings[i] = newRing(depth)
	}
	m.routePool.New = func() any {
		rs := &routeState{}
		rs.groups.init(cfg.Workers)
		return rs
	}
	return m, nil
}

// SendBatch implements Fabric. The handler runs synchronously in the
// caller's goroutine but outside the fabric lock: concurrent senders
// exercise the switch's own concurrency (per-shard locks), like parallel
// pipelines. The whole vector costs one loss-RNG lock round, one handler
// invocation and one ring lock per destination — not one of each per
// packet.
func (m *Memory) SendBatch(worker int, pkts [][]byte) error {
	if worker < 0 || worker >= m.workers {
		return fmt.Errorf("transport: worker %d out of range %d", worker, m.workers)
	}
	if len(pkts) == 0 {
		return nil
	}
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()

	rs := m.routePool.Get().(*routeState)
	defer m.putRoute(rs)

	// Uplink loss: one lock round decides the whole vector.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.sent += uint64(len(pkts))
	alive := pkts
	if m.uplinkP > 0 {
		rs.alive = rs.alive[:0]
		for _, pkt := range pkts {
			if m.rng.Float64() < m.uplinkP {
				m.lostUp++
				continue
			}
			rs.alive = append(rs.alive, pkt)
		}
		alive = rs.alive
	}
	m.mu.Unlock()
	if len(alive) == 0 {
		return nil // silently lost, like the wire
	}

	m.handler(worker, alive, &rs.dl)
	m.routeDown(rs, rs.dl.Deliveries())
	return nil
}

// routeDown runs the downlink half of a delivery vector: one loss-RNG lock
// round for the whole vector, per-destination grouping, and one ring lock
// per destination. Packets are enqueued by reference — the receiver copies
// into its own buffers at RecvBatch time.
func (m *Memory) routeDown(rs *routeState, ds []Delivery) {
	if len(ds) == 0 {
		return
	}
	rs.drops = rs.drops[:0]
	if m.downP > 0 {
		m.mu.Lock()
		for range ds {
			rs.drops = append(rs.drops, m.rng.Float64() < m.downP)
		}
		m.mu.Unlock()
	}
	var lostDown uint64
	for i, d := range ds {
		if len(rs.drops) > 0 && rs.drops[i] {
			lostDown++
			continue
		}
		rs.groups.deliver(d)
	}
	var delivered uint64
	for _, w := range rs.groups.touched {
		group := rs.groups.perDst[w]
		accepted := m.rings[w].pushN(group)
		delivered += uint64(accepted)
		lostDown += uint64(len(group) - accepted) // ring overflow = drop
	}
	m.mu.Lock()
	m.delivered += delivered
	m.lostDown += lostDown
	m.mu.Unlock()
}

// Push implements Pusher: switch-originated deliveries enter the worker
// rings through the same downlink path handler output takes, including the
// seeded downlink loss — a pushed packet is as droppable as a replied one,
// which is what the tree retransmit tests lean on.
func (m *Memory) Push(ds []Delivery) error {
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	rs := m.routePool.Get().(*routeState)
	defer m.putRoute(rs)
	m.routeDown(rs, ds)
	return nil
}

// putRoute resets a routeState (dropping packet references) and returns it
// to the pool.
func (m *Memory) putRoute(rs *routeState) {
	rs.groups.reset()
	for i := range rs.alive {
		rs.alive[i] = nil
	}
	rs.alive = rs.alive[:0]
	rs.drops = rs.drops[:0]
	rs.dl.Reset()
	m.routePool.Put(rs)
}

// RecvBatch implements Fabric.
func (m *Memory) RecvBatch(worker int, bufs [][]byte, timeout time.Duration) (int, error) {
	if worker < 0 || worker >= m.workers {
		return 0, fmt.Errorf("transport: worker %d out of range %d", worker, m.workers)
	}
	return m.rings[worker].pop(bufs, timeout)
}

// Close implements Fabric. It waits for in-flight SendBatches (and their
// handler invocations) to drain; do not call Close from inside a handler.
// Deliveries already ringed remain receivable; once a ring is empty,
// RecvBatch returns ErrClosed — at once, and also to a receiver already
// blocked in it, as closing the sockets does on the UDP fabric — so no
// receiver goroutine outlives the fabric by its timeout.
func (m *Memory) Close() error {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	for _, r := range m.rings {
		r.close()
	}
	return nil
}

// Stats returns fabric counters: packets sent by workers, losses in each
// direction and deliveries enqueued.
func (m *Memory) Stats() (sent, lostUp, lostDown, delivered uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sent, m.lostUp, m.lostDown, m.delivered
}
