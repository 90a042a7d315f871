package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
)

// Every datagram is one frame, [id(1) count(2) {len(2) pkt}·count] (see the
// package doc).
const (
	frameHdr      = 3     // id + count
	lenPrefix     = 2     // each packet's length
	maxUDPPayload = 65507 // the largest datagram payload UDP carries
	// observerID is an out-of-band observer's frame id: its packets reach
	// the handler as ObserverWorker, its address is never learned as a
	// worker's return path, and the handler's deliveries go back to it.
	observerID = 0xFF
)

// ObserverWorker is the worker index the handler sees for an observer frame.
const ObserverWorker = -1

// MaxWorkers is how many worker ports the frame id addresses (observerID is
// reserved).
const MaxWorkers = 255

// ErrTruncated is wrapped by the error of a datagram shorter than its frame
// header or than the packet lengths it claims.
var ErrTruncated = errors.New("transport: truncated frame")

// FrameCapacity is the fabric's datagram budget: how many packets of size
// bytes one frame carries (0 when even one does not fit). A vector that must
// cross as one datagram — a switch's run reply, a tuple batch — is sized by
// it.
func FrameCapacity(size int) int {
	return (maxUDPPayload - frameHdr) / (lenPrefix + size)
}

// UDPOption configures a UDP fabric half (NewUDP, DialUDP, NewUDPServer).
type UDPOption func(*udpOptions)

type udpOptions struct {
	mode MmsgMode
}

// WithMmsg selects the kernel-batched I/O backend: MmsgAuto (the default)
// uses sendmmsg/recvmmsg where the platform has it, MmsgOn requests it
// explicitly, MmsgOff forces the portable per-datagram loop (the
// fpisa-switch -mmsg flag maps straight onto this).
func WithMmsg(mode MmsgMode) UDPOption {
	return func(o *udpOptions) { o.mode = mode }
}

func applyOptions(opts []UDPOption) udpOptions {
	var o udpOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// appendFrame appends the frame carrying pkts to dst.
func appendFrame(dst []byte, id byte, pkts [][]byte) []byte {
	dst = binary.BigEndian.AppendUint16(append(dst, id), uint16(len(pkts)))
	for _, pkt := range pkts {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(pkt)))
		dst = append(dst, pkt...)
	}
	return dst
}

// decodeFrame parses one datagram, appending its packets (aliasing frame)
// onto into[:0]. A frame that ends inside its header or a packet wraps
// ErrTruncated; one with bytes after its last packet is malformed.
func decodeFrame(frame []byte, into [][]byte) (id byte, pkts [][]byte, err error) {
	if len(frame) < frameHdr {
		return 0, nil, fmt.Errorf("transport: %d-byte datagram: %w", len(frame), ErrTruncated)
	}
	id = frame[0]
	count := int(binary.BigEndian.Uint16(frame[1:]))
	pkts = into[:0]
	off := frameHdr
	for i := 0; i < count; i++ {
		if off+lenPrefix > len(frame) {
			return 0, nil, fmt.Errorf("transport: frame ends before packet %d of %d: %w", i, count, ErrTruncated)
		}
		l := int(binary.BigEndian.Uint16(frame[off:]))
		off += lenPrefix
		if off+l > len(frame) {
			return 0, nil, fmt.Errorf("transport: frame packet %d overruns the datagram: %w", i, ErrTruncated)
		}
		pkts = append(pkts, frame[off:off+l])
		off += l
	}
	if off != len(frame) {
		return 0, nil, fmt.Errorf("transport: %d trailing bytes after frame", len(frame)-off)
	}
	return id, pkts, nil
}

// sendScratch is a sending context's reusable datagram-assembly arena: the
// coalesced wire datagrams are materialized here so a whole vector can be
// handed to the batch writer at once (one sendmmsg), instead of one
// serially reused buffer per syscall.
type sendScratch struct {
	arena  []byte
	spans  []dgramSpan
	dgrams [][]byte
}

// dgramSpan is one assembled datagram's [off,end) range in the arena —
// offsets, not slices, because the arena may reallocate while growing.
type dgramSpan struct{ off, end int }

// gatherCoalesced assembles the frames carrying pkts into sc and returns the
// datagram vector (valid until the next call): one frame per greedy
// ≤ maxUDPPayload group. A packet too large for any frame still gets one of
// its own, so the send path fails it loudly instead of dropping it.
func gatherCoalesced(sc *sendScratch, id byte, pkts [][]byte) [][]byte {
	sc.arena = sc.arena[:0]
	sc.spans = sc.spans[:0]
	for len(pkts) > 0 {
		// Greedy split: the longest prefix that fits one datagram, and
		// never less than one packet.
		k, size := 1, frameHdr+lenPrefix+len(pkts[0])
		for k < len(pkts) && size+lenPrefix+len(pkts[k]) <= maxUDPPayload {
			size += lenPrefix + len(pkts[k])
			k++
		}
		start := len(sc.arena)
		sc.arena = appendFrame(sc.arena, id, pkts[:k])
		pkts = pkts[k:]
		sc.spans = append(sc.spans, dgramSpan{start, len(sc.arena)})
	}
	sc.dgrams = sc.dgrams[:0]
	for _, s := range sc.spans {
		sc.dgrams = append(sc.dgrams, sc.arena[s.off:s.end])
	}
	return sc.dgrams
}

// writeCoalesced frames pkts into datagrams and writes them to dst through
// the backend writer — one sendmmsg for the whole vector on the
// kernel-batched path, one syscall per datagram on the fallback. Every
// datagram is attempted; the failed count and first error are returned so
// fire-and-forget callers can account drops instead of losing them.
func writeCoalesced(w batchWriter, dst *net.UDPAddr, id byte, pkts [][]byte, sc *sendScratch) (failed int, err error) {
	dgrams := gatherCoalesced(sc, id, pkts)
	failed, err = w.writeDatagrams(dst, dgrams)
	clear(sc.dgrams)
	return failed, err
}

// UDPServer is the switch side of the UDP fabric as a handle — the shared
// serve loop of the in-process UDP fabric and the fpisa-switch daemon: Serve
// runs the reader pool over the socket, and Push writes switch-ORIGINATED
// deliveries to the learned worker return paths outside any handler
// invocation — the Pusher a tree leaf hands its uplink so a parent's
// RESULT can fan down to local workers the moment it arrives, instead of
// waiting for their next retransmit to replay it.
type UDPServer struct {
	conn    *net.UDPConn
	workers int
	useMmsg bool
	stats   *syscallCounters

	mu    sync.Mutex // guards addrs
	addrs []*net.UDPAddr

	// pushMu serializes Push calls so their downlink scratch has one owner;
	// the reader pool's own deliveries do not go through it.
	pushMu sync.Mutex
	push   downlink
}

// downlink is one sender's scratch for writing deliveries to the workers'
// return paths: Push owns one (under pushMu), each reader goroutine its own.
type downlink struct {
	w      batchWriter
	groups destGroups     // delivery packets grouped per destination worker
	dst    []*net.UDPAddr // destination snapshot, filled under the address lock
	sc     sendScratch    // datagram-assembly arena
}

func (s *UDPServer) newDownlink() downlink {
	dl := downlink{
		w:   newBatchWriter(s.conn, s.useMmsg, s.stats),
		dst: make([]*net.UDPAddr, s.workers),
	}
	dl.groups.init(s.workers)
	return dl
}

// flush routes a delivery vector to the worker return paths the serve loop
// learned: grouped per destination, coalesced into frames, written outside
// the address lock. Workers whose address is
// not yet learned are skipped. Failed datagrams are counted (SendErrors),
// not silently dropped; the first write error is also returned.
func (s *UDPServer) flush(dl *downlink, ds []Delivery) error {
	if len(ds) == 0 {
		return nil
	}
	for _, d := range ds {
		dl.groups.deliver(d)
	}
	s.mu.Lock()
	for _, w := range dl.groups.touched {
		dl.dst[w] = s.addrs[w]
	}
	s.mu.Unlock()
	var firstErr error
	for _, w := range dl.groups.touched {
		if dl.dst[w] == nil {
			continue
		}
		if err := dl.write(dl.dst[w], dl.groups.perDst[w], s.stats); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	dl.groups.reset()
	return firstErr
}

// write frames pkts to dst (the downlink id is 0), counting failed
// datagrams in stats.
func (dl *downlink) write(dst *net.UDPAddr, pkts [][]byte, stats *syscallCounters) error {
	failed, err := writeCoalesced(dl.w, dst, 0, pkts, &dl.sc)
	stats.sendErrors.Add(uint64(failed))
	return err
}

// NewUDPServer wraps a bound switch socket; it errors on a worker count the
// one-byte frame id cannot address. The caller owns conn; closing it
// terminates Serve.
func NewUDPServer(conn *net.UDPConn, workers int, opts ...UDPOption) (*UDPServer, error) {
	if err := checkWorkers(workers); err != nil {
		return nil, err
	}
	return newUDPServer(conn, workers, applyOptions(opts).mode.enabled(), &syscallCounters{}), nil
}

// newUDPServer builds a server counting its syscalls into stats (its own
// set, or the one an in-process fabric shares between its two halves).
func newUDPServer(conn *net.UDPConn, workers int, useMmsg bool, stats *syscallCounters) *UDPServer {
	s := &UDPServer{
		conn:    conn,
		workers: workers,
		useMmsg: useMmsg,
		stats:   stats,
		addrs:   make([]*net.UDPAddr, workers),
	}
	s.push = s.newDownlink()
	return s
}

// Backend names the datagram I/O backend this server resolved to.
func (s *UDPServer) Backend() string { return backendName(s.useMmsg) }

// SyscallStats snapshots the server's wire syscall counters (including
// the SendErrors drop counter for the fire-and-forget downlink).
func (s *UDPServer) SyscallStats() SyscallStats { return s.stats.snapshot() }

// Serve drains the socket with a pool of reader goroutines (one per CPU,
// capped at 8), each owning reusable pooled read buffers, a delivery list
// and a datagram-assembly arena — the serve loop allocates nothing per
// datagram in steady state. Every datagram is one frame (see frameHdr); the
// sender's address is learned as the frame id's worker return path, and
// handler deliveries are coalesced per destination into frames, broadcasts
// going to every learned address.
// On the kernel-batched backend each reader drains up to serveRecvBatch
// datagrams per recvmmsg (the per-datagram backend one per read), hands
// each worker's packets of that burst to the handler in ONE invocation, in
// arrival order, and writes each destination's replies with one sendmmsg.
// Frames carrying observerID are handled out-of-band (see observerID), as
// barriers: the packets gathered before one are handled first, and the
// replies go back to the sender through the same frame writer.
// Destination addresses are snapshotted under the lock but written outside
// it, so replies from different readers (and shards) proceed in parallel.
//
// Serve blocks until the socket is closed (returning nil); transient read
// errors are skipped.
func (s *UDPServer) Serve(handler BatchHandler) error {
	if handler == nil {
		return fmt.Errorf("transport: nil handler")
	}
	readers := runtime.GOMAXPROCS(0)
	if readers > 8 {
		readers = 8
	}
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveReader(s, handler)
		}()
	}
	wg.Wait()
	return nil
}

// Push implements Pusher: it routes switch-originated deliveries to the
// worker return paths learned by the serve loop, coalescing per
// destination exactly like handler deliveries (see flush). Workers that
// never sent a datagram are skipped — the result cache replays the packet
// when they do.
func (s *UDPServer) Push(ds []Delivery) error {
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	return s.flush(&s.push, ds)
}

// serveState is one reader goroutine's reusable scratch.
type serveState struct {
	bufs  [][]byte       // pooled datagram read buffers (cap maxUDPPayload)
	srcs  []*net.UDPAddr // per-datagram source addresses
	burst burst          // the drained burst's dispatch
	down  downlink       // the reader's own return-path writer
}

func serveReader(s *UDPServer, handler BatchHandler) {
	st := &serveState{
		srcs: make([]*net.UDPAddr, serveRecvBatch),
		down: s.newDownlink(),
	}
	var replies [][]byte // an observer frame's reply packets
	st.burst = newBurst(s.workers, handler, s.learn, func(src *net.UDPAddr, ds []Delivery) {
		for _, d := range ds {
			replies = append(replies, d.Packet)
		}
		_ = st.down.write(src, replies, s.stats) // counted; the observer resends
		clear(replies)
		replies = replies[:0]
	})
	st.bufs = getReadBufs(nil, serveRecvBatch)
	defer putReadBufs(st.bufs)
	reader := newBatchReader(s.conn, s.useMmsg, s.stats)
	for {
		m, err := reader.readDatagrams(st.bufs, st.srcs)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient read errors (ICMP-induced, ENOBUFS, stray
			// deadlines on a shared conn) must not spin the reader pool
			// at full speed; back off briefly and retry.
			time.Sleep(time.Millisecond)
			continue
		}
		st.burst.dispatch(st.bufs[:m], st.srcs[:m])
		// One delivery pass per drained burst: replies for every datagram
		// the recvmmsg took are grouped per destination and written with
		// one sendmmsg per destination (write errors are counted by flush).
		s.flush(&st.down, st.burst.dl.Deliveries())
	}
}

// learn records the return path of every worker about to run: addrs[w] is
// the source of w's latest datagram in the burst.
func (s *UDPServer) learn(ws []int, addrs []*net.UDPAddr) {
	s.mu.Lock()
	for _, w := range ws {
		s.addrs[w] = addrs[w]
	}
	s.mu.Unlock()
}

// burst is the serve loop's per-burst dispatch, apart from any socket: it
// hands each worker's packets of one drained burst to the handler as ONE
// vector, so the switch sees the burst a worker sent as one batch and can
// coalesce its completions into one run reply per job.
type burst struct {
	workers int
	handler BatchHandler
	// learn records the return paths of the workers ws whose groups are
	// about to run: addrs[w] is where w's latest datagram came from.
	learn func(ws []int, addrs []*net.UDPAddr)
	// reply writes an observer frame's deliveries back to its sender.
	reply func(src *net.UDPAddr, ds []Delivery)

	groups destGroups     // the burst's packets per sending worker, in arrival order
	addrs  []*net.UDPAddr // each grouped worker's latest source address
	split  [][]byte       // a frame's packet slices (aliasing a read buffer)
	dl     DeliveryList   // worker deliveries, accumulated across one burst
	odl    DeliveryList   // observer deliveries, reset per observer frame
}

func newBurst(workers int, handler BatchHandler, learn func([]int, []*net.UDPAddr), reply func(*net.UDPAddr, []Delivery)) burst {
	b := burst{workers: workers, handler: handler, learn: learn, reply: reply, addrs: make([]*net.UDPAddr, workers)}
	b.groups.init(workers)
	return b
}

// dispatch runs one drained burst, bufs[i] having come from srcs[i]: every
// worker's packets reach the handler as one vector in arrival order, the
// workers in the order of their first packet. An observer frame
// (observerID) is a barrier: the groups gathered before it run first, so a
// control frame keeps its place in the burst; its replies go to reply, and
// its sender never becomes a worker return path. Worker deliveries
// accumulate in b.dl, valid until the next dispatch. Datagrams that do not
// parse, name no known worker or carry no packet are dropped.
func (b *burst) dispatch(bufs [][]byte, srcs []*net.UDPAddr) {
	b.dl.Reset()
	for i, buf := range bufs {
		id, pkts, err := decodeFrame(buf, b.split)
		if err != nil {
			continue
		}
		b.split = pkts[:0]
		src := srcs[i]
		if src == nil || len(pkts) == 0 {
			continue
		}
		if id == observerID {
			b.run()
			b.odl.Reset()
			b.handler(ObserverWorker, pkts, &b.odl)
			b.reply(src, b.odl.Deliveries())
			continue
		}
		if int(id) >= b.workers {
			continue
		}
		for _, pkt := range pkts {
			b.groups.route(int(id), pkt)
		}
		b.addrs[id] = src
	}
	b.run()
}

// run hands every gathered group to the handler, one call per worker, and
// empties the groups.
func (b *burst) run() {
	if len(b.groups.touched) == 0 {
		return
	}
	b.learn(b.groups.touched, b.addrs)
	for _, w := range b.groups.touched {
		b.handler(w, b.groups.perDst[w], &b.dl)
	}
	b.groups.reset()
}

// UDP is a Fabric over real UDP sockets on loopback (or any network): one
// switch socket, one socket per worker. Worker identity is carried in the
// frame's id octet so the switch can map datagrams to logical ports, like
// the ingress-port metadata a real switch derives from the wire.
// SendBatch coalesces the packet vector into frames and RecvBatch drains
// the worker socket into the caller's reusable buffers,
// so a full protocol window crosses the wire in a handful of datagrams —
// and, on the kernel-batched backend (WithMmsg), in a handful of syscalls:
// one sendmmsg per destination per vector, one recvmmsg per drained burst.
//
// The switch socket is drained by a UDPServer's reader pool, so concurrent
// datagrams reach the handler in parallel — the handler must be
// concurrency-safe (see BatchHandler).
//
// A UDP fabric built by DialUDP has no switch side at all: it is the
// worker half dialed at a REMOTE switch socket (another process's
// fpisa-switch, or another switch in an aggregation tree), so swConn and
// srv are nil and Push reports that there is nothing to push through.
// DialObserver builds the same half with one port that sends observer
// frames.
type UDP struct {
	workers  int
	observer bool // port 0 frames with observerID (DialObserver)
	useMmsg  bool
	stats    *syscallCounters
	swAddr   *net.UDPAddr
	swConn   *net.UDPConn
	srv      *UDPServer
	conns    []*net.UDPConn
	send     []sendState
	recv     []recvState
	closedMu sync.Mutex
	closed   bool
}

// sendState is one worker's reusable uplink sending context.
type sendState struct {
	mu     sync.Mutex
	writer batchWriter
	sc     sendScratch
}

// recvState is one worker's reusable downlink receiving context plus the
// overflow queue for frames larger than the caller's buffer vector.
type recvState struct {
	mu      sync.Mutex
	reader  batchReader
	kbufs   [][]byte // pooled per-call datagram buffers (headers reused)
	split   [][]byte
	pending [][]byte // owned copies carried over to the next RecvBatch
}

// NewUDP starts a switch socket on 127.0.0.1 and one socket per worker.
func NewUDP(workers int, handler BatchHandler, opts ...UDPOption) (*UDP, error) {
	if handler == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	sw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	u, err := DialUDP(sw.LocalAddr().(*net.UDPAddr), workers, opts...)
	if err != nil {
		sw.Close()
		return nil, err
	}
	u.swConn = sw
	// One counter set for the whole in-process fabric: the serve side's
	// syscalls are part of this fabric's wire cost. (DialUDP validated
	// workers.)
	u.srv = newUDPServer(sw, workers, u.useMmsg, u.stats)
	go func() { _ = u.srv.Serve(handler) }()
	return u, nil
}

// DialUDP builds the worker half of a UDP fabric against a switch socket
// served elsewhere — another process's fpisa-switch daemon, or the parent
// switch of an aggregation tree (the leaf dials its parent exactly like a
// worker). One local socket is bound per worker port; SendBatch writes to
// addr and RecvBatch drains the local sockets. Push errors: a dialed
// fabric has no switch side to originate deliveries from.
func DialUDP(addr *net.UDPAddr, workers int, opts ...UDPOption) (*UDP, error) {
	if err := checkWorkers(workers); err != nil {
		return nil, err
	}
	if addr == nil {
		return nil, fmt.Errorf("transport: nil switch address")
	}
	o := applyOptions(opts)
	u := &UDP{
		workers: workers,
		useMmsg: o.mode.enabled(),
		stats:   &syscallCounters{},
		swAddr:  addr,
		conns:   make([]*net.UDPConn, workers),
		send:    make([]sendState, workers),
		recv:    make([]recvState, workers),
	}
	// Loopback sockets for a loopback switch; any other (an operator's
	// Observer, a leaf's parent on another host) needs every interface.
	local := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	if ip := addr.IP.To4(); ip == nil || !ip.IsLoopback() {
		local = nil
	}
	for i := range u.conns {
		c, err := net.ListenUDP("udp", local)
		if err != nil {
			u.Close()
			return nil, err
		}
		u.conns[i] = c
		u.send[i].writer = newBatchWriter(c, u.useMmsg, u.stats)
		u.recv[i].reader = newBatchReader(c, u.useMmsg, u.stats)
	}
	return u, nil
}

// DialObserver dials the switch socket at addr ("host:port") as an
// out-of-band observer: a one-port fabric whose port 0 sends observer frames,
// so the switch answers each request to this socket and never learns it as
// a worker's return path. It is the socket an Observer exchanges through.
func DialObserver(addr string, opts ...UDPOption) (*UDP, error) {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	u, err := DialUDP(a, 1, opts...)
	if err != nil {
		return nil, err
	}
	u.observer = true
	return u, nil
}

// checkWorkers refuses a worker count the one-byte frame id cannot address.
func checkWorkers(workers int) error {
	if workers < 1 || workers > MaxWorkers {
		return fmt.Errorf("transport: %d workers outside the 1..%d the one-byte frame id addresses (0x%02x is the observer's)",
			workers, MaxWorkers, observerID)
	}
	return nil
}

// SwitchAddr returns the switch socket's address (the dialed address for a
// DialUDP fabric).
func (u *UDP) SwitchAddr() *net.UDPAddr { return u.swAddr }

// Backend names the datagram I/O backend this fabric resolved to —
// "sendmmsg/recvmmsg" or "per-datagram".
func (u *UDP) Backend() string { return backendName(u.useMmsg) }

// SyscallStats snapshots the fabric's wire syscall counters. For a NewUDP
// fabric the switch side's serve loop shares the counter set, so the
// snapshot covers both halves of every round trip.
func (u *UDP) SyscallStats() SyscallStats { return u.stats.snapshot() }

// SetBuffers best-effort grows every socket's kernel send and receive
// buffers to n bytes — loopback burst tests (and the UDP throughput
// benchmark) drop fewer datagrams with deeper socket queues. Errors are
// ignored; the kernel clamps to its rmem/wmem limits anyway.
func (u *UDP) SetBuffers(n int) {
	set := func(c *net.UDPConn) {
		if c != nil {
			_ = c.SetReadBuffer(n)
			_ = c.SetWriteBuffer(n)
		}
	}
	set(u.swConn)
	for _, c := range u.conns {
		set(c)
	}
}

// Push implements Pusher on the switch side of the fabric, delegating to
// the serve loop's learned return paths; a DialUDP fabric has no switch
// side and errors.
func (u *UDP) Push(ds []Delivery) error {
	if u.srv == nil {
		return fmt.Errorf("transport: Push on a dialed (switchless) UDP fabric")
	}
	return u.srv.Push(ds)
}

// SendBatch implements Fabric, coalescing the vector into frames and
// submitting them with one sendmmsg on the kernel-batched backend. Failed
// datagrams are counted in SyscallStats.SendErrors as well as returned.
func (u *UDP) SendBatch(worker int, pkts [][]byte) error {
	if worker < 0 || worker >= u.workers {
		return fmt.Errorf("transport: worker %d out of range", worker)
	}
	if len(pkts) == 0 {
		return nil
	}
	st := &u.send[worker]
	st.mu.Lock()
	defer st.mu.Unlock()
	id := byte(worker)
	if u.observer {
		id = observerID
	}
	failed, err := writeCoalesced(st.writer, u.swAddr, id, pkts, &st.sc)
	u.stats.sendErrors.Add(uint64(failed))
	return err
}

// RecvBatch implements Fabric: it blocks up to timeout for the first
// datagram, then keeps draining the socket without blocking until the
// buffer vector is full or the socket is empty (one recvmmsg can take a
// whole burst on the kernel-batched backend). Frames are split into their
// packets, datagrams that are not frames dropped; packets beyond len(bufs)
// are carried over to the next call rather than dropped.
func (u *UDP) RecvBatch(worker int, bufs [][]byte, timeout time.Duration) (int, error) {
	if worker < 0 || worker >= u.workers {
		return 0, fmt.Errorf("transport: worker %d out of range", worker)
	}
	if len(bufs) == 0 {
		return 0, fmt.Errorf("transport: RecvBatch needs at least one buffer")
	}
	st := &u.recv[worker]
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for n < len(bufs) && len(st.pending) > 0 {
		bufs[n] = append(bufs[n][:0], st.pending[0]...)
		st.pending = st.pending[1:]
		n++
	}
	if n == len(bufs) {
		return n, nil
	}
	k := len(bufs) - n
	if k > workerRecvBatch {
		k = workerRecvBatch
	}
	st.kbufs = getReadBufs(st.kbufs, k)
	defer func() { putReadBufs(st.kbufs) }()
	c := u.conns[worker]
	// The blocking deadline is absolute, computed ONCE: a stream of
	// malformed or zero-length datagrams must consume the caller's
	// timeout, not restart it — otherwise garbage traffic could stall the
	// receiver (and its retransmit machinery) indefinitely.
	deadline := time.Now().Add(timeout)
	for n < len(bufs) {
		// The first packet blocks up to the deadline; once something
		// arrived, the already-expired deadline makes further reads fail
		// fast with a timeout, so the call returns what the socket had.
		dl := deadline
		if n > 0 {
			dl = time.Now()
		}
		if err := c.SetReadDeadline(dl); err != nil {
			return n, err
		}
		m, err := st.reader.readDatagrams(st.kbufs, nil)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if n == 0 {
					return 0, ErrTimeout
				}
				return n, nil
			}
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
		for _, dgram := range st.kbufs[:m] {
			_, pkts, err := decodeFrame(dgram, st.split)
			if err != nil {
				continue // not a frame: drop, like a corrupt datagram
			}
			st.split = pkts[:0]
			for _, pkt := range pkts {
				if n < len(bufs) {
					bufs[n] = append(bufs[n][:0], pkt...)
					n++
				} else {
					st.pending = append(st.pending, append([]byte(nil), pkt...))
				}
			}
		}
	}
	return n, nil
}

// Close implements Fabric. Closing the switch socket terminates the
// server's reader pool (a DialUDP fabric owns no switch socket and only
// closes its worker sockets).
func (u *UDP) Close() error {
	u.closedMu.Lock()
	defer u.closedMu.Unlock()
	if u.closed {
		return nil
	}
	u.closed = true
	if u.swConn != nil {
		u.swConn.Close()
	}
	for _, c := range u.conns {
		if c != nil {
			c.Close()
		}
	}
	return nil
}
