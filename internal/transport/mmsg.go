package transport

// Kernel-batched datagram I/O. The UDP fabric coalesces packet vectors in
// user space (frames), but a frame-spanning vector still used to pay
// one syscall per datagram on every wire path. The batchWriter/batchReader
// seam below fixes that: on Linux the mmsg backend submits a whole
// datagram vector to the kernel with one sendmmsg/recvmmsg call, and every
// other platform (or -mmsg=off) degrades to the portable per-datagram
// loop. The seam is deliberately narrow — pre-assembled datagrams in, a
// datagram count out — so an io_uring backend can later slot in behind the
// same two interfaces without touching the framing or the Fabric contract.
//
// Every backend feeds the same syscallCounters, so SyscallStats (and the
// syscalls/op metric in BenchmarkUDPFabricThroughput) compares backends
// honestly: a counter tick is one entry into the kernel, whatever the
// batch width.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// MmsgMode selects the kernel-batched I/O backend for a UDP fabric.
type MmsgMode int

const (
	// MmsgAuto uses sendmmsg/recvmmsg where the platform supports it
	// (Linux) and the per-datagram loop elsewhere. The default.
	MmsgAuto MmsgMode = iota
	// MmsgOn requests the kernel-batched backend; on platforms without it
	// the fabric still degrades to the per-datagram loop.
	MmsgOn
	// MmsgOff forces the portable per-datagram loop.
	MmsgOff
)

// ParseMmsgMode parses the -mmsg flag values "auto", "on" and "off".
func ParseMmsgMode(s string) (MmsgMode, error) {
	switch s {
	case "auto", "":
		return MmsgAuto, nil
	case "on":
		return MmsgOn, nil
	case "off":
		return MmsgOff, nil
	}
	return MmsgAuto, fmt.Errorf("transport: mmsg mode %q (want auto, on or off)", s)
}

func (m MmsgMode) String() string {
	switch m {
	case MmsgOn:
		return "on"
	case MmsgOff:
		return "off"
	}
	return "auto"
}

// enabled reports whether the mode resolves to the kernel-batched backend
// on this platform.
func (m MmsgMode) enabled() bool {
	if m == MmsgOff {
		return false
	}
	return mmsgSupported
}

// backendName names the resolved backend for banners and summaries.
func backendName(useMmsg bool) string {
	if useMmsg {
		return "sendmmsg/recvmmsg"
	}
	return "per-datagram"
}

// SyscallStats is a snapshot of a UDP fabric's wire syscall counters: how
// many times it entered the kernel, and for how many datagrams. The
// headline derived metric is datagrams per syscall — the batching win the
// mmsg backend buys (the per-datagram fallback is pinned at 1).
type SyscallStats struct {
	// Sendmmsg and Recvmmsg count kernel-batched syscalls (one per entry
	// into the kernel, however many datagrams each moved).
	Sendmmsg, Recvmmsg uint64
	// SendFallback and RecvFallback count per-datagram syscalls on the
	// portable path (WriteToUDP / ReadFromUDP, one datagram each).
	SendFallback, RecvFallback uint64
	// SentDatagrams and RecvDatagrams count datagrams moved.
	SentDatagrams, RecvDatagrams uint64
	// SendErrors counts datagrams that failed to send — oversized packets
	// (> 65507 B) and transient socket errors that would otherwise vanish
	// without trace on the fire-and-forget downlink.
	SendErrors uint64
}

// Syscalls is the total number of wire syscalls, both backends.
func (s SyscallStats) Syscalls() uint64 {
	return s.Sendmmsg + s.Recvmmsg + s.SendFallback + s.RecvFallback
}

// DatagramsPerSyscall is the achieved kernel batching factor (0 when no
// syscall was made).
func (s SyscallStats) DatagramsPerSyscall() float64 {
	calls := s.Syscalls()
	if calls == 0 {
		return 0
	}
	return float64(s.SentDatagrams+s.RecvDatagrams) / float64(calls)
}

// syscallCounters is the fabric-owned mutable form of SyscallStats.
type syscallCounters struct {
	sendmmsg, recvmmsg         atomic.Uint64
	sendFallback, recvFallback atomic.Uint64
	sentDgrams, recvDgrams     atomic.Uint64
	sendErrors                 atomic.Uint64
}

func (c *syscallCounters) snapshot() SyscallStats {
	return SyscallStats{
		Sendmmsg:      c.sendmmsg.Load(),
		Recvmmsg:      c.recvmmsg.Load(),
		SendFallback:  c.sendFallback.Load(),
		RecvFallback:  c.recvFallback.Load(),
		SentDatagrams: c.sentDgrams.Load(),
		RecvDatagrams: c.recvDgrams.Load(),
		SendErrors:    c.sendErrors.Load(),
	}
}

// batchWriter writes pre-assembled wire datagrams to one destination in as
// few syscalls as the backend allows. Every datagram is attempted even
// after a failure (an oversized packet must not sink the rest of the
// vector); the failed count and the first error are returned. Not safe for
// concurrent use — each sending context owns its writer.
type batchWriter interface {
	writeDatagrams(dst *net.UDPAddr, dgrams [][]byte) (failed int, err error)
}

// batchReader fills bufs with whole datagrams: bufs[i] is resliced (within
// its capacity, which must be ≥ maxUDPPayload) to datagram i's length, and
// srcs[i] — when srcs is non-nil — receives its source address. One call
// is one blocking receive: it honors the conn's read deadline for the
// first datagram and returns however many the backend could take from the
// socket in one kernel entry (always exactly 1 for the fallback). Not safe
// for concurrent use.
type batchReader interface {
	readDatagrams(bufs [][]byte, srcs []*net.UDPAddr) (int, error)
}

// newBatchWriter builds the datagram writer for conn: the mmsg backend
// when requested and available, else the portable loop.
func newBatchWriter(conn *net.UDPConn, useMmsg bool, stats *syscallCounters) batchWriter {
	if useMmsg {
		if w := newMmsgWriter(conn, stats); w != nil {
			return w
		}
	}
	return &loopWriter{conn: conn, stats: stats}
}

// newBatchReader builds the datagram reader for conn, like newBatchWriter.
func newBatchReader(conn *net.UDPConn, useMmsg bool, stats *syscallCounters) batchReader {
	if useMmsg {
		if r := newMmsgReader(conn, stats); r != nil {
			return r
		}
	}
	return &loopReader{conn: conn, stats: stats}
}

// loopWriter is the portable per-datagram backend: one WriteToUDP per
// datagram.
type loopWriter struct {
	conn  *net.UDPConn
	stats *syscallCounters
}

func (w *loopWriter) writeDatagrams(dst *net.UDPAddr, dgrams [][]byte) (int, error) {
	failed := 0
	var firstErr error
	for _, d := range dgrams {
		w.stats.sendFallback.Add(1)
		if _, err := w.conn.WriteToUDP(d, dst); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		w.stats.sentDgrams.Add(1)
	}
	return failed, firstErr
}

// loopReader is the portable per-datagram backend: one ReadFromUDP per
// call, one datagram per syscall.
type loopReader struct {
	conn  *net.UDPConn
	stats *syscallCounters
}

func (r *loopReader) readDatagrams(bufs [][]byte, srcs []*net.UDPAddr) (int, error) {
	buf := bufs[0][:cap(bufs[0])]
	n, src, err := r.conn.ReadFromUDP(buf)
	if err != nil {
		return 0, err
	}
	r.stats.recvFallback.Add(1)
	r.stats.recvDgrams.Add(1)
	bufs[0] = buf[:n]
	if srcs != nil {
		srcs[0] = src
	}
	return 1, nil
}

// serveRecvBatch is K for the switch-side drain: up to this many datagrams
// per recvmmsg into the pooled read buffers.
const serveRecvBatch = 32

// workerRecvBatch bounds the per-RecvBatch pooled buffer vector on the
// worker side.
const workerRecvBatch = 16

// readBufPool recycles maxUDPPayload-sized datagram read buffers across
// serve readers, RecvBatch calls and fabric generations, so neither a
// reader-pool spin-up nor a steady-state receive allocates buffer memory.
var readBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, maxUDPPayload)
		return &b
	},
}

// getReadBufs appends k pooled read buffers onto dst[:0].
func getReadBufs(dst [][]byte, k int) [][]byte {
	dst = dst[:0]
	for i := 0; i < k; i++ {
		dst = append(dst, *readBufPool.Get().(*[]byte))
	}
	return dst
}

// putReadBufs returns pooled read buffers, dropping the slice's refs.
func putReadBufs(bufs [][]byte) {
	for i := range bufs {
		b := bufs[i][:cap(bufs[i])]
		readBufPool.Put(&b)
		bufs[i] = nil
	}
}
