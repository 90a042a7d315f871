//go:build linux && (amd64 || arm64)

package transport

// The Linux kernel-batched backend: sendmmsg(2)/recvmmsg(2) over the raw
// file descriptors of the fabric's *net.UDPConn sockets, with no
// golang.org/x/sys dependency — the mmsghdr layout is declared here
// against the stdlib syscall types (64-bit layouts only, hence the build
// tag; 32-bit targets take the portable fallback).
//
// Blocking composes with the Go runtime instead of fighting it: every
// syscall runs inside syscall.RawConn.Read/Write, so an EAGAIN parks the
// goroutine on the netpoller (honoring read deadlines and Close) and the
// fd stays valid for the syscall's duration. The sockets are already
// non-blocking, so one MSG_DONTWAIT recvmmsg takes exactly what the
// socket has buffered — block for the first datagram, then harvest the
// burst in the same kernel entry.

import (
	"net"
	"syscall"
	"unsafe"
)

const mmsgSupported = true

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux: a msghdr
// plus the per-message datagram length the kernel writes back. The
// trailing pad keeps the array stride at 64 bytes, matching the kernel.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// sendmmsgOnce performs one sendmmsg syscall: it returns how many leading
// messages the kernel accepted, or an errno when it accepted none.
func sendmmsgOnce(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&msgs[0])), uintptr(len(msgs)), syscall.MSG_DONTWAIT, 0, 0)
	return int(n), errno
}

// recvmmsgOnce performs one recvmmsg syscall, filling per-message lengths
// and source addresses.
func recvmmsgOnce(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&msgs[0])), uintptr(len(msgs)), syscall.MSG_DONTWAIT, 0, 0)
	return int(n), errno
}

// sockaddrInto encodes a's destination into rsa, returning the kernel
// socklen (0 when the address family is unsupported).
func sockaddrInto(rsa *syscall.RawSockaddrInet6, a *net.UDPAddr) uint32 {
	if ip4 := a.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		sa.Port = htons(a.Port)
		copy(sa.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4
	}
	if ip16 := a.IP.To16(); ip16 != nil {
		*rsa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
		rsa.Port = htons(a.Port)
		copy(rsa.Addr[:], ip16)
		return syscall.SizeofSockaddrInet6
	}
	return 0
}

// htons stores a port in network byte order within the kernel's
// native-endian uint16 field.
func htons(p int) uint16 {
	return uint16(p>>8) | uint16(p)<<8
}

// mmsgWriter sends a datagram vector to one destination with sendmmsg.
type mmsgWriter struct {
	rc    syscall.RawConn
	stats *syscallCounters
	loop  loopWriter // ENOSYS escape hatch on exotic kernels

	broken bool // sendmmsg unavailable at runtime: stay on loop
	rsa    syscall.RawSockaddrInet6
	msgs   []mmsghdr
	iovs   []syscall.Iovec

	// One syscall's operands and results: send, bound once at construction,
	// reads and writes them, so a call builds no closure.
	off, n int
	errno  syscall.Errno
	send   func(fd uintptr) bool
}

// newMmsgWriter builds the kernel-batched writer, or nil when the raw
// descriptor is unreachable (the caller then falls back).
func newMmsgWriter(conn *net.UDPConn, stats *syscallCounters) batchWriter {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	w := &mmsgWriter{rc: rc, stats: stats, loop: loopWriter{conn: conn, stats: stats}}
	w.send = w.sendOnce
	return w
}

// sendOnce is the RawConn.Write callback: one sendmmsg of msgs[off:].
func (w *mmsgWriter) sendOnce(fd uintptr) bool {
	w.stats.sendmmsg.Add(1)
	w.n, w.errno = sendmmsgOnce(fd, w.msgs[w.off:])
	return w.errno != syscall.EAGAIN && w.errno != syscall.EINTR
}

func (w *mmsgWriter) writeDatagrams(dst *net.UDPAddr, dgrams [][]byte) (int, error) {
	if len(dgrams) == 0 {
		return 0, nil
	}
	salen := sockaddrInto(&w.rsa, dst)
	if w.broken || salen == 0 {
		return w.loop.writeDatagrams(dst, dgrams)
	}
	if cap(w.msgs) < len(dgrams) {
		w.msgs = make([]mmsghdr, len(dgrams))
		w.iovs = make([]syscall.Iovec, len(dgrams))
	}
	w.msgs = w.msgs[:len(dgrams)]
	w.iovs = w.iovs[:len(dgrams)]
	name := (*byte)(unsafe.Pointer(&w.rsa))
	for i, d := range dgrams {
		if len(d) > 0 {
			w.iovs[i].Base = &d[0]
		} else {
			w.iovs[i].Base = name // never read: Len 0
		}
		w.iovs[i].Len = uint64(len(d))
		w.msgs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name: name, Namelen: salen,
			Iov: &w.iovs[i], Iovlen: 1,
		}}
	}
	failed := 0
	var firstErr error
	w.off = 0
	for w.off < len(w.msgs) {
		err := w.rc.Write(w.send)
		n, errno := w.n, w.errno
		if err != nil {
			// The conn itself failed (closed, deadline): nothing more goes
			// out this call.
			failed += len(w.msgs) - w.off
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		if errno != 0 {
			if errno == syscall.ENOSYS {
				// Kernel without sendmmsg: latch the portable loop for the
				// rest of this writer's life.
				w.broken = true
				f, lerr := w.loop.writeDatagrams(dst, dgrams[w.off:])
				if firstErr == nil {
					firstErr = lerr
				}
				return failed + f, firstErr
			}
			// The head message failed (e.g. EMSGSIZE on an oversized
			// packet): skip it and keep the rest of the vector moving.
			failed++
			if firstErr == nil {
				firstErr = errno
			}
			w.off++
			continue
		}
		w.stats.sentDgrams.Add(uint64(n))
		w.off += n
	}
	// Drop buffer refs so the scratch does not pin caller arenas.
	for i := range w.iovs {
		w.iovs[i].Base = nil
	}
	return failed, firstErr
}

// mmsgReader drains a socket with recvmmsg, decoding source addresses
// through a small cache so steady-state receives allocate nothing.
type mmsgReader struct {
	rc    syscall.RawConn
	stats *syscallCounters

	msgs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
	addrs map[[19]byte]*net.UDPAddr

	// One syscall's operands and results, as mmsgWriter's.
	k, n  int
	errno syscall.Errno
	recv  func(fd uintptr) bool
}

// newMmsgReader builds the kernel-batched reader, or nil when the raw
// descriptor is unreachable.
func newMmsgReader(conn *net.UDPConn, stats *syscallCounters) batchReader {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	r := &mmsgReader{
		rc: rc, stats: stats,
		msgs:  make([]mmsghdr, serveRecvBatch),
		iovs:  make([]syscall.Iovec, serveRecvBatch),
		names: make([]syscall.RawSockaddrInet6, serveRecvBatch),
		addrs: make(map[[19]byte]*net.UDPAddr),
	}
	r.recv = r.recvOnce
	return r
}

// recvOnce is the RawConn.Read callback: one recvmmsg into msgs[:k].
func (r *mmsgReader) recvOnce(fd uintptr) bool {
	r.stats.recvmmsg.Add(1)
	r.n, r.errno = recvmmsgOnce(fd, r.msgs[:r.k])
	return r.errno != syscall.EAGAIN && r.errno != syscall.EINTR
}

func (r *mmsgReader) readDatagrams(bufs [][]byte, srcs []*net.UDPAddr) (int, error) {
	k := len(bufs)
	if k > len(r.msgs) {
		k = len(r.msgs)
	}
	for i := 0; i < k; i++ {
		b := bufs[i][:cap(bufs[i])]
		r.iovs[i].Base = &b[0]
		r.iovs[i].Len = uint64(len(b))
		r.msgs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&r.names[i])),
			Namelen: syscall.SizeofSockaddrInet6,
			Iov:     &r.iovs[i], Iovlen: 1,
		}}
	}
	r.k = k
	err := r.rc.Read(r.recv)
	n, errno := r.n, r.errno
	if err != nil {
		return 0, err
	}
	if errno != 0 {
		return 0, errno
	}
	r.stats.recvDgrams.Add(uint64(n))
	for i := 0; i < n; i++ {
		bufs[i] = bufs[i][:cap(bufs[i])][:r.msgs[i].len]
		if srcs != nil {
			srcs[i] = r.sourceAddr(i)
		}
	}
	return n, nil
}

// sourceAddr decodes message i's source sockaddr, reusing a cached
// *net.UDPAddr for repeat senders (a worker re-sending every batch).
func (r *mmsgReader) sourceAddr(i int) *net.UDPAddr {
	rsa := &r.names[i]
	var key [19]byte
	var ip []byte
	var port int
	switch rsa.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		key[0] = 4
		copy(key[1:5], sa.Addr[:])
		port = int(htons(int(sa.Port)))
		ip = sa.Addr[:]
	case syscall.AF_INET6:
		key[0] = 6
		copy(key[1:17], rsa.Addr[:])
		port = int(htons(int(rsa.Port)))
		ip = rsa.Addr[:]
	default:
		return nil
	}
	key[17] = byte(port >> 8)
	key[18] = byte(port)
	if a, ok := r.addrs[key]; ok {
		return a
	}
	if len(r.addrs) >= 1024 {
		// Unbounded peers (an observer per probe) must not grow the cache
		// forever; drop and relearn.
		r.addrs = make(map[[19]byte]*net.UDPAddr)
	}
	a := &net.UDPAddr{IP: append(net.IP(nil), ip...), Port: port}
	r.addrs[key] = a
	return a
}
