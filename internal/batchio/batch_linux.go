//go:build linux && (amd64 || arm64)

package batchio

import (
	"net"
	"syscall"
	"unsafe"
)

// batchSupported gates the recvmmsg/sendmmsg fast path. The syscall
// numbers and 64-bit Msghdr layout below are validated for amd64 and
// arm64; other architectures use the portable fallback.
const batchSupported = true

// Segment trains (DESIGN.md "Datapath performance"): one sendmmsg header
// carries several equal-sized datagrams to one peer (UDP_SEGMENT), one
// recvmmsg slot returns several (UDP_GRO).
const (
	udpSegment = 103 // UDP_SEGMENT: control message holding a train's segment size
	udpGRO     = 104 // UDP_GRO: socket option, and the control message of a coalesced read

	maxTrainSegs  = 64    // the kernel's UDP_MAX_SEGMENTS
	maxTrainBytes = 65507 // the largest UDP payload

	// groSlotSize is the smallest reader slot that holds whatever the kernel
	// coalesces; readers with smaller slots leave UDP_GRO off.
	groSlotSize = 65535
)

// sizeCmsg is a control message whose payload is one segment size: the
// writer fills it (UDP_SEGMENT, a uint16: the low half of size on these
// little-endian targets), the kernel fills it for a GRO reader (UDP_GRO, int).
type sizeCmsg struct {
	hdr  syscall.Cmsghdr
	size int32
	_    [4]byte
}

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// per-message transferred-byte count filled in by the kernel.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgReaderState preallocates the recvmmsg header/iovec/sockaddr arrays
// (one slot per message) plus the poller callback and its result slots,
// so the steady-state read performs zero heap allocations.
type mmsgReaderState struct {
	hs    []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
	// ctl holds one UDP_GRO control buffer per slot (nil with GRO off); out
	// is what readMmsg returns, grown on demand to the longest batch seen.
	ctl   []sizeCmsg
	out   []Message
	fn    func(fd uintptr) bool
	n     int
	errno syscall.Errno
}

func (r *Reader) initMmsg() {
	n := len(r.ms)
	r.mm.hs = make([]mmsghdr, n)
	r.mm.iovs = make([]syscall.Iovec, n)
	r.mm.names = make([]syscall.RawSockaddrInet6, n)
	for i := range r.mm.hs {
		r.mm.iovs[i].Base = &r.ms[i].Buf[0]
		r.mm.iovs[i].SetLen(len(r.ms[i].Buf))
		r.mm.hs[i].hdr.Iov = &r.mm.iovs[i]
		r.mm.hs[i].hdr.Iovlen = 1
		r.mm.hs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.mm.names[i]))
	}
	r.mm.out = make([]Message, 0, n)
	if r.c.batched && len(r.ms[0].Buf) >= groSlotSize && r.c.setUDPOption(udpGRO, 1) == nil {
		r.mm.ctl = make([]sizeCmsg, n)
		for i := range r.mm.hs {
			r.mm.hs[i].hdr.Control = (*byte)(unsafe.Pointer(&r.mm.ctl[i]))
		}
	}
	r.mm.fn = pollFn(func(fd uintptr) (int, syscall.Errno) { return mmsgCall(sysRECVMMSG, fd, r.mm.hs) },
		&r.mm.n, &r.mm.errno)
}

// mmsgCall is recvmmsg or sendmmsg over hs, non-blocking.
func mmsgCall(trap, fd uintptr, hs []mmsghdr) (int, syscall.Errno) {
	n, _, e := syscall.Syscall6(trap, fd, uintptr(unsafe.Pointer(&hs[0])), uintptr(len(hs)), 0, 0, 0)
	return int(n), e
}

// pollFn adapts call to syscall.RawConn's Read and Write: it retries on
// EINTR, has the poller wait for readiness on EAGAIN, and otherwise leaves
// the outcome in *n and *errno.
func pollFn(call func(fd uintptr) (int, syscall.Errno), n *int, errno *syscall.Errno) func(uintptr) bool {
	return func(fd uintptr) bool {
		for {
			rn, e := call(fd)
			switch e {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false
			}
			*n, *errno = rn, e
			return true
		}
	}
}

// setUDPOption sets an IPPROTO_UDP socket option on the wrapped socket.
func (c *Conn) setUDPOption(opt, v int) error {
	var serr error
	if err := c.rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, opt, v)
	}); err != nil {
		return err
	}
	return serr
}

// readMmsg fills up to len(r.ms) slots with one recvmmsg, blocking via the
// runtime poller until at least one datagram arrives, and returns one
// Message per datagram: a slot the kernel coalesced (UDP_GRO) is split at
// its segment size into views that share the slot's buffer and Addr.
func (r *Reader) readMmsg() ([]Message, error) {
	// msg_namelen and msg_controllen are value-result: the kernel
	// overwrites them with the actual sizes, so they are re-armed every call.
	for i := range r.mm.hs {
		r.mm.hs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		if r.mm.ctl != nil {
			r.mm.hs[i].hdr.Controllen = uint64(unsafe.Sizeof(sizeCmsg{}))
		}
	}
	r.mm.n, r.mm.errno = 0, 0
	if err := r.c.rc.Read(r.mm.fn); err != nil {
		return nil, err
	}
	if r.mm.errno != 0 {
		return nil, r.mm.errno
	}
	out := r.mm.out[:0]
	for i := 0; i < r.mm.n; i++ {
		m := &r.ms[i]
		decodeSockaddr(&r.mm.names[i], m.Addr)
		total := int(r.mm.hs[i].n)
		seg := total // no UDP_GRO message: the slot holds one datagram
		if r.mm.hs[i].hdr.Controllen >= uint64(syscall.CmsgLen(4)) {
			if c := &r.mm.ctl[i]; c.hdr.Level == syscall.IPPROTO_UDP && c.hdr.Type == udpGRO && c.size > 0 {
				seg = int(c.size)
			}
		}
		for off := 0; ; off += seg {
			end := min(off+seg, total)
			out = append(out, Message{Buf: m.Buf[off:end:end], N: end - off, Addr: m.Addr})
			if end == total {
				break
			}
		}
	}
	r.mm.out = out
	return out, nil
}

// decodeSockaddr parses a raw source address into the reader-owned
// *net.UDPAddr slot without allocating. IPv6 zone names are not resolved
// (a name lookup allocates; the transport never compares zones).
func decodeSockaddr(rsa *syscall.RawSockaddrInet6, addr *net.UDPAddr) {
	switch rsa.Family {
	case syscall.AF_INET:
		rsa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		addr.IP = addr.IP[:4]
		copy(addr.IP, rsa4.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&rsa4.Port))
		addr.Port = int(p[0])<<8 | int(p[1])
	case syscall.AF_INET6:
		addr.IP = addr.IP[:16]
		copy(addr.IP, rsa.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&rsa.Port))
		addr.Port = int(p[0])<<8 | int(p[1])
	default:
		addr.IP = addr.IP[:0]
		addr.Port = 0
	}
	addr.Zone = ""
}

// mmsgWriterState preallocates the sendmmsg header/iovec/sockaddr/control
// arrays plus the poller callback and its result slots; the steady-state
// write performs zero heap allocations. A header carries one train: its
// iovec list points at the train's datagrams, in the callers' buffers.
type mmsgWriterState struct {
	hs    []mmsghdr
	iovs  []syscall.Iovec // one per datagram
	names []syscall.RawSockaddrInet6
	ctl   []sizeCmsg // one UDP_SEGMENT message per header, attached to trains longer than 1
	// send is the sendmmsg syscall; tests wrap it to inject errnos.
	send  func(fd uintptr, hs []mmsghdr) (int, syscall.Errno)
	fn    func(fd uintptr) bool
	batch int // headers prepared for the pending syscall
	n     int
	errno syscall.Errno
}

func sendmmsg(fd uintptr, hs []mmsghdr) (int, syscall.Errno) { return mmsgCall(sysSENDMMSG, fd, hs) }

func (w *Writer) initMmsg(batch int) {
	w.mm.hs = make([]mmsghdr, batch)
	w.mm.iovs = make([]syscall.Iovec, batch)
	w.mm.names = make([]syscall.RawSockaddrInet6, batch)
	w.mm.ctl = make([]sizeCmsg, batch)
	for i := range w.mm.hs {
		w.mm.hs[i].hdr.Name = (*byte)(unsafe.Pointer(&w.mm.names[i]))
		w.mm.ctl[i].hdr = syscall.Cmsghdr{Level: syscall.IPPROTO_UDP, Type: udpSegment}
		w.mm.ctl[i].hdr.SetLen(syscall.CmsgLen(2))
	}
	w.mm.send = sendmmsg
	w.mm.fn = pollFn(func(fd uintptr) (int, syscall.Errno) { return w.mm.send(fd, w.mm.hs[:w.mm.batch]) },
		&w.mm.n, &w.mm.errno)
}

// trainLen is the number of leading datagrams of ms that go out as one
// train: same peer, each as long as the first, except that a shorter one
// may end it; at most maxTrainSegs datagrams and maxTrainBytes bytes.
func trainLen(ms []Message) int {
	size := len(ms[0].Buf)
	n, total := 1, size
	for n < len(ms) && n < maxTrainSegs {
		l := len(ms[n].Buf)
		if l > size || total+l > maxTrainBytes || !samePeer(ms[n].Addr, ms[0].Addr) {
			break
		}
		n, total = n+1, total+l
		if l < size {
			break
		}
	}
	return n
}

func samePeer(a, b *net.UDPAddr) bool {
	return a == b || (a.Port == b.Port && a.IP.Equal(b.IP))
}

// writeMmsg sends ms with one sendmmsg per len(w.mm.iovs) datagrams, one
// header per train, retrying partial sends; the return contract, N
// included, is WriteBatch's. A train the kernel refuses as a train (no
// checksum offload, a segment above the path MTU, no UDP_SEGMENT) turns
// trains off for the Conn, and its datagrams go out again one per header.
func (w *Writer) writeMmsg(ms []Message) (int, error) {
	sent, refused := 0, -1
	for sent < len(ms) {
		rest := ms[sent:min(len(ms), sent+len(w.mm.iovs))]
		trains := !w.c.gsoOff.Load()
		h := 0
		for k := 0; k < len(rest); h++ {
			n := 1
			if trains {
				n = trainLen(rest[k:])
			}
			hdr := &w.mm.hs[h].hdr
			hdr.Iov, hdr.Iovlen = &w.mm.iovs[k], uint64(n)
			hdr.Namelen = w.encodeSockaddr(&w.mm.names[h], rest[k].Addr)
			hdr.Control, hdr.Controllen = nil, 0
			if n > 1 {
				w.mm.ctl[h].size = int32(len(rest[k].Buf))
				hdr.Control = (*byte)(unsafe.Pointer(&w.mm.ctl[h]))
				hdr.Controllen = uint64(unsafe.Sizeof(sizeCmsg{}))
			}
			for i := k; i < k+n; i++ {
				w.mm.iovs[i].Base = &rest[i].Buf[0]
				w.mm.iovs[i].SetLen(len(rest[i].Buf))
				rest[i].N = 0
			}
			rest[k].N = n
			if sent+k == refused {
				rest[k].N = -n
			}
			k += n
		}
		w.mm.batch, w.mm.n, w.mm.errno = h, 0, 0
		if err := w.c.rc.Write(w.mm.fn); err != nil {
			return sent, err
		}
		if e := w.mm.errno; e != 0 {
			if w.mm.hs[0].hdr.Iovlen > 1 && (e == syscall.EIO || e == syscall.EINVAL || e == syscall.EMSGSIZE) {
				w.c.gsoOff.Store(true)
				refused = sent
				continue
			}
			return sent, e
		}
		if w.mm.n <= 0 {
			// A zero-progress success should be impossible; bail rather
			// than spin.
			return sent, syscall.EIO
		}
		for i := 0; i < w.mm.n; i++ {
			sent += int(w.mm.hs[i].hdr.Iovlen)
		}
	}
	return sent, nil
}

// encodeSockaddr renders dst into the socket's own address family and
// returns the sockaddr length. v4 destinations on a v6 (dual-stack)
// socket become v4-mapped v6 addresses.
func (w *Writer) encodeSockaddr(rsa *syscall.RawSockaddrInet6, dst *net.UDPAddr) uint32 {
	port := uint16(dst.Port)
	if !w.c.v6 {
		rsa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		*rsa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		p := (*[2]byte)(unsafe.Pointer(&rsa4.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		if ip4 := dst.IP.To4(); ip4 != nil {
			copy(rsa4.Addr[:], ip4)
		}
		return syscall.SizeofSockaddrInet4
	}
	*rsa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	p := (*[2]byte)(unsafe.Pointer(&rsa.Port))
	p[0], p[1] = byte(port>>8), byte(port)
	if ip4 := dst.IP.To4(); ip4 != nil {
		// v4-mapped: ::ffff:a.b.c.d
		rsa.Addr[10], rsa.Addr[11] = 0xff, 0xff
		copy(rsa.Addr[12:], ip4)
	} else {
		copy(rsa.Addr[:], dst.IP.To16())
	}
	return syscall.SizeofSockaddrInet6
}
