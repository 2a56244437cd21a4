//go:build linux && (amd64 || arm64)

package batchio

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"syscall"
	"testing"
	"time"
)

// requireUDPOption skips the test when this kernel refuses the segment
// train socket option opt (UDP_SEGMENT before 4.18, UDP_GRO before 5.0).
func requireUDPOption(t *testing.T, name string, opt, v int) {
	t.Helper()
	uc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	if err := New(uc).setUDPOption(opt, v); err != nil {
		t.Skipf("kernel refuses %s: %v", name, err)
	}
}

func requireGSO(t *testing.T) { requireUDPOption(t, "UDP_SEGMENT", udpSegment, 1200) }
func requireGRO(t *testing.T) { requireUDPOption(t, "UDP_GRO", udpGRO, 1) }

// recordTrains wraps w's syscall so that the train lengths of every header
// handed to the kernel are appended to *got; fail, when non-nil, may return
// an errno for a header instead of sending it. Like the kernel, a sendmmsg
// that fails after its first header reports the headers sent and drops the
// errno.
func recordTrains(w *Writer, got *[]int, fail func(h *syscall.Msghdr) syscall.Errno) {
	w.mm.send = func(fd uintptr, hs []mmsghdr) (int, syscall.Errno) {
		for i := range hs {
			if fail != nil {
				if e := fail(&hs[i].hdr); e != 0 {
					if i == 0 {
						return 0, e
					}
					return sendmmsg(fd, hs[:i])
				}
			}
			*got = append(*got, int(hs[i].hdr.Iovlen))
		}
		return sendmmsg(fd, hs)
	}
}

// readAll reads count datagrams through r and returns copies of them.
func readAll(t *testing.T, uc *net.UDPConn, r *Reader, count int) [][]byte {
	t.Helper()
	var got [][]byte
	uc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < count {
		ms, err := r.ReadBatch()
		if err != nil {
			t.Fatalf("ReadBatch after %d/%d datagrams: %v", len(got), count, err)
		}
		for _, m := range ms {
			got = append(got, append([]byte(nil), m.Buf[:m.N]...))
		}
	}
	return got
}

// payload is datagram i of a test: its index, then filler to length n.
func payload(i, n int) []byte {
	b := bytes.Repeat([]byte{byte(i)}, n)
	copy(b, fmt.Sprintf("%03d", i))
	return b
}

// TestTrainFormation sends each shape through one WriteBatch and checks
// the trains the writer formed and, byte for byte and in order, what each
// peer received — on v4, v6 and v4-mapped (dual-stack sender) sockets.
func TestTrainFormation(t *testing.T) {
	requireGSO(t)
	type dgram struct{ peer, size int }
	rep := func(n, peer, size int) []dgram {
		ds := make([]dgram, n)
		for i := range ds {
			ds[i] = dgram{peer, size}
		}
		return ds
	}
	cat := func(parts ...[]dgram) (all []dgram) {
		for _, p := range parts {
			all = append(all, p...)
		}
		return all
	}
	cases := []struct {
		name   string
		ds     []dgram
		trains []int
	}{
		{"32 equal", rep(32, 0, 1200), []int{32}},
		{"31 equal and a short one", cat(rep(31, 0, 1200), rep(1, 0, 70)), []int{32}},
		{"short in the middle", cat(rep(5, 0, 1200), rep(1, 0, 70), rep(5, 0, 1200)), []int{6, 5}},
		{"longer after shorter", cat(rep(3, 0, 100), rep(3, 0, 200)), []int{3, 3}},
		{"alternating peers", []dgram{{0, 500}, {1, 500}, {0, 500}, {1, 500}}, []int{1, 1, 1, 1}},
		{"100 equal", rep(100, 0, 300), []int{64, 36}},
		{"60 of 1443 bytes", rep(60, 0, 1443), []int{45, 15}},
		{"one datagram", rep(1, 0, 1200), []int{1}},
	}
	for _, nw := range []struct{ name, send, recv, addr string }{
		{"udp4", "udp4", "udp4", "127.0.0.1:0"},
		{"udp6", "udp6", "udp6", "[::1]:0"},
		{"mapped", "udp", "udp4", "127.0.0.1:0"}, // dual-stack sender, v4 peers
	} {
		t.Run(nw.name, func(t *testing.T) {
			listen := func(network, addr string) *net.UDPConn {
				la, err := net.ResolveUDPAddr(network, addr)
				if err != nil {
					t.Fatal(err)
				}
				uc, err := net.ListenUDP(network, la)
				if err != nil {
					t.Skipf("listen %s %s: %v", network, addr, err)
				}
				t.Cleanup(func() { uc.Close() })
				return uc
			}
			sendAddr := nw.addr
			if nw.name == "mapped" {
				sendAddr = ":0"
			}
			tx := listen(nw.send, sendAddr)
			peers := []*net.UDPConn{listen(nw.recv, nw.addr), listen(nw.recv, nw.addr)}
			readers := []*Reader{New(peers[0]).NewReader(32, 2048), New(peers[1]).NewReader(32, 2048)}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					ctx := New(tx)
					w := ctx.NewWriter(128)
					var trains []int
					recordTrains(w, &trains, nil)
					ms := make([]Message, len(tc.ds))
					want := make([][][]byte, len(peers))
					for i, d := range tc.ds {
						ms[i] = Message{Buf: payload(i, d.size), Addr: peers[d.peer].LocalAddr().(*net.UDPAddr)}
						want[d.peer] = append(want[d.peer], ms[i].Buf)
					}
					if n, err := w.WriteBatch(ms); n != len(ms) || err != nil {
						t.Fatalf("WriteBatch = (%d, %v), want (%d, nil)", n, err, len(ms))
					}
					if ctx.gsoOff.Load() {
						t.Skip("this kernel refused a train on loopback")
					}
					if !reflect.DeepEqual(trains, tc.trains) {
						t.Errorf("trains %v, want %v", trains, tc.trains)
					}
					// N reports the same trains back to the caller.
					var reported []int
					for _, m := range ms {
						if m.N != 0 {
							reported = append(reported, m.N)
						}
					}
					if !reflect.DeepEqual(reported, tc.trains) {
						t.Errorf("Message.N reports trains %v, want %v", reported, tc.trains)
					}
					for p := range peers {
						got := readAll(t, peers[p], readers[p], len(want[p]))
						for i := range got {
							if !bytes.Equal(got[i], want[p][i]) {
								t.Fatalf("peer %d datagram %d: got %d bytes %q…, want %d bytes %q…",
									p, i, len(got[i]), got[i][:3], len(want[p][i]), want[p][i][:3])
							}
						}
					}
				})
			}
		})
	}
}

// trainPair is a sender and a receiver socket on loopback, the receiver
// read through slots of the given size.
func trainPair(t *testing.T, slots, size int) (w *Writer, r *Reader, rx *net.UDPConn, ms []Message) {
	t.Helper()
	rx, tx := pair(t, "udp4", "127.0.0.1:0")
	r = New(rx).NewReader(slots, size)
	w = New(tx).NewWriter(32)
	ms = make([]Message, 32)
	for i := range ms {
		ms[i] = Message{Buf: payload(i, 1443), Addr: rx.LocalAddr().(*net.UDPAddr)}
	}
	return w, r, rx, ms
}

// TestGROReaderSplitsTrain: a reader with one 64 KiB slot gets a 32-segment
// train in one ReadBatch, as 32 Messages.
func TestGROReaderSplitsTrain(t *testing.T) {
	requireGSO(t)
	requireGRO(t)
	w, r, rx, ms := trainPair(t, 1, 64<<10)
	if r.mm.ctl == nil {
		t.Fatal("a 64 KiB-slot reader did not turn UDP_GRO on")
	}
	if _, err := w.WriteBatch(ms); err != nil {
		t.Fatal(err)
	}
	if w.c.gsoOff.Load() {
		t.Skip("this kernel refused a train on loopback")
	}
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := r.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ms) {
		t.Fatalf("one ReadBatch on one slot returned %d datagrams, want the train's %d", len(got), len(ms))
	}
	from := w.c.uc.LocalAddr().(*net.UDPAddr)
	for i, m := range got {
		if m.N != len(ms[i].Buf) || !bytes.Equal(m.Buf[:m.N], ms[i].Buf) {
			t.Fatalf("datagram %d: N=%d %q…, want N=%d %q…", i, m.N, m.Buf[:3], len(ms[i].Buf), ms[i].Buf[:3])
		}
		if m.Addr == nil || m.Addr.Port != from.Port || !m.Addr.IP.Equal(from.IP) {
			t.Fatalf("datagram %d: source %v, want %v", i, m.Addr, from)
		}
	}
}

// TestSmallSlotReaderGetsWholeDatagrams is the bench ladder's shape: 2,048 B
// slots on a socket that is sent trains. The reader must leave UDP_GRO off
// and receive every datagram whole.
func TestSmallSlotReaderGetsWholeDatagrams(t *testing.T) {
	requireGSO(t)
	w, r, rx, ms := trainPair(t, 32, 2048)
	if r.mm.ctl != nil {
		t.Fatal("a 2,048 B-slot reader turned UDP_GRO on")
	}
	for round := 0; round < 3; round++ {
		if _, err := w.WriteBatch(ms); err != nil {
			t.Fatal(err)
		}
		for i, got := range readAll(t, rx, r, len(ms)) {
			if !bytes.Equal(got, ms[i].Buf) {
				t.Fatalf("round %d datagram %d: got %d bytes, want %d", round, i, len(got), len(ms[i].Buf))
			}
		}
	}
}

// TestTrainsZeroAlloc: with trains on in both directions a write of 32 and
// the reads that drain it allocate nothing.
func TestTrainsZeroAlloc(t *testing.T) {
	requireGSO(t)
	requireGRO(t)
	w, r, rx, ms := trainPair(t, 32, 64<<10)
	rx.SetReadDeadline(time.Now().Add(30 * time.Second))
	step := func() {
		if _, err := w.WriteBatch(ms); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < len(ms); {
			in, err := r.ReadBatch()
			if err != nil {
				t.Fatal(err)
			}
			got += len(in)
		}
	}
	step() // the reader's view list grows to a train's length once
	if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
		t.Fatalf("WriteBatch + ReadBatch allocate %v per 32 datagrams, want 0", allocs)
	}
}

// TestGSORefusalLatchesOffAndResends: the kernel (here: the hook) refuses
// the first train with EIO. Every datagram still arrives, once, and later
// writes on the Conn build no trains.
func TestGSORefusalLatchesOffAndResends(t *testing.T) {
	w, r, rx, ms := trainPair(t, 32, 2048)
	if w.c.gsoOff.Load() {
		t.Skip("trains are off already")
	}
	var trains []int
	recordTrains(w, &trains, func(h *syscall.Msghdr) syscall.Errno {
		if h.Iovlen > 1 {
			return syscall.EIO
		}
		return 0
	})
	for round := 0; round < 2; round++ {
		trains = trains[:0]
		if n, err := w.WriteBatch(ms); n != len(ms) || err != nil {
			t.Fatalf("round %d: WriteBatch = (%d, %v), want (%d, nil)", round, n, err, len(ms))
		}
		for i, got := range readAll(t, rx, r, len(ms)) {
			if !bytes.Equal(got, ms[i].Buf) {
				t.Fatalf("round %d datagram %d differs", round, i)
			}
		}
		if len(trains) != len(ms) {
			t.Fatalf("round %d: %d headers sent for %d datagrams, want one each: %v", round, len(trains), len(ms), trains)
		}
		// The refusal is reported once, on the datagram that led the train.
		if want := []int{-1, 1}[round]; ms[0].N != want || ms[1].N != 1 {
			t.Fatalf("round %d: N = %d, %d, want %d, 1", round, ms[0].N, ms[1].N, want)
		}
	}
	if !w.c.gsoOff.Load() {
		t.Fatal("the refusal did not latch trains off")
	}
	// Nothing else is waiting: no datagram went out twice.
	rx.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if in, err := r.ReadBatch(); err == nil {
		t.Fatalf("%d datagrams arrived twice", len(in))
	}
}

// TestWriteBatchIndexUnderTrainErrors: a train the kernel rejects for a
// reason that says nothing about trains (ENOBUFS, EPERM) fails whole:
// WriteBatch reports the datagrams before it, trains stay on, and a caller
// that skips one datagram and goes on (shard.flush) ends with every
// datagram either failed once or delivered once.
func TestWriteBatchIndexUnderTrainErrors(t *testing.T) {
	requireGSO(t)
	for _, errno := range []syscall.Errno{syscall.ENOBUFS, syscall.EPERM} {
		t.Run(errno.Error(), func(t *testing.T) {
			w, r, rx, ms := trainPair(t, 32, 2048)
			if w.c.gsoOff.Load() {
				t.Skip("trains are off already")
			}
			// Three trains, each of longer datagrams than the one before:
			// 8 × 900 B, 8 × 1200 B, 16 × 1443 B. The middle one is
			// rejected until two of its datagrams have been given up.
			for i := 0; i < 16; i++ {
				ms[i].Buf = payload(i, 900+300*(i/8))
			}
			var trains []int
			recordTrains(w, &trains, func(h *syscall.Msghdr) syscall.Errno {
				if h.Iov.Len == 1200 && h.Iovlen > 6 {
					return errno
				}
				return 0
			})
			n, err := w.WriteBatch(ms)
			if n != 8 || err != errno {
				t.Fatalf("WriteBatch = (%d, %v), want (8, %v): the datagrams before the failed train", n, err, errno)
			}
			failed := []int{}
			for sent := n; ; {
				failed = append(failed, sent)
				sent++
				n, err := w.WriteBatch(ms[sent:])
				if sent += n; err == nil {
					break
				}
			}
			if w.c.gsoOff.Load() {
				t.Fatalf("%v latched trains off", errno)
			}
			if !reflect.DeepEqual(failed, []int{8, 9}) {
				t.Fatalf("failed datagrams %v, want [8 9]", failed)
			}
			if want := []int{8, 6, 16}; !reflect.DeepEqual(trains, want) {
				t.Fatalf("trains sent %v, want %v", trains, want)
			}
			got := readAll(t, rx, r, len(ms)-len(failed))
			for i, j := 0, 0; i < len(ms); i++ {
				if i == 8 || i == 9 {
					continue
				}
				if !bytes.Equal(got[j], ms[i].Buf) {
					t.Fatalf("datagram %d arrived as %q…", i, got[j][:3])
				}
				j++
			}
			rx.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			if in, err := r.ReadBatch(); err == nil {
				t.Fatalf("%d datagrams arrived twice", len(in))
			}
		})
	}
}

// TestRefusalLatchIsSharedByWriters: several goroutines, each with its own
// Writer on one Conn, meet the refusal at once (run under -race); every
// datagram of every writer still arrives once.
func TestRefusalLatchIsSharedByWriters(t *testing.T) {
	const writers = 4
	rx, tx := pair(t, "udp4", "127.0.0.1:0")
	rx.SetReadBuffer(4 << 20)
	r, c := New(rx).NewReader(32, 2048), New(tx)
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		w := c.NewWriter(32)
		var trains []int
		recordTrains(w, &trains, func(h *syscall.Msghdr) syscall.Errno {
			if h.Iovlen > 1 {
				return syscall.EIO
			}
			return 0
		})
		ms := make([]Message, 32)
		for i := range ms {
			ms[i] = Message{Buf: payload(g*len(ms)+i, 1200), Addr: rx.LocalAddr().(*net.UDPAddr)}
		}
		go func() {
			n, err := w.WriteBatch(ms)
			if err == nil && n != len(ms) {
				err = fmt.Errorf("WriteBatch sent %d of %d", n, len(ms))
			}
			errs <- err
		}()
	}
	for g := 0; g < writers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, got := range readAll(t, rx, r, writers*32) {
		if seen[string(got[:3])] {
			t.Fatalf("datagram %s arrived twice", got[:3])
		}
		seen[string(got[:3])] = true
	}
	if !c.gsoOff.Load() {
		t.Fatal("the refusals did not latch trains off")
	}
}
