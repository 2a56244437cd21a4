package stream

import "container/heap"

// Scheduler orders ready send streams. Implementations are not
// goroutine-safe: every method is called under the SendMux lock.
//
// The contract: Push enters a stream that became frameable (the mux
// guarantees no double-push); Peek returns the stream to service next
// without removing it; Consumed reports that n connection-space bytes were
// framed from s and whether s is still frameable, letting the scheduler
// rotate, retire, or retain it. A stream that stops being frameable
// between Push and Peek is removed by the mux via Consumed(s, 0, false).
type Scheduler interface {
	// Push enters a ready stream.
	Push(s *SendStream)
	// Peek returns the next stream to service, or nil when none is ready.
	Peek() *SendStream
	// Consumed accounts n framed bytes from s; still reports whether s
	// remains frameable and should stay scheduled.
	Consumed(s *SendStream, n int, still bool)
}

// newScheduler builds the scheduler named by a validated Config.
func newScheduler(name string) Scheduler {
	switch name {
	case SchedulerPriority:
		return &prioSched{}
	case SchedulerWeighted:
		return newDRRSched()
	default:
		return &rrSched{}
	}
}

// rrSched is a FIFO rotation: one frame per ready stream per round.
type rrSched struct {
	q []*SendStream
}

// Push appends the stream to the rotation.
func (r *rrSched) Push(s *SendStream) { r.q = append(r.q, s) }

// Peek returns the stream at the head of the rotation.
func (r *rrSched) Peek() *SendStream {
	if len(r.q) == 0 {
		return nil
	}
	return r.q[0]
}

// Consumed rotates the serviced stream to the back (or drops it when it
// has nothing left to frame).
func (r *rrSched) Consumed(s *SendStream, n int, still bool) {
	if len(r.q) == 0 || r.q[0] != s {
		return
	}
	r.q = r.q[1:]
	if still {
		r.q = append(r.q, s)
	}
}

// prioSched is strict priority: the highest-priority ready stream is
// serviced until it has nothing to frame; ties break toward the lowest
// stream ID for determinism.
type prioSched struct {
	h prioHeap
}

// Push enters the stream into the priority heap.
func (p *prioSched) Push(s *SendStream) { heap.Push(&p.h, s) }

// Peek returns the highest-priority ready stream.
func (p *prioSched) Peek() *SendStream {
	if len(p.h) == 0 {
		return nil
	}
	return p.h[0]
}

// Consumed keeps the stream at the top while it remains frameable (strict
// priority never rotates), removing it otherwise.
func (p *prioSched) Consumed(s *SendStream, n int, still bool) {
	if still || len(p.h) == 0 || p.h[0] != s {
		return
	}
	heap.Pop(&p.h)
}

// prioHeap orders by descending priority, ascending stream ID.
type prioHeap []*SendStream

func (h prioHeap) Len() int { return len(h) }
func (h prioHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].id < h[j].id
}
func (h prioHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *prioHeap) Push(x any)        { *h = append(*h, x.(*SendStream)) }
func (h *prioHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}

// drrQuantum is the deficit-round-robin base quantum per unit of weight:
// roughly one full frame, so a weight-1 stream sends about one packet per
// round.
const drrQuantum = 1500

// drrSched is deficit round robin (Shreedhar & Varghese): each ready
// stream holds a byte deficit replenished by weight×quantum per round; the
// head stream is serviced while its deficit lasts, then rotates.
type drrSched struct {
	q []*SendStream
}

func newDRRSched() *drrSched { return &drrSched{} }

// Push enters the stream with a fresh quantum.
func (d *drrSched) Push(s *SendStream) {
	s.deficit = d.quantumFor(s)
	d.q = append(d.q, s)
}

func (d *drrSched) quantumFor(s *SendStream) int {
	w := s.weight
	if w <= 0 {
		w = 1
	}
	return w * drrQuantum
}

// Peek returns the head of the active list.
func (d *drrSched) Peek() *SendStream {
	if len(d.q) == 0 {
		return nil
	}
	return d.q[0]
}

// Consumed charges the framed bytes against the head stream's deficit and
// rotates it (with a replenished quantum) once the deficit is spent.
func (d *drrSched) Consumed(s *SendStream, n int, still bool) {
	if len(d.q) == 0 || d.q[0] != s {
		return
	}
	s.deficit -= n
	if !still {
		d.q = d.q[1:]
		return
	}
	if s.deficit <= 0 {
		d.q = append(d.q[1:], s)
		s.deficit += d.quantumFor(s)
	}
}
