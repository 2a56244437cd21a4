package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, or a phase of the run. Spans of one
// operation share Op; Parent is the span that caused this one (0 = none).
type span struct {
	Workload string `json:"workload"`
	ID       uint32 `json:"id"`
	Parent   uint32 `json:"parent,omitempty"`
	Op       uint64 `json:"op,omitempty"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the recorder was created
	End      int64  `json:"end_ns"`
	Count    int64  `json:"count,omitempty"` // operations inside a ladder rung
}

// spanLog keeps one workload's spans in memory until the run ends. A nil
// *spanLog is the plain run: every method is a no-op, so call sites need
// no branches.
type spanLog struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newSpanLog(workload string) *spanLog { return &spanLog{workload: workload, t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name string, parent uint32, op uint64) uint32 {
	if l == nil {
		return 0
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans = append(l.spans, span{Parent: parent, Op: op, Name: name, Start: now})
	id := uint32(len(l.spans))
	l.spans[id-1].ID = id
	l.mu.Unlock()
	return id
}

// add records a span whose start and end were observed elsewhere (the
// server-side reader's view of a stream).
func (l *spanLog) add(name string, parent uint32, op uint64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: uint32(len(l.spans) + 1), Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
	l.mu.Unlock()
}

// end closes span id.
func (l *spanLog) end(id uint32) { l.endCount(id, 0) }

// endCount closes span id and records how many operations it covered.
func (l *spanLog) endCount(id uint32, count int64) {
	if l == nil || id == 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id-1].End = now
	l.spans[id-1].Count = count
	l.mu.Unlock()
}

// durationsMs returns the duration of every closed span called name.
func (l *spanLog) durationsMs(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for i := range l.spans {
		if s := &l.spans[i]; s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfMs returns, for every closed span called name, its duration minus
// the time its direct children cover.
func (l *spanLog) selfMs(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make(map[uint32]int64)
	for i := range l.spans {
		if s := &l.spans[i]; s.Parent != 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i := range l.spans {
		if s := &l.spans[i]; s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start-child[s.ID])/1e6)
		}
	}
	return out
}

// writeSpans writes every span of every log to path, one JSON object a
// line.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		l.mu.Lock()
		for i := range l.spans {
			l.spans[i].Workload = l.workload
			if err := enc.Encode(&l.spans[i]); err != nil {
				l.mu.Unlock()
				f.Close()
				return err
			}
		}
		l.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
