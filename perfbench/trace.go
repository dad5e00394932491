package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one benchmark operation share Op; Parent names the
// span that caused this one (0 for an operation's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span.
type active struct {
	tr    *tracer
	s     span
	start time.Time
}

// newOp allocates an operation ID.
func (t *tracer) newOp() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// start opens a span named name under parent (nil for an operation root)
// in operation op.
func (t *tracer) start(op uint64, parent *active, name string) *active {
	if t == nil {
		return nil
	}
	a := &active{tr: t, s: span{ID: t.next.Add(1), Op: op, Name: name}, start: time.Now()}
	if parent != nil {
		a.s.Parent = parent.s.ID
	}
	return a
}

// end closes the span.
func (a *active) end() {
	if a == nil {
		return
	}
	now := time.Now()
	a.s.Start = a.start.Sub(a.tr.t0).Nanoseconds()
	a.s.End = now.Sub(a.tr.t0).Nanoseconds()
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.s)
	a.tr.mu.Unlock()
}

// durations returns the lengths of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// count is the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sumMs and meanMs summarise span durations.
func sumMs(ds []time.Duration) float64 {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return float64(s.Nanoseconds()) / 1e6
}

func meanMs(ds []time.Duration) float64 {
	return ratio(sumMs(ds), float64(len(ds)))
}
