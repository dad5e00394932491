package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// call is one operation the benchmark issued: a library call or an HTTP
// request.
type call struct {
	kind string
	dur  time.Duration
	// cells counts the element comparisons the program had to compute:
	// query elements × target nt, summed over the call's queries (0 when a
	// cache answered). nt is target nt × queries, computed or not.
	cells, nt float64
	// target is the target's length in nt.
	target int
	// cached reports that a result cache answered the call; scanned that
	// it ran a nucleotide scan (the unit shards are counted against).
	cached, scanned bool
	// bytes is the response body size (HTTP calls only).
	bytes int
}

// sample is an output check that needs an oracle run; it runs after the
// timed windows so the oracle's work is not measured.
type sample struct {
	desc  string
	check func() error
}

// maxFailureNotes bounds how many failure descriptions a run keeps.
const maxFailureNotes = 20

// meter collects one measurement window.
type meter struct {
	mu sync.Mutex
	// ops are the unit the gated metrics count: one request for a server
	// workload, one cycle of library calls for a library workload.
	ops       []op
	calls     []call
	attempted int
	failed    int
	notes     []string
	samples   []sample
	seen      map[string]int
	// start is when the window began; wall its length to the end of its
	// last operation.
	start time.Time
	wall  time.Duration
}

// op is one completed operation: when it ended (from the window's
// start), how long it took and the cells it computed.
type op struct {
	end, lat time.Duration
	cells    float64
}

func newMeter() *meter { return &meter{seen: map[string]int{}, start: time.Now()} }

func (m *meter) addCall(c call) {
	m.mu.Lock()
	m.calls = append(m.calls, c)
	m.attempted++
	m.mu.Unlock()
}

func (m *meter) addOp(lat time.Duration, cells float64) {
	m.mu.Lock()
	m.ops = append(m.ops, op{end: time.Since(m.start), lat: lat, cells: cells})
	m.mu.Unlock()
}

func (m *meter) latencies() []time.Duration {
	out := make([]time.Duration, len(m.ops))
	for i, o := range m.ops {
		out[i] = o.lat
	}
	return out
}

// fail counts one failed operation.
func (m *meter) fail(format string, args ...any) {
	m.mu.Lock()
	m.failed++
	if len(m.notes) < maxFailureNotes {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
	m.mu.Unlock()
}

// failedCall counts an attempted call that failed before producing output.
func (m *meter) failedCall(format string, args ...any) {
	m.mu.Lock()
	m.attempted++
	m.mu.Unlock()
	m.fail(format, args...)
}

// Oracle sampling: the first operation of each kind and every
// sampleEvery-th after it are checked against an oracle, at most
// sampleMax per kind and window.
const (
	sampleEvery = 8
	sampleMax   = 3
)

// sampled reports whether this operation of the kind gets an oracle
// check, and counts it.
func (m *meter) sampled(kind string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.seen[kind]
	m.seen[kind] = n + 1
	return n%sampleEvery == 0 && n/sampleEvery < sampleMax
}

func (m *meter) addSample(desc string, check func() error) {
	m.mu.Lock()
	m.samples = append(m.samples, sample{desc, check})
	m.mu.Unlock()
}

// verify runs the oracle checks; a mismatch fails one operation.
func (m *meter) verify() {
	for _, s := range m.samples {
		if err := s.check(); err != nil {
			m.fail("%s: %v", s.desc, err)
		}
	}
}

// kindStats summarises the calls of one kind.
type kindStats struct {
	n            int
	p50, p99     float64 // ms
	busy         time.Duration
	cells, nt    float64
	cached, scan int
	bytes        int
}

func (m *meter) byKind() map[string]*kindStats {
	lat := map[string][]time.Duration{}
	out := map[string]*kindStats{}
	for _, c := range m.calls {
		k := out[c.kind]
		if k == nil {
			k = &kindStats{}
			out[c.kind] = k
		}
		k.n++
		k.busy += c.dur
		k.cells += c.cells
		k.nt += c.nt
		k.bytes += c.bytes
		if c.cached {
			k.cached++
		}
		if c.scanned {
			k.scan++
		}
		lat[c.kind] = append(lat[c.kind], c.dur)
	}
	for kind, k := range out {
		k.p50 = percentileMs(lat[kind], 50)
		k.p99 = percentileMs(lat[kind], 99)
	}
	return out
}

// totals sums every call of the window.
func (m *meter) totals() kindStats {
	var t kindStats
	for _, k := range m.byKind() {
		t.n += k.n
		t.busy += k.busy
		t.cells += k.cells
		t.nt += k.nt
		t.cached += k.cached
		t.scan += k.scan
		t.bytes += k.bytes
	}
	return t
}

// sliceLen is the length of the slices throughput is taken over.
const sliceLen = 2 * time.Second

// rates is the window's throughput in operations and cells per second,
// taken slice by slice (operations binned by when they ended) and
// reported as the median slice: a burst of interference from outside
// the benchmark moves one slice, not the figure. byLatency divides a
// slice's work by its operations' summed latency, which suits one caller
// issuing operations back to back; otherwise by the slice's length.
func (m *meter) rates(byLatency bool) (opsPerS, cellsPerS float64) {
	n := max(1, int(m.wall/sliceLen))
	width := m.wall / time.Duration(n)
	type bin struct {
		ops   int
		cells float64
		lat   time.Duration
	}
	bins := make([]bin, n)
	for _, o := range m.ops {
		i := min(n-1, int(o.end/width))
		bins[i].ops++
		bins[i].cells += o.cells
		bins[i].lat += o.lat
	}
	var opr, cellr []float64
	for _, b := range bins {
		d := width.Seconds()
		if byLatency {
			d = b.lat.Seconds()
		}
		if b.ops > 0 && d > 0 {
			opr = append(opr, float64(b.ops)/d)
			cellr = append(cellr, b.cells/d)
		}
	}
	return medianOf(opr), medianOf(cellr)
}

// medianOf is the median of v (0 for none).
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentileMs is the p-th percentile of ds in milliseconds, linearly
// interpolated between order statistics (0 for no samples).
func percentileMs(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(v)
	pos := p / 100 * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// median is the median of ds (0 for no samples).
func median(ds []time.Duration) time.Duration {
	return time.Duration(percentileMs(ds, 50) * 1e6)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
