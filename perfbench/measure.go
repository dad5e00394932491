package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"fabp"
)

// session is a workload with its inputs generated and its set-up done.
type session interface {
	// window runs the workload's closed loop for d. tr is nil for the
	// untraced window.
	window(d time.Duration, tr *tracer) (*meter, error)
	// counters snapshots the program's own telemetry.
	counters() (fabp.MetricsSnapshot, error)
	// pid names the program's process in /proc ("self" when it is this
	// one).
	pid() string
	// setups are the measured set-up times; their median is setup_s.
	setups() []time.Duration
	// sequential reports that one caller issues the operations back to
	// back, so throughput divides work by the operations' latency rather
	// than by wall time.
	sequential() bool
	// replay adds the per-layer metrics that replay a layer on the
	// workload's inputs (traced runs only).
	replay(l layerValues) error
	close() error
}

// runResult is everything one run reports.
type runResult struct {
	e2e, layer        map[string]metric
	report            map[string]any
	attempted, failed int
	wrong             []string
}

// measure opens the workload, runs the untraced window (and, when
// tracing, a traced window after it, each half of --seconds), checks the
// outputs and derives the metrics.
func measure(e *env, w workload) (res *runResult, err error) {
	var tr *tracer
	window := e.seconds
	if e.trace {
		tr = newTracer()
		window /= 2
	}
	e.tr = tr
	s, err := w.open(e)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()

	rssProbe, err := startPeakRSS(s.pid(), window/rssSlices)
	if err != nil {
		return nil, err
	}
	a, dA, err := timedWindow(s, window, nil)
	rss, rerr := rssProbe.finish()
	if err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	var b *meter
	var dB delta
	if e.trace {
		if b, dB, err = timedWindow(s, window, tr); err != nil {
			return nil, err
		}
	}
	a.verify()
	res = &runResult{
		e2e:       endToEnd(s.setups(), rss, a, s.sequential()),
		attempted: a.attempted,
		failed:    a.failed,
		wrong:     a.notes,
	}
	res.report = report(e, s, a, dA, res.e2e)
	if e.trace {
		b.verify()
		res.attempted += b.attempted
		res.failed += b.failed
		res.wrong = append(res.wrong, b.notes...)
		l := layers(b, dB, tr)
		overhead(l, res.e2e, endToEnd(s.setups(), rss, b, s.sequential()))
		if err := s.replay(l); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		res.layer = l.metrics()
		path := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		res.report["spans_file"] = path
		res.report["per_layer"] = res.layer
	}
	return res, nil
}

// timedWindow runs one window between two telemetry snapshots.
func timedWindow(s session, d time.Duration, tr *tracer) (*meter, delta, error) {
	before, err := s.counters()
	if err != nil {
		return nil, delta{}, err
	}
	m, err := s.window(d, tr)
	if err != nil {
		return nil, delta{}, err
	}
	after, err := s.counters()
	if err != nil {
		return nil, delta{}, err
	}
	return m, delta{before, after}, nil
}

// endToEnd derives the gated metrics from one untraced window.
func endToEnd(setups []time.Duration, rssMB float64, m *meter, sequential bool) map[string]metric {
	opsPerS, cellsPerS := m.rates(sequential)
	lat := m.latencies()
	return map[string]metric{
		"setup_s":     {median(setups).Seconds(), "s"},
		"peak_rss_mb": {rssMB, "MB"},
		"req_per_s":   {opsPerS, "1/s"},
		"p50_ms":      {percentileMs(lat, 50), "ms"},
		"p99_ms":      {percentileMs(lat, 99), "ms"},
		"cells_per_s": {cellsPerS, "cells/s"},
	}
}

// delta is the change in the program's telemetry across a window.
type delta struct{ before, after fabp.MetricsSnapshot }

func (d delta) counter(name string) float64 {
	return float64(d.after.Counters[name]) - float64(d.before.Counters[name])
}

// sumNs and count read a latency histogram's change.
func (d delta) sumNs(name string) float64 {
	return float64(d.after.Latencies[name].SumNs - d.before.Latencies[name].SumNs)
}

func (d delta) count(name string) float64 {
	return float64(d.after.Latencies[name].Count) - float64(d.before.Latencies[name].Count)
}

// meanMs is a histogram's mean observation over the window, in ms.
func (d delta) meanMs(name string) float64 {
	return ratio(d.sumNs(name), d.count(name)) / 1e6
}

// shares are the measured input properties a later "helps only inputs
// with property X" claim can cite.
func shares(m *meter, d delta) map[string]float64 {
	out := map[string]float64{
		"plane_hit":       ratio(d.counter("cache.hits"), d.counter("cache.hits")+d.counter("cache.misses")),
		"shards_per_scan": ratio(d.counter("scan.shards.run"), float64(m.totals().scan)),
		"scalar_scans":    ratio(d.counter("align.kernel.scalar"), d.counter("align.kernel.scalar")+d.counter("align.kernel.bitparallel")),
	}
	for kind, k := range m.byKind() {
		out[kind+"_cache_hit"] = ratio(float64(k.cached), float64(k.n))
	}
	return out
}

// report is the run's unguarded detail: per-kind metrics, input
// property shares and the paper-unit yardstick.
func report(e *env, s session, m *meter, d delta, e2e map[string]metric) map[string]any {
	kinds := map[string]any{}
	for kind, k := range m.byKind() {
		sec := k.busy.Seconds()
		kinds[kind] = map[string]any{
			"calls":       k.n,
			"p50_ms":      k.p50,
			"p99_ms":      k.p99,
			"cells_per_s": ratio(k.cells, sec),
			"nt_per_s":    ratio(k.nt, sec),
			"cache_hits":  k.cached,
		}
	}
	setups := make([]float64, 0, len(s.setups()))
	for _, t := range s.setups() {
		setups = append(setups, t.Seconds())
	}
	return map[string]any{
		"workload":      e.workload,
		"seed":          e.seed,
		"gomaxprocs":    procs(),
		"window_s":      m.wall.Seconds(),
		"ops":           len(m.ops),
		"calls":         m.attempted,
		"oracle_checks": len(m.samples),
		"setup_runs_s":  setups,
		"end_to_end":    e2e,
		"by_kind":       kinds,
		"named":         namedMetrics(e.workload, m),
		"shares":        shares(m, d),
		"yardstick":     yardstick(m),
		"failed_checks": m.failed,
		"failure_notes": m.notes,
	}
}

// namedMetrics are the per-operation-kind metrics of each workload:
// latency per route on the server, cells/s or nt/s per call kind on the
// library workloads.
func namedMetrics(workload string, m *meter) map[string]metric {
	k := m.byKind()
	rate := func(kind string, nt bool) float64 {
		s := k[kind]
		if s == nil {
			return 0
		}
		if nt {
			return ratio(s.nt, s.busy.Seconds())
		}
		return ratio(s.cells, s.busy.Seconds())
	}
	p50 := func(kind string) float64 {
		if s := k[kind]; s != nil {
			return s.p50
		}
		return 0
	}
	switch workload {
	case "serve_mixed":
		return map[string]metric{
			"align_p50_ms":  {p50("align"), "ms"},
			"batch_p50_ms":  {p50("batch"), "ms"},
			"search_p50_ms": {p50("search"), "ms"},
			"stream_p50_ms": {p50("stream"), "ms"},
		}
	case "db_scan":
		return map[string]metric{
			"single_cells_per_s": {rate("single", false), "cells/s"},
			"batch_cells_per_s":  {rate("batch", false), "cells/s"},
		}
	case "fresh_targets":
		return map[string]metric{
			"stream_cells_per_s": {rate("stream", false), "cells/s"},
			"contig_cells_per_s": {rate("contig", false), "cells/s"},
		}
	case "protein_search":
		return map[string]metric{"search_nt_per_s": {rate("search", true), "nt/s"}}
	}
	return nil
}

// overhead records what tracing cost: the traced window's end-to-end
// numbers against the untraced window's.
func overhead(l layerValues, untraced, traced map[string]metric) {
	u, t := untraced["req_per_s"].Value, traced["req_per_s"].Value
	l["trace.overhead_req_per_s_frac"] = ratio(u-t, u)
	u, t = untraced["p50_ms"].Value, traced["p50_ms"].Value
	l["trace.overhead_p50_frac"] = ratio(t-u, u)
}

// probeReady is the line a set-up probe prints once its first operation
// could run.
const probeReady = "ready"

// setupRuns is how many times a run measures its set-up.
const setupRuns = 15

// timeStartup starts setupRuns processes from newCmd one after another
// and times each from start until it prints a line containing marker.
// Every process but the last is stopped with sig (nil: it exits by
// itself); the last is returned running, with its marker line.
func timeStartup(newCmd func() *exec.Cmd, marker string, sig os.Signal) (times []time.Duration, last *process, line string, err error) {
	for i := 0; i < setupRuns; i++ {
		p, l, d, err := startProcess(newCmd(), marker)
		if err != nil {
			return nil, nil, "", err
		}
		times = append(times, d)
		if i == setupRuns-1 {
			return times, p, l, nil
		}
		if err := p.stop(sig); err != nil {
			return nil, nil, "", err
		}
	}
	return nil, nil, "", fmt.Errorf("no set-up runs")
}

// probeSetups times setupRuns set-up probes of the workload: fresh
// processes of this program that each perform the workload's set-up on
// the generated inputs and report when their first operation could run.
func probeSetups(e *env) ([]time.Duration, error) {
	times, p, _, err := timeStartup(func() *exec.Cmd {
		return exec.Command(e.self, "-workload", e.workload, "-setup-probe", e.work)
	}, probeReady, nil)
	if err != nil {
		return nil, err
	}
	return times, p.stop(nil)
}

// rssSlices is how many slices a window's peak resident set is taken in.
const rssSlices = 10

// peakRSS samples a process's resident-set high-water mark (VmHWM) slice
// by slice: it resets the mark, reads it a slice later, and so on. The
// median slice peak is steadier than one peak over the whole window, and
// the start-up peak is measured by setup_s, not here.
type peakRSS struct {
	pid   string
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

func startPeakRSS(pid string, slice time.Duration) (*peakRSS, error) {
	p := &peakRSS{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	if err := resetHWM(pid); err != nil {
		return nil, err
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(slice)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			mb, err := vmHWM(pid)
			if err == nil {
				err = resetHWM(pid)
			}
			if err != nil {
				p.err = err
				return
			}
			p.peaks = append(p.peaks, mb)
		}
	}()
	return p, nil
}

// finish stops sampling and returns the median slice peak in MB.
func (p *peakRSS) finish() (float64, error) {
	close(p.stop)
	<-p.done
	if p.err != nil {
		return 0, p.err
	}
	if len(p.peaks) == 0 {
		mb, err := vmHWM(p.pid)
		return mb, err
	}
	sort.Float64s(p.peaks)
	return p.peaks[len(p.peaks)/2], nil
}

// resetHWM resets a process's VmHWM to its current resident set.
func resetHWM(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

// vmHWM reads a process's peak resident set size in MB.
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
