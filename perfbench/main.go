// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time against the library's public API or a spawned
// fabp-serve, checks the output of every operation, and prints one JSON
// result line: the end-to-end metrics when untraced, the per-layer
// metrics when traced. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md in this directory defines each one.
//
// Build and run from the repository root with
//
//	bash perfbench/run.sh --workload db_scan --seed 1 --seconds 15 --trace 0
//
// which builds this program and fabp-serve under .bench_build first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one input set the benchmark can run.
type workload struct {
	// open generates the inputs from the seed, performs the timed set-up
	// and returns a session ready for its first operation.
	open func(e *env) (session, error)
	// probe is the set-up a freshly started process performs before its
	// first operation; setup_s times a child process running it.
	probe func(dir string) error
}

var workloads = map[string]workload{
	"serve_mixed":    {open: openServeMixed},
	"db_scan":        {open: openDBScan, probe: probeDBScan},
	"fresh_targets":  {open: openFreshTargets, probe: probeFreshTargets},
	"protein_search": {open: openProteinSearch, probe: probeProteinSearch},
}

// env is one run's configuration.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// work holds this run's generated input files; out keeps the span and
	// report files after the run.
	work, out string
	serveBin  string
	self      string
	// tr records spans in a traced run (nil otherwise).
	tr *tracer
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: serve_mixed, db_scan, fresh_targets or protein_search")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of one measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs a traced window after the untraced one and prints per-layer metrics")
	serveBin := flag.String("serve-bin", "", "fabp-serve binary (serve_mixed only)")
	workDir := flag.String("work", ".bench_build/work", "directory for generated inputs and output files")
	probeDir := flag.String("setup-probe", "", "internal: perform the workload's set-up on the inputs in this directory and exit")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *probeDir != "" {
		if w.probe == nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s has no set-up probe\n", *name)
			return 2
		}
		if err := w.probe(*probeDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up probe: %v\n", err)
			return 1
		}
		fmt.Println(probeReady)
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		return 2
	}
	defs, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := filepath.Abs(filepath.Join(*workDir, "out"))
	if err == nil {
		err = os.MkdirAll(out, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(filepath.Dir(out), fmt.Sprintf("%s-seed%d-", *name, *seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		work:     work,
		out:      out,
		serveBin: *serveBin,
		self:     self,
	}
	res, err := measure(e, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := defs.EndToEnd
	got := res.e2e
	if e.trace {
		want, got = defs.PerLayer, res.layer
	}
	metrics, err := declaredMetrics(want, got)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, msg := range res.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", msg)
	}
	report, err := json.Marshal(map[string]any{"report": res.report})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	reportPath := filepath.Join(out, fmt.Sprintf("report-%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := os.WriteFile(reportPath, append(report, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(report))
	fmt.Println(string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared is the slice of BENCHMARK.json this program must honour.
type declared struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// declaredMetrics checks that the run produced exactly the declared metric
// names, in the declared units, and returns them.
func declaredMetrics(want []metricDecl, got map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	var problems []string
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			problems = append(problems, d.Name+" not measured")
		case m.Unit != d.Unit:
			problems = append(problems, fmt.Sprintf("%s measured in %s, declared in %s", d.Name, m.Unit, d.Unit))
		default:
			out[d.Name] = m
		}
	}
	for name := range got {
		if _, ok := out[name]; !ok && !declaredName(want, name) {
			problems = append(problems, name+" measured but not declared")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return nil, errors.New("metrics disagree with BENCHMARK.json: " + strings.Join(problems, "; "))
	}
	return out, nil
}

func declaredName(want []metricDecl, name string) bool {
	for _, d := range want {
		if d.Name == name {
			return true
		}
	}
	return false
}

// procs is the parallelism every workload runs at: GOMAXPROCS, which
// defaults to the CPUs this process may use (nproc).
func procs() int { return runtime.GOMAXPROCS(0) }
