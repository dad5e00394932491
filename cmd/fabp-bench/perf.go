package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fabp"
)

// perfReport is one point on the bench trajectory: BENCH_<date>.json files
// accumulate in a checkout (or an artifact store) so throughput regressions
// show up as a broken time series rather than a vibe.
type perfReport struct {
	Date       string    `json:"date"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	RefLen     int       `json:"ref_len"`
	Queries    int       `json:"queries"`
	Reps       int       `json:"reps"`
	Runs       []perfRun `json:"runs"`
	// Batch is the -batch width (0 when the batch runs were skipped);
	// BatchSpeedup is batch_per_query ns/op over batch_fused ns/op — the
	// fused kernel's measured gain from scanning each reference tile once
	// for the whole batch.
	Batch        int     `json:"batch,omitempty"`
	BatchSpeedup float64 `json:"batch_speedup,omitempty"`
	// StreamSpeedup is stream_batch_per_query ns/op over stream_batch_fused
	// ns/op — the fused streaming path's measured gain from reading and
	// packing each chunk once for the whole batch instead of once per query.
	StreamSpeedup float64 `json:"stream_speedup,omitempty"`
	// LoadColdNs/LoadWarmNs time one full database load to scan-ready
	// planes: cold from a v1 file (packs in-process), warm from a v2 file
	// (persisted planes, zero packing). LoadWarmSpeedup is their ratio —
	// the measured value of the v2 plane section.
	LoadColdNs      float64 `json:"load_cold_ns,omitempty"`
	LoadWarmNs      float64 `json:"load_warm_ns,omitempty"`
	LoadWarmSpeedup float64 `json:"load_warm_speedup,omitempty"`
	// SearchSpeedup is search_serial ns/op over search_sharded ns/op —
	// the frame-parallel protein scan's measured thread-scaling gain at
	// GOMAXPROCS workers (results are byte-identical by construction, so
	// this is pure wall-clock).
	SearchSpeedup float64 `json:"search_speedup,omitempty"`
	// CacheColdNs/CacheHitNs time one Scan through the unified API with
	// the result cache armed: cold flushes the cache first so the scan
	// runs and seeds an entry, hit re-issues the identical request and is
	// served without scanning. CacheHitSpeedup is their ratio — the
	// measured value of the content-addressed result cache (the serving
	// acceptance bar is ≥10×).
	CacheColdNs     float64           `json:"cache_cold_ns,omitempty"`
	CacheHitNs      float64           `json:"cache_hit_ns,omitempty"`
	CacheHitSpeedup float64           `json:"cache_hit_speedup,omitempty"`
	CacheHitRate    float64           `json:"cache_hit_rate"`
	Counters        map[string]uint64 `json:"counters"`
}

// perfRun is one measured configuration.
type perfRun struct {
	Name       string  `json:"name"`
	Ops        int     `json:"ops"`
	Hits       int     `json:"hits"`
	NsPerOp    float64 `json:"ns_per_op"`
	HitsPerSec float64 `json:"hits_per_sec"`
}

// runPerf measures database-scan throughput on a synthetic workload and
// writes BENCH_<date>.json into outDir. scale multiplies the 100 kb base
// reference; scale 1 keeps the run CI-cheap (a few seconds). batchN > 0
// adds the batch_fused / batch_per_query pair: the same batchN queries
// scanned through the fused batch kernel versus the per-query loop, with
// the speedup recorded in the report. cacheOn adds the scan_cache_cold /
// scan_cache_hit pair through the unified Scan API.
func runPerf(outDir string, scale, batchN int, cacheOn bool) {
	if scale < 1 {
		scale = 1
	}
	refLen := 100_000 * scale
	const nQueries, reps = 4, 3

	nGenes := nQueries
	if batchN > nGenes {
		nGenes = batchN
	}
	ref, genes := fabp.SyntheticReference(42, refLen, nGenes, 60)
	refStr := ref.String() // the letter stream the chunked-reader rows scan
	dbase, err := fabp.DatabaseFromReference("perf", ref)
	if err != nil {
		log.Fatal(err)
	}
	aligners := make([]*fabp.Aligner, nQueries)
	for i, g := range genes[:nQueries] {
		q, err := fabp.NewQuery(g.Protein)
		if err != nil {
			log.Fatal(err)
		}
		aligners[i], err = fabp.NewAligner(q, fabp.WithThresholdFraction(0.85))
		if err != nil {
			log.Fatal(err)
		}
	}

	m := fabp.DefaultMetrics()
	m.Reset()
	ctx := context.Background()
	// Warm the plane cache outside the clock.
	if _, err := aligners[0].AlignDatabaseContext(ctx, dbase); err != nil {
		log.Fatal(err)
	}

	report := perfReport{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		RefLen:     refLen,
		Queries:    nQueries,
		Reps:       reps,
		Batch:      batchN,
	}
	type benchCfg struct {
		name string
		ops  int
		scan func() int
	}
	configs := []benchCfg{
		{"align_database", nQueries * reps, func() int {
			hits := 0
			for _, a := range aligners {
				rh, err := a.AlignDatabaseContext(ctx, dbase)
				if err != nil {
					log.Fatal(err)
				}
				hits += len(rh)
			}
			return hits
		}},
		{"align_database_stream", nQueries * reps, func() int {
			hits := 0
			for _, a := range aligners {
				if err := a.AlignDatabaseStreamContext(ctx, dbase, func(fabp.RecordHit) error {
					hits++
					return nil
				}); err != nil {
					log.Fatal(err)
				}
			}
			return hits
		}},
		// The chunked-reader path: the stream is decoded and packed chunk by
		// chunk through the pooled plane builder — the row that moves when
		// the streaming data path changes (and the one that populates the
		// stream.* counters below).
		{"align_stream", nQueries * reps, func() int {
			hits := 0
			for _, a := range aligners {
				if err := a.AlignStreamContext(ctx, strings.NewReader(refStr), func(fabp.Hit) error {
					hits++
					return nil
				}); err != nil {
					log.Fatal(err)
				}
			}
			return hits
		}},
	}
	if batchN > 0 {
		batchQs := make([]*fabp.Query, batchN)
		for i, g := range genes[:batchN] {
			q, err := fabp.NewQuery(g.Protein)
			if err != nil {
				log.Fatal(err)
			}
			batchQs[i] = q
		}
		countBatch := func(res [][]fabp.Hit, err error) int {
			if err != nil {
				log.Fatal(err)
			}
			hits := 0
			for _, h := range res {
				hits += len(h)
			}
			return hits
		}
		// Warm the reference's plane-cache entry outside the clock (the
		// database warm-up above keyed on the database, not the reference).
		countBatch(fabp.AlignBatch(batchQs, ref, 0.85))
		batchAligners := make([]*fabp.Aligner, batchN)
		for i, q := range batchQs {
			batchAligners[i], err = fabp.NewAligner(q, fabp.WithThresholdFraction(0.85))
			if err != nil {
				log.Fatal(err)
			}
		}
		configs = append(configs,
			// The unfused baseline: K independent uncached Scan calls, each
			// a full pass over the reference's planes.
			benchCfg{"batch_per_query", batchN * reps, func() int {
				hits := 0
				for _, q := range batchQs {
					res, err := fabp.Scan(ctx, fabp.ScanRequest{
						Query: q, Reference: ref, ThresholdFrac: 0.85, NoCache: true})
					if err != nil {
						log.Fatal(err)
					}
					hits += len(res.Hits)
				}
				return hits
			}},
			benchCfg{"batch_fused", batchN * reps, func() int {
				return countBatch(fabp.AlignBatch(batchQs, ref, 0.85))
			}},
			// Streaming batch pair: K independent streams (each query reads,
			// decodes and packs the whole stream itself) versus one fused
			// stream whose chunks are packed once and scanned for all K.
			benchCfg{"stream_batch_per_query", batchN * reps, func() int {
				hits := 0
				for _, a := range batchAligners {
					if err := a.AlignStreamContext(ctx, strings.NewReader(refStr), func(fabp.Hit) error {
						hits++
						return nil
					}); err != nil {
						log.Fatal(err)
					}
				}
				return hits
			}},
			benchCfg{"stream_batch_fused", batchN * reps, func() int {
				hits := 0
				if err := fabp.AlignBatchStream(batchQs, strings.NewReader(refStr), 0.85,
					func(int, fabp.Hit) error {
						hits++
						return nil
					}); err != nil {
					log.Fatal(err)
				}
				return hits
			}},
		)
	}

	// Protein-search pair: the TBLASTN-style pipeline over the same
	// reference, serial versus frame-parallel at GOMAXPROCS workers. These
	// run before the cache rows so the result cache is still disabled and
	// every op is a real scan.
	{
		sq, err := fabp.NewQuery(genes[0].Protein)
		if err != nil {
			log.Fatal(err)
		}
		searchOnce := func(threads int) int {
			hsps, err := fabp.SearchProtein(sq, ref, fabp.ProteinSearchOptions{
				Threads: threads, TwoHit: true,
			})
			if err != nil {
				log.Fatal(err)
			}
			return len(hsps)
		}
		// Floor at 2 so the sharded row always runs frames on several
		// workers, even on a single-CPU runner (there the ratio reads as
		// pool overhead rather than speedup).
		threads := runtime.GOMAXPROCS(0)
		if threads < 2 {
			threads = 2
		}
		configs = append(configs,
			benchCfg{"search_serial", reps, func() int { return searchOnce(1) }},
			benchCfg{"search_sharded", reps, func() int { return searchOnce(threads) }},
		)
	}

	// Cold vs hit through the result cache: the same Scan request issued
	// with the cache flushed (the scan runs and seeds) versus already
	// seeded (served from the cache, no scan). Hits are microseconds, so
	// they get extra inner iterations to stay measurable.
	if cacheOn {
		// The cache is armed only inside scan_cache_cold's closure (below),
		// never at setup time — arming it here would let the rows above be
		// served from the result cache and measure map lookups, not scans.
		const cacheCap = 64 << 20
		defer fabp.SetScanCacheCapacity(0)
		cq, err := fabp.NewQuery(genes[0].Protein)
		if err != nil {
			log.Fatal(err)
		}
		creq := fabp.ScanRequest{Query: cq, Database: dbase, ThresholdFrac: 0.85}
		scanOnce := func() int {
			res, err := fabp.Scan(context.Background(), creq)
			if err != nil {
				log.Fatal(err)
			}
			return len(res.RecordHits)
		}
		const hitIters = 200
		configs = append(configs,
			benchCfg{"scan_cache_cold", reps, func() int {
				// Dropping the capacity to zero empties the cache, so the
				// scan below is a genuine miss that reseeds it.
				fabp.SetScanCacheCapacity(0)
				fabp.SetScanCacheCapacity(cacheCap)
				return scanOnce()
			}},
			benchCfg{"scan_cache_hit", reps * hitIters, func() int {
				hits := 0
				for i := 0; i < hitIters; i++ {
					hits += scanOnce()
				}
				return hits
			}},
		)
	}

	// Cold vs warm load: identical content through the legacy (v1) format,
	// which forces in-process packing, versus the v2 format whose
	// persisted plane section loads straight into the cache. Each rep
	// evicts first so both paths start from nothing resident; the timed
	// region is load → scan-ready planes. These run last so the eviction
	// churn cannot disturb the scan configurations above.
	var v1bytes, v2bytes bytes.Buffer
	if err := dbase.SaveDatabaseLegacy(&v1bytes); err != nil {
		log.Fatal(err)
	}
	if err := dbase.SaveDatabase(&v2bytes); err != nil {
		log.Fatal(err)
	}
	loadAndWarm := func(data []byte) {
		dbase.EvictPlanes() // same digest: drops residency for any load of this content
		d, err := fabp.LoadDatabase(bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		d.WarmPlanes()
	}
	configs = append(configs,
		benchCfg{"load_cold_v1", reps, func() int { loadAndWarm(v1bytes.Bytes()); return 0 }},
		benchCfg{"load_warm_v2", reps, func() int { loadAndWarm(v2bytes.Bytes()); return 0 }},
	)

	nsPerOp := map[string]float64{}
	for _, cfg := range configs {
		hits := 0
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			hits += cfg.scan()
		}
		elapsed := time.Since(t0)
		run := perfRun{
			Name:    cfg.name,
			Ops:     cfg.ops,
			Hits:    hits,
			NsPerOp: float64(elapsed.Nanoseconds()) / float64(cfg.ops),
		}
		if secs := elapsed.Seconds(); secs > 0 {
			run.HitsPerSec = float64(hits) / secs
		}
		nsPerOp[cfg.name] = run.NsPerOp
		report.Runs = append(report.Runs, run)
		fmt.Printf("%-22s %8d ops  %12.0f ns/op  %10.0f hits/s\n",
			cfg.name, run.Ops, run.NsPerOp, run.HitsPerSec)
	}
	if batchN > 0 && nsPerOp["batch_fused"] > 0 {
		report.BatchSpeedup = nsPerOp["batch_per_query"] / nsPerOp["batch_fused"]
		fmt.Printf("batch %d fused speedup ×%.2f over per-query\n", batchN, report.BatchSpeedup)
	}
	if batchN > 0 && nsPerOp["stream_batch_fused"] > 0 {
		report.StreamSpeedup = nsPerOp["stream_batch_per_query"] / nsPerOp["stream_batch_fused"]
		fmt.Printf("stream batch %d fused speedup ×%.2f over per-query streams\n", batchN, report.StreamSpeedup)
	}
	if s, p := nsPerOp["search_serial"], nsPerOp["search_sharded"]; s > 0 && p > 0 {
		report.SearchSpeedup = s / p
		fmt.Printf("sharded protein search speedup ×%.2f over serial\n", report.SearchSpeedup)
	}
	if c, h := nsPerOp["scan_cache_cold"], nsPerOp["scan_cache_hit"]; c > 0 && h > 0 {
		report.CacheColdNs, report.CacheHitNs = c, h
		report.CacheHitSpeedup = c / h
		fmt.Printf("cached-hit scan speedup ×%.2f over cold scan\n", report.CacheHitSpeedup)
	}
	if c, w := nsPerOp["load_cold_v1"], nsPerOp["load_warm_v2"]; c > 0 && w > 0 {
		report.LoadColdNs, report.LoadWarmNs = c, w
		report.LoadWarmSpeedup = c / w
		fmt.Printf("warm (v2) load speedup ×%.2f over cold (v1) load\n", report.LoadWarmSpeedup)
	}

	snap := m.Snapshot()
	report.CacheHitRate = snap.CacheHitRate()
	report.Counters = snap.Counters

	path := filepath.Join(outDir, "BENCH_"+report.Date+".json")
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache hit rate %.2f; wrote %s\n", report.CacheHitRate, path)
}

// regressionWarnFrac is the warn-only slowdown threshold for comparePerf:
// a run more than this fraction slower than the baseline gets a WARN line.
const regressionWarnFrac = 0.25

// comparePerf prints a benchstat-style table of two -perf reports matched
// by run name and warns on regressions past regressionWarnFrac. It never
// fails the process — bench numbers on shared CI runners are advisory, so
// the contract is warn-only; a real regression shows up as a WARN line in
// the log, not a red build.
func comparePerf(oldPath, newPath string) {
	readReport := func(path string) perfReport {
		b, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		var r perfReport
		if err := json.Unmarshal(b, &r); err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		return r
	}
	oldR, newR := readReport(oldPath), readReport(newPath)
	oldRuns := map[string]perfRun{}
	for _, r := range oldR.Runs {
		oldRuns[r.Name] = r
	}
	fmt.Printf("%-22s %14s %14s %9s\n", "name", "old ns/op", "new ns/op", "delta")
	warns := 0
	for _, nr := range newR.Runs {
		or, ok := oldRuns[nr.Name]
		if !ok || or.NsPerOp <= 0 {
			fmt.Printf("%-22s %14s %14.0f %9s\n", nr.Name, "-", nr.NsPerOp, "new")
			continue
		}
		delta := nr.NsPerOp/or.NsPerOp - 1
		fmt.Printf("%-22s %14.0f %14.0f %+8.1f%%\n", nr.Name, or.NsPerOp, nr.NsPerOp, delta*100)
		if delta > regressionWarnFrac {
			warns++
			fmt.Printf("WARN: %s regressed %.1f%% (ns/op %0.f → %0.f, threshold %.0f%%)\n",
				nr.Name, delta*100, or.NsPerOp, nr.NsPerOp, regressionWarnFrac*100)
		}
	}
	if oldR.BatchSpeedup > 0 && newR.BatchSpeedup > 0 {
		fmt.Printf("batch speedup: ×%.2f → ×%.2f\n", oldR.BatchSpeedup, newR.BatchSpeedup)
	}
	if oldR.StreamSpeedup > 0 && newR.StreamSpeedup > 0 {
		fmt.Printf("stream speedup: ×%.2f → ×%.2f\n", oldR.StreamSpeedup, newR.StreamSpeedup)
	}
	if oldR.SearchSpeedup > 0 && newR.SearchSpeedup > 0 {
		fmt.Printf("protein search speedup: ×%.2f → ×%.2f\n", oldR.SearchSpeedup, newR.SearchSpeedup)
	}
	if oldR.CacheHitSpeedup > 0 && newR.CacheHitSpeedup > 0 {
		fmt.Printf("cache hit speedup: ×%.2f → ×%.2f\n", oldR.CacheHitSpeedup, newR.CacheHitSpeedup)
	}
	if warns == 0 {
		fmt.Println("no regressions past the warn threshold")
	}
}
