package fabp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fabp/internal/sched"
)

// enableScanCache turns the result cache on for one test and restores the
// disabled default (dropping every entry) afterward.
func enableScanCache(t *testing.T, capBytes int64) {
	t.Helper()
	SetScanCacheCapacity(capBytes)
	t.Cleanup(func() { SetScanCacheCapacity(0) })
}

// TestScanRequestValidation walks the request surface field by field:
// every invalid shape must fail with an error that names the offending
// field and matches the right taxonomy head via errors.Is.
func TestScanRequestValidation(t *testing.T) {
	ref, genes := SyntheticReference(3, 10_000, 1, 20)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	db, err := DatabaseFromReference("synt", ref)
	if err != nil {
		t.Fatal(err)
	}
	valid := ScanRequest{Query: q, Reference: ref}
	emit := func(int, Hit) error { return nil }
	stream := func() *strings.Reader { return strings.NewReader(ref.String()) }

	cases := []struct {
		name string
		req  ScanRequest
		want error  // taxonomy head for errors.Is
		frag string // substring naming the field
	}{
		{"nil query", ScanRequest{Reference: ref}, ErrBadQuery, "ScanRequest.Query"},
		{"no target", ScanRequest{Query: q}, ErrBadOption, "exactly one target"},
		{"both targets", ScanRequest{Query: q, Reference: ref, Database: db}, ErrBadOption, "exactly one target"},
		{"unknown kernel", ScanRequest{Query: q, Reference: ref, Kernel: Kernel(42)}, ErrBadOption, "ScanRequest.Kernel"},
		{"negative shard len", ScanRequest{Query: q, Reference: ref, ShardLen: -1}, ErrBadOption, "ScanRequest.ShardLen"},
		{"negative max hits", ScanRequest{Query: q, Reference: ref, MaxHits: -5}, ErrBadOption, "ScanRequest.MaxHits"},
		{"threshold conflict", ScanRequest{Query: q, Reference: ref, Threshold: ptrInt(10), ThresholdFrac: 0.5}, ErrBadOption, "conflict"},
		{"threshold too high", ScanRequest{Query: q, Reference: ref, Threshold: ptrInt(q.MaxScore() + 1)}, ErrBadOption, "ScanRequest.Threshold"},
		{"negative threshold", ScanRequest{Query: q, Reference: ref, Threshold: ptrInt(-1)}, ErrBadOption, "ScanRequest.Threshold"},
		{"fraction above one", ScanRequest{Query: q, Reference: ref, ThresholdFrac: 1.5}, ErrBadOption, "ScanRequest.ThresholdFrac"},
		{"negative fraction", ScanRequest{Query: q, Reference: ref, ThresholdFrac: -0.2}, ErrBadOption, "ScanRequest.ThresholdFrac"},
		{"bad retry policy", ScanRequest{Query: q, Reference: ref, RetryPolicy: RetryPolicy{MaxRetries: -1}}, ErrBadOption, "MaxRetries"},
		{"query and queries", ScanRequest{Query: q, Queries: []*Query{q}, Reference: ref}, ErrBadOption, "ScanRequest.Queries"},
		{"empty queries", ScanRequest{Queries: []*Query{}, Reference: ref}, ErrBadQuery, "ScanRequest.Query"},
		{"nil batch entry", ScanRequest{Queries: []*Query{q, nil}, Reference: ref}, ErrBadQuery, "index 1"},
		{"batch absolute threshold", ScanRequest{Queries: []*Query{q, q}, Reference: ref, Threshold: ptrInt(5)}, ErrBadOption, "ScanRequest.Threshold"},
		{"batch scalar kernel", ScanRequest{Queries: []*Query{q, q}, Reference: ref, Kernel: KernelScalar}, ErrBadOption, "KernelScalar"},
		{"one-query batch scalar kernel", ScanRequest{Queries: []*Query{q}, Reference: ref, Kernel: KernelScalar}, ErrBadOption, "KernelScalar"},
		{"stream scalar kernel", ScanRequest{Query: q, Stream: stream(), Emit: emit, Kernel: KernelScalar}, ErrBadOption, "KernelScalar"},
		{"stream partial", ScanRequest{Query: q, Stream: stream(), Emit: emit, Partial: true}, ErrBadOption, "ScanRequest.Partial"},
		{"emit without stream", ScanRequest{Query: q, Reference: ref, Emit: emit}, ErrBadOption, "ScanRequest.Emit"},
		{"stream without emit", ScanRequest{Query: q, Stream: stream()}, ErrBadOption, "ScanRequest.Emit"},
		{"stream and reference", ScanRequest{Query: q, Reference: ref, Stream: stream(), Emit: emit}, ErrBadOption, "exactly one target"},
		{"protein batch", ScanRequest{Queries: []*Query{q}, Reference: ref, ProteinSearch: &ProteinSearchOptions{}}, ErrBadOption, "ScanRequest.ProteinSearch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Scan(context.Background(), tc.req)
			if err == nil {
				t.Fatal("invalid request accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, not errors.Is(%v)", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not name the field (%q)", err, tc.frag)
			}
			// Invalid requests never hit the cache probe either.
			if _, ok := CachedScan(tc.req); ok {
				t.Error("CachedScan returned a result for an invalid request")
			}
		})
	}

	if _, err := Scan(context.Background(), valid); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func ptrInt(v int) *int { return &v }

// TestScanMatchesLegacy pins the wrapper contract: Scan and the legacy
// Align*/AlignDatabase* entrypoints are one spine, so their hits are
// identical for every kernel and both target shapes — and every kernel
// matches the KernelScalar oracle. Target lengths straddle the query
// length and the old 64 Ki-nt auto crossover, and each Scan runs under
// both a background and a cancelable context.
func TestScanMatchesLegacy(t *testing.T) {
	full, genes := SyntheticReference(11, 70_000, 2, 25)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	lq := q.Elements()
	for _, n := range []int{lq - 1, lq, lq + 63, 64<<10 - 1, 64 << 10, 64<<10 + 1} {
		ref := &Reference{seq: full.seq[:n]}
		db, err := DatabaseFromReference("synt", ref)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := Scan(context.Background(), ScanRequest{Query: q, Reference: ref, Kernel: KernelScalar})
		if err != nil {
			t.Fatal(err)
		}
		oracleDB, err := Scan(context.Background(), ScanRequest{Query: q, Database: db, Kernel: KernelScalar})
		if err != nil {
			t.Fatal(err)
		}
		if n >= 64<<10 && len(oracle.Hits) == 0 {
			t.Fatalf("len %d: oracle found no hits; test is vacuous", n)
		}
		for _, kernel := range []Kernel{KernelAuto, KernelScalar, KernelBitParallel} {
			a, err := NewAligner(q, WithKernelType(kernel))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("len %d %v", n, kernel)
			assertHitsEqual(t, label+" Align", oracle.Hits, mustAlign(t, a, ref))
			assertRecordHitsEqual(t, label+" AlignDatabase", oracleDB.RecordHits, mustAlignDatabase(t, a, db))

			for _, cancelable := range []bool{false, true} {
				ctx := context.Background()
				if cancelable {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					defer cancel()
				}
				res, err := Scan(ctx, ScanRequest{Query: q, Reference: ref, Kernel: kernel})
				if err != nil {
					t.Fatalf("%s reference scan: %v", label, err)
				}
				if res.Threshold != a.Threshold() {
					t.Errorf("%s: Scan threshold %d, legacy %d", label, res.Threshold, a.Threshold())
				}
				assertHitsEqual(t, label+" Scan(Reference)", oracle.Hits, res.Hits)
				dres, err := Scan(ctx, ScanRequest{Query: q, Database: db, Kernel: kernel})
				if err != nil {
					t.Fatalf("%s database scan: %v", label, err)
				}
				assertRecordHitsEqual(t, label+" Scan(Database)", oracleDB.RecordHits, dres.RecordHits)
			}
		}
	}
}

// TestScanMaxHitsTruncation: MaxHits clips per request while the cache
// keeps complete results, so a capped request never poisons a later
// uncapped one.
func TestScanMaxHitsTruncation(t *testing.T) {
	enableScanCache(t, 8<<20)
	ref, genes := SyntheticReference(17, 30_000, 3, 20)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	req := ScanRequest{Query: q, Reference: ref, ThresholdFrac: 0.5}

	full, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Hits) < 2 {
		t.Skipf("only %d hits at this threshold; truncation needs 2+", len(full.Hits))
	}

	capped := req
	capped.MaxHits = 1
	res, err := Scan(context.Background(), capped)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || !res.Truncated {
		t.Fatalf("capped scan: %d hits truncated=%v, want 1/true", len(res.Hits), res.Truncated)
	}
	if res.Cache != CacheHit {
		t.Errorf("capped repeat came back %q, want %q", res.Cache, CacheHit)
	}

	// The cache still holds the complete result.
	again, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Hits) != len(full.Hits) || again.Truncated {
		t.Fatalf("uncapped repeat: %d hits truncated=%v, want %d/false", len(again.Hits), again.Truncated, len(full.Hits))
	}
}

// TestScanStormCollapses is the acceptance storm: 100 goroutines issue the
// identical request concurrently, and the process-wide counters must
// prove exactly ONE scan ran — align.queries.started advances by one, the
// cache counts one miss, and every caller gets hits byte-identical to the
// uncached oracle.
func TestScanStormCollapses(t *testing.T) {
	ref, genes := SyntheticReference(23, 1<<20, 2, 30)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	req := ScanRequest{Query: q, Reference: ref}

	// Oracle first, uncached.
	oracle, err := Scan(context.Background(), ScanRequest{Query: q, Reference: ref, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.Hits) == 0 {
		t.Fatal("oracle found no hits; the storm would be vacuous")
	}

	enableScanCache(t, 32<<20)
	queriesBefore := DefaultMetrics().Snapshot().Counters["align.queries.started"]
	cacheBefore := ScanCacheSnapshot()

	const n = 100
	results := make([]*ScanResult, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = Scan(context.Background(), req)
		}(i)
	}
	close(start)
	wg.Wait()

	queriesAfter := DefaultMetrics().Snapshot().Counters["align.queries.started"]
	if got := queriesAfter - queriesBefore; got != 1 {
		t.Fatalf("storm ran %d scans, want exactly 1", got)
	}
	cacheAfter := ScanCacheSnapshot()
	if misses := cacheAfter.Misses - cacheBefore.Misses; misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
	if joined := (cacheAfter.Collapsed - cacheBefore.Collapsed) + (cacheAfter.Hits - cacheBefore.Hits); joined != n-1 {
		t.Errorf("collapsed+hits = %d, want %d", joined, n-1)
	}

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("storm caller %d: %v", i, errs[i])
		}
		res := results[i]
		switch res.Cache {
		case CacheMiss, CacheShared, CacheHit:
		default:
			t.Fatalf("caller %d outcome %q", i, res.Cache)
		}
		if len(res.Hits) != len(oracle.Hits) {
			t.Fatalf("caller %d: %d hits, oracle %d", i, len(res.Hits), len(oracle.Hits))
		}
		for j := range oracle.Hits {
			if res.Hits[j] != oracle.Hits[j] {
				t.Fatalf("caller %d hit %d: %+v, oracle %+v", i, j, res.Hits[j], oracle.Hits[j])
			}
		}
	}
}

// TestScanEvictionConformance hammers a deliberately tiny cache with a
// rotating query set across every kernel: constant eviction pressure must
// never change a single hit — each answer equals the uncached oracle.
func TestScanEvictionConformance(t *testing.T) {
	ref, genes := SyntheticReference(29, 40_000, 4, 20)
	queries := make([]*Query, len(genes))
	oracles := make(map[string][]Hit)
	for i, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
		res, err := Scan(context.Background(), ScanRequest{Query: q, Reference: ref, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		oracles[g.Protein] = res.Hits
	}

	// ~1.5 entries' worth of capacity: every insertion evicts.
	enableScanCache(t, 600)
	before := ScanCacheSnapshot()
	for round := 0; round < 6; round++ {
		for i, q := range queries {
			for _, kernel := range []Kernel{KernelAuto, KernelScalar, KernelBitParallel} {
				res, err := Scan(context.Background(), ScanRequest{Query: q, Reference: ref, Kernel: kernel})
				if err != nil {
					t.Fatalf("round %d query %d kernel %v: %v", round, i, kernel, err)
				}
				want := oracles[genes[i].Protein]
				if len(res.Hits) != len(want) {
					t.Fatalf("round %d query %d kernel %v: %d hits, oracle %d",
						round, i, kernel, len(res.Hits), len(want))
				}
				for j := range want {
					if res.Hits[j] != want[j] {
						t.Fatalf("round %d query %d kernel %v hit %d: %+v, oracle %+v",
							round, i, kernel, j, res.Hits[j], want[j])
					}
				}
			}
		}
	}
	after := ScanCacheSnapshot()
	if after.Evictions == before.Evictions {
		t.Error("no evictions under pressure; the conformance run is vacuous")
	}
	if after.ResidentBytes > after.CapacityBytes {
		t.Errorf("resident %d bytes exceeds capacity %d", after.ResidentBytes, after.CapacityBytes)
	}
}

// TestScanLeaderCancelHandsOff drives the singleflight handoff through
// the public API: the initiating caller cancels mid-scan while a second
// identical request is attached — the scan must complete for the waiter,
// the waiter's hits must match the oracle, and the leader must see its
// own cancellation.
func TestScanLeaderCancelHandsOff(t *testing.T) {
	// Forced-scalar over 4M nt: slow enough that cancellation reliably
	// lands while the scan is in flight.
	ref, genes := SyntheticReference(31, 4<<20, 2, 30)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	req := ScanRequest{Query: q, Reference: ref, Kernel: KernelScalar}
	oracle, err := Scan(context.Background(), ScanRequest{Query: q, Reference: ref, Kernel: KernelScalar, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}

	enableScanCache(t, 32<<20)
	base := ScanCacheSnapshot()

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, err := Scan(leaderCtx, req)
		leaderDone <- err
	}()

	// Wait for the leader's flight, then attach the waiter.
	waitCounter(t, func() bool { return ScanCacheSnapshot().Misses > base.Misses }, "leader flight")
	waiterDone := make(chan *ScanResult, 1)
	waiterErr := make(chan error, 1)
	go func() {
		res, err := Scan(context.Background(), req)
		waiterDone <- res
		waiterErr <- err
	}()
	waitCounter(t, func() bool { return ScanCacheSnapshot().Collapsed > base.Collapsed }, "waiter join")

	cancelLeader()
	leaderErr := <-leaderDone
	res, werr := <-waiterDone, <-waiterErr
	if werr != nil {
		t.Fatalf("waiter: %v", werr)
	}
	if len(res.Hits) != len(oracle.Hits) {
		t.Fatalf("waiter got %d hits, oracle %d", len(res.Hits), len(oracle.Hits))
	}
	for i := range oracle.Hits {
		if res.Hits[i] != oracle.Hits[i] {
			t.Fatalf("waiter hit %d: %+v, oracle %+v", i, res.Hits[i], oracle.Hits[i])
		}
	}
	if errors.Is(leaderErr, context.Canceled) {
		// The handoff happened: the canceled leader left a live flight to
		// the waiter, and the result landed in the cache afterward.
		if got := ScanCacheSnapshot().Handoffs - base.Handoffs; got != 1 {
			t.Errorf("handoffs = %d, want 1", got)
		}
		if cached, ok := CachedScan(req); !ok {
			t.Error("handed-off result not cached")
		} else if len(cached.Hits) != len(oracle.Hits) {
			t.Errorf("cached result %d hits, oracle %d", len(cached.Hits), len(oracle.Hits))
		}
	} else if leaderErr != nil {
		t.Fatalf("leader: %v", leaderErr)
	} else {
		// The scan beat the cancellation; nothing to assert about handoff,
		// but the run must say so rather than pass silently green.
		t.Log("scan completed before cancellation; handoff path not exercised this run")
	}
}

// TestScanPartialNeverCached: a degraded result is delivered to its
// requester but must not answer a later clean request.
func TestScanPartialNeverCached(t *testing.T) {
	enableScanCache(t, 8<<20)
	ref, genes := SyntheticReference(37, 20_000, 1, 20)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	req := ScanRequest{Query: q, Reference: ref, Partial: true}
	res, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatalf("partial-mode clean scan: %v", err)
	}
	if res.Cache != CacheBypass {
		t.Errorf("partial request outcome %q, want %q", res.Cache, CacheBypass)
	}
	if _, ok := CachedScan(req); ok {
		t.Error("CachedScan answered a partial-mode request")
	}
	clean := ScanRequest{Query: q, Reference: ref}
	if _, ok := CachedScan(clean); ok {
		t.Error("partial-mode scan seeded the cache")
	}
}

// TestScanBatchAndStreamBypassCache: Queries and Stream requests run
// uncached even with the cache on — Cache reads bypass, CachedScan never
// answers them, and they seed nothing a single-query probe could find.
func TestScanBatchAndStreamBypassCache(t *testing.T) {
	enableScanCache(t, 8<<20)
	ref, genes := SyntheticReference(39, 20_000, 2, 20)
	var queries []*Query
	for _, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	streamed := 0
	for name, req := range map[string]ScanRequest{
		"batch":  {Queries: queries, Reference: ref},
		"stream": {Query: queries[0], Stream: strings.NewReader(ref.String()), Emit: func(int, Hit) error { streamed++; return nil }},
	} {
		res, err := Scan(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cache != CacheBypass {
			t.Errorf("%s: outcome %q, want %q", name, res.Cache, CacheBypass)
		}
		if _, ok := CachedScan(req); ok {
			t.Errorf("%s: CachedScan answered an uncacheable request", name)
		}
	}
	if streamed == 0 {
		t.Fatal("stream found no hits; the stream row is vacuous")
	}
	if _, ok := CachedScan(ScanRequest{Query: queries[0], Reference: ref}); ok {
		t.Error("a batch or stream scan seeded the cache")
	}
	if got := ScanCacheSnapshot().Entries; got != 0 {
		t.Errorf("cache holds %d entries after uncacheable scans", got)
	}
}

// TestScanQueriesFusedPass pins fusion through the front door: a K-query
// Scan makes one fused pass per tile — batch.fused_passes equals the
// shards run — and batch.plane_bytes_saved grows by (K−1) × the target's
// plane bytes, the accounting AlignDatabaseBatch has always reported.
func TestScanQueriesFusedPass(t *testing.T) {
	ref, genes := SyntheticReference(47, 1_000_000, 4, 30)
	dbase, err := DatabaseFromReference("fused", ref)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*Query
	minElems := 0
	for _, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
		if minElems == 0 || q.Elements() < minElems {
			minElems = q.Elements()
		}
	}
	k := uint64(len(queries))
	shards := uint64(len(sched.Plan(dbase.Len()-minElems+1, 0)))
	if shards < 2 {
		t.Fatalf("%d shard; the fused-pass count is vacuous", shards)
	}
	planeBytes := uint64(dbase.planes().SizeBytes())

	for name, scan := range map[string]func() error{
		"Scan": func() error {
			_, err := Scan(context.Background(), ScanRequest{Queries: queries, Database: dbase})
			return err
		},
		"AlignDatabaseBatch": func() error {
			_, err := AlignDatabaseBatch(dbase, queries, 0.8)
			return err
		},
	} {
		before := DefaultMetrics().Snapshot().Counters
		if err := scan(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := DefaultMetrics().Snapshot().Counters
		delta := func(name string) uint64 { return after[name] - before[name] }
		if got := delta("batch.fused_passes"); got != shards || delta("scan.shards.run") != shards {
			t.Errorf("%s: %d fused passes, %d shards run; want %d each", name, got, delta("scan.shards.run"), shards)
		}
		if got, want := delta("batch.plane_bytes_saved"), (k-1)*planeBytes; got != want {
			t.Errorf("%s: plane bytes saved %d, want (K-1)×%d = %d", name, got, planeBytes, want)
		}
		if got := delta("batch.queries"); got != k {
			t.Errorf("%s: batch.queries %d, want %d", name, got, k)
		}
	}
}

// TestCachedScanProbe: the non-blocking probe answers only resident hits
// — never by scanning, joining, or queueing.
func TestCachedScanProbe(t *testing.T) {
	enableScanCache(t, 8<<20)
	ref, genes := SyntheticReference(41, 20_000, 1, 20)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	req := ScanRequest{Query: q, Reference: ref}

	queriesBefore := DefaultMetrics().Snapshot().Counters["align.queries.started"]
	if _, ok := CachedScan(req); ok {
		t.Fatal("probe hit on an empty cache")
	}
	if got := DefaultMetrics().Snapshot().Counters["align.queries.started"] - queriesBefore; got != 0 {
		t.Fatalf("probe ran %d scans", got)
	}

	seeded, err := Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := CachedScan(req)
	if !ok {
		t.Fatal("probe missed a resident result")
	}
	if res.Cache != CacheHit {
		t.Errorf("probe outcome %q, want %q", res.Cache, CacheHit)
	}
	if len(res.Hits) != len(seeded.Hits) {
		t.Fatalf("probe %d hits, seeded %d", len(res.Hits), len(seeded.Hits))
	}
}

// waitCounter polls cond with a deadline; the label names what never
// happened on failure.
func waitCounter(t *testing.T, cond func() bool, label string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", label)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScanCacheInvalidationByContent: the key is the content digest, so
// two references with different content never alias — no explicit
// invalidation exists or is needed.
func TestScanCacheInvalidationByContent(t *testing.T) {
	enableScanCache(t, 8<<20)
	refA, genes := SyntheticReference(43, 20_000, 1, 20)
	refB, _ := SyntheticReference(44, 20_000, 1, 20)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(context.Background(), ScanRequest{Query: q, Reference: refA}); err != nil {
		t.Fatal(err)
	}
	if _, ok := CachedScan(ScanRequest{Query: q, Reference: refA}); !ok {
		t.Fatal("refA result not resident")
	}
	if _, ok := CachedScan(ScanRequest{Query: q, Reference: refB}); ok {
		t.Fatal("refB aliased refA's cache entry")
	}

	resB, err := Scan(context.Background(), ScanRequest{Query: q, Reference: refB})
	if err != nil {
		t.Fatal(err)
	}
	if resB.Cache != CacheMiss {
		t.Errorf("refB first scan outcome %q, want %q", resB.Cache, CacheMiss)
	}
}
