package fabp

import (
	"context"
	"crypto/sha256"
	"io"
	"time"

	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/isa"
	"fabp/internal/resultcache"
	"fabp/internal/sched"
	"fabp/internal/tblastn"
)

// This file is the front door: Scan validates a ScanRequest into a
// scanPlan, and every nucleotide scan — Scan itself, the Aligner methods,
// the batch and stream wrappers and Session — runs from a plan on
// shardRun. It is also the single place the content-addressed
// scan-result cache hooks in. A single-query scan's outcome is a pure
// function of (query instruction digest, target content digest,
// threshold, resolved kernel, shard geometry), which is exactly the cache
// key; invalidation is therefore free (new content → new digest → new
// key) and cached hits are bit-identical to rescanning by construction.
// Queries (batch) and Stream requests stay uncached: a stream's contract
// is incremental delivery, and a fused batch's unit of work is the batch,
// not a cacheable single scan. See DESIGN.md §13.

// CacheOutcome is a ScanResult's provenance: how the scan spine
// satisfied the request.
type CacheOutcome string

const (
	// CacheBypass: the scan ran uncached (cache disabled, NoCache, or a
	// partial-mode, Queries or Stream request, which is never
	// cache-eligible).
	CacheBypass CacheOutcome = "bypass"
	// CacheMiss: this request ran the scan and seeded the cache.
	CacheMiss CacheOutcome = "miss"
	// CacheHit: the result was served from the cache; no scan ran.
	CacheHit CacheOutcome = "hit"
	// CacheShared: the request joined a concurrent identical scan
	// already in flight and shared its result; no additional scan ran.
	CacheShared CacheOutcome = "shared"
)

// ScanRequest is the unified scan request — the typed form of everything
// the legacy Align* matrix spread across method choice and aligner
// options. Exactly one of Query or Queries, and exactly one of Database,
// Reference or Stream, must be set; zero values elsewhere mean the
// documented defaults.
type ScanRequest struct {
	// Query is the prepared protein query of a single-query scan.
	Query *Query
	// Queries is a batch of K≥1 queries scanned in one fused pass per
	// tile; their results come back index-aligned in ScanResult.PerQuery.
	Queries []*Query
	// Database, Reference or Stream is the scan target. A Database
	// target yields record-attributed hits (RecordHits); a Reference
	// target yields position hits (Hits).
	Database  *Database
	Reference *Reference
	// Stream is a nucleotide stream of any length (raw letters,
	// whitespace tolerated), read and packed once per chunk for every
	// query. Its hits are not collected: they reach Emit with their query
	// index, in position order per query within each chunk, as chunks
	// complete. Return an error from Emit to stop the scan.
	Stream io.Reader
	Emit   func(query int, h Hit) error
	// Threshold is the absolute hit threshold in [0, Query.MaxScore()]
	// (single-query scans only). Nil selects ThresholdFrac instead;
	// setting both is an error.
	Threshold *int
	// ThresholdFrac is the threshold as a fraction of each query's
	// maximum score, in (0, 1]. Zero defaults to 0.8 (the paper's
	// operating point) when Threshold is nil.
	ThresholdFrac float64
	// Kernel selects the implementation (default KernelAuto). KernelScalar,
	// the oracle, scans one Query on an in-memory target.
	Kernel Kernel
	// ShardLen overrides the scan's shard size in window starts
	// (0 = scheduler default; negative is an error).
	ShardLen int
	// MaxHits truncates each query's hits to the first N in position
	// order (0 = unlimited), setting Truncated. Truncation is
	// per-request: the cache always holds complete results.
	MaxHits int
	// RetryPolicy bounds automatic re-execution of failed or straggling
	// shards and stream reads (zero value = single attempt).
	RetryPolicy RetryPolicy
	// Partial opts into degraded completion: shard failures that outlive
	// the retry budget return the surviving hits plus a *PartialError
	// instead of failing the scan. Partial results are never cached, and
	// Stream targets reject Partial.
	Partial bool
	// NoCache forces this request to scan even when the cache is
	// enabled (it neither reads nor seeds entries).
	NoCache bool
	// ProteinSearch, when non-nil, runs the request as a TBLASTN-style
	// protein search (six-frame translation + seeded ungapped extension)
	// of one Query against a Database or Reference instead of a
	// nucleotide scan: results land in ScanResult.HSPs and the
	// nucleotide-only fields (Threshold/ThresholdFrac, Kernel, ShardLen,
	// RetryPolicy, Partial) must stay unset. MaxHits and NoCache apply as
	// usual.
	ProteinSearch *ProteinSearchOptions
}

// ScanResult is the unified scan answer: hits plus everything the legacy
// matrix made the caller reconstruct — degradation, provenance, timing.
type ScanResult struct {
	// Hits holds position hits for Reference targets (nil for Database
	// targets); RecordHits holds record-attributed hits for Database
	// targets. Both are position-ordered. Both stay nil for Queries
	// requests, whose hits are in PerQuery.
	Hits       []Hit
	RecordHits []RecordHit
	// Threshold is the resolved absolute threshold the scan used
	// (Query requests; a Queries request's are in PerQuery).
	Threshold int
	// PerQuery holds a Queries request's results, index-aligned with
	// Queries (nil for Query requests).
	PerQuery []QueryResult
	// Truncated reports that MaxHits clipped a hit list.
	Truncated bool
	// Degraded reports a partial completion: FailedRanges lists the
	// window-start ranges that were not scanned. Degraded results come
	// only from Partial requests and are never cached.
	Degraded     bool
	FailedRanges []ShardRange
	// HSPs holds protein-search results (ProteinSearch requests only),
	// sorted best-first; ProteinStats profiles that pipeline run (shared
	// with cached results on a hit — treat as read-only).
	HSPs         []HSP
	ProteinStats *ProteinSearchStats
	// Cache is the result's provenance (hit/miss/shared/bypass).
	Cache CacheOutcome
	// Elapsed is this call's wall time — queue plus scan on a miss, the
	// lookup alone on a hit.
	Elapsed time.Duration
}

// QueryResult is one query's slice of a Queries request's result. Hits
// or RecordHits follow the target as in ScanResult; both stay nil for
// Stream targets, whose hits went to Emit.
type QueryResult struct {
	Hits       []Hit
	RecordHits []RecordHit
	Threshold  int
	Truncated  bool
}

// asPartial extracts a *PartialError (errors.As without the reflection
// round-trip for the common nil case).
func asPartial(err error) (*PartialError, bool) {
	if err == nil {
		return nil, false
	}
	pe, ok := err.(*PartialError)
	return pe, ok
}

// sizeBytes estimates the result's resident footprint for the cache's
// byte bound: slice headers, hit payloads, and record-ID strings.
func (r *ScanResult) sizeBytes() int64 {
	n := int64(256)
	n += int64(len(r.Hits)) * 16
	for _, h := range r.RecordHits {
		n += 56 + int64(len(h.RecordID))
	}
	for _, h := range r.HSPs {
		n += 96 + int64(len(h.Frame))
	}
	return n
}

// clip truncates s to n entries (n > 0), flagging truncated when it cuts.
// The result shares s's backing array but cannot append into it.
func clip[T any](s []T, n int, truncated *bool) []T {
	if n > 0 && len(s) > n {
		*truncated = true
		return s[:n:n]
	}
	return s
}

// clipped returns a per-request shallow copy, truncated to maxHits per
// query. The hit slices stay shared with the cached original (read-only
// by the cache contract), so a hot hit copies a fixed-size struct, not
// hits.
func (r *ScanResult) clipped(maxHits int) *ScanResult {
	out := *r
	out.Hits = clip(out.Hits, maxHits, &out.Truncated)
	out.RecordHits = clip(out.RecordHits, maxHits, &out.Truncated)
	out.HSPs = clip(out.HSPs, maxHits, &out.Truncated)
	if maxHits > 0 && len(out.PerQuery) > 0 {
		out.PerQuery = append([]QueryResult(nil), out.PerQuery...)
		for i := range out.PerQuery {
			qr := &out.PerQuery[i]
			qr.Hits = clip(qr.Hits, maxHits, &qr.Truncated)
			qr.RecordHits = clip(qr.RecordHits, maxHits, &qr.Truncated)
			out.Truncated = out.Truncated || qr.Truncated
		}
	}
	return &out
}

// targetKind tags the cache key with the result shape: a database scan
// (attributed RecordHits) and a reference scan (position Hits) of
// identical content are different results.
type targetKind uint8

const (
	targetDatabase  targetKind = 1
	targetReference targetKind = 2
	// Protein searches get their own kinds: the digests are computed
	// over different byte domains (database format vs raw sequence), so
	// the kind keeps them from ever aliasing a nucleotide scan.
	targetProteinDatabase  targetKind = 3
	targetProteinReference targetKind = 4
)

// scanKey is the content-addressed cache key. Two requests with equal
// keys provably produce bit-identical results: the digests pin the exact
// query program and target content, threshold and kernel pin the
// scoring, and shard geometry is included so any future shard-dependent
// observable (it is result-neutral today) can never alias.
type scanKey struct {
	query     [sha256.Size]byte
	target    [sha256.Size]byte
	kind      targetKind
	threshold int
	kernel    Kernel
	shardLen  int
	// protein holds the resolved protein-search options for protein
	// kinds (zero for nucleotide scans). Threads is excluded: the scan
	// is thread-invariant, so worker counts share results.
	protein proteinKey
}

// scanResults is the process-wide scan-result cache. Disabled (capacity
// 0) by default so library users keep exact historical behavior —
// serving and benchmarking paths opt in via SetScanCacheCapacity.
var scanResults = resultcache.New[scanKey, *ScanResult](0)

// SetScanCacheCapacity bounds the process-wide scan-result cache to
// maxBytes of cached hits (estimated; see ScanCacheStats.ResidentBytes).
// Zero or negative disables caching and drops every resident result —
// the default. Safe for concurrent use with running scans.
func SetScanCacheCapacity(maxBytes int64) { scanResults.SetCapacity(maxBytes) }

// ScanCacheStats is a point-in-time view of the scan-result cache.
type ScanCacheStats struct {
	// Hits, Misses: lookups served from / absent from the cache.
	// Collapsed: requests that joined a concurrent identical scan.
	// Handoffs: in-flight scans whose initiating caller canceled while
	// other waiters remained (the scan completed for them).
	Hits, Misses, Evictions, Collapsed, Handoffs uint64
	// Entries/ResidentBytes are the current footprint; CapacityBytes is
	// the configured bound (0 = disabled).
	Entries       int
	ResidentBytes int64
	CapacityBytes int64
}

// ScanCacheSnapshot returns the scan-result cache's counters and
// footprint (also merged into Metrics.Snapshot under rcache.*).
func ScanCacheSnapshot() ScanCacheStats {
	s := scanResults.Stats()
	return ScanCacheStats{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		Collapsed: s.Collapsed, Handoffs: s.Handoffs,
		Entries: s.Entries, ResidentBytes: s.ResidentBytes,
		CapacityBytes: s.CapacityBytes,
	}
}

// canonShardLen maps a requested shard length to the value the scheduler
// actually uses (sched.Plan's defaulting and 64-alignment), so "default"
// and an explicit equal value share cache entries.
func canonShardLen(n int) int {
	if n <= 0 {
		n = sched.DefaultShardLen
	}
	return (n + 63) &^ 63
}

// fromOutcome converts the cache package's outcome to the public one.
func fromOutcome(o resultcache.Outcome) CacheOutcome {
	switch o {
	case resultcache.OutcomeHit:
		return CacheHit
	case resultcache.OutcomeShared:
		return CacheShared
	}
	return CacheMiss
}

// scanThroughCache runs cold through the singleflight cache under key.
// The compute runs on the flight's own context — canceled only when
// every joined caller has left, so a canceled initiator hands the scan
// off to the remaining waiters. Results are cached only on clean
// success; an error (degraded completions included) reaches every
// waiting caller and is never retained.
func scanThroughCache(ctx context.Context, key scanKey, cold func(context.Context) (*ScanResult, error)) (*ScanResult, CacheOutcome, error) {
	res, out, err := scanResults.Do(ctx, key, func(fctx context.Context) (*ScanResult, int64, error) {
		r, err := cold(fctx)
		if err != nil {
			return r, 0, err
		}
		return r, r.sizeBytes(), nil
	})
	return res, fromOutcome(out), err
}

// scanPlan is one scan resolved to what the executor needs: programs and
// thresholds, the target, and where and how it runs — pool, telemetry,
// retry policy, partial mode and shard length. Scan (and Session) builds
// one from a validated ScanRequest; an Aligner holds one with its target
// unset and copies it per call (with its own pool and metrics).
type scanPlan struct {
	// query is a single-query plan's query: its digest keys the result
	// cache and its protein drives protein search. Nil for the Queries
	// form, whose results come back per query.
	query      *Query
	progs      []isa.Program
	thresholds []int
	kernel     Kernel
	// Exactly one of database, reference or stream is the target; emit
	// receives a stream's hits.
	database  *Database
	reference *Reference
	stream    io.Reader
	emit      func(query int, h Hit) error

	shardLen, maxHits int
	rp                RetryPolicy
	partial, noCache  bool
	pool              *sched.Pool
	tm                *alignerMetrics
	// bk, or engine under KernelScalar, is the compiled scorer: an
	// Aligner compiles once at construction, Scan on the cold path.
	bk     *bitpar.BatchKernel
	engine *core.Engine
	// protein is the resolved pipeline option set for ProteinSearch
	// requests (nil for nucleotide scans).
	protein *tblastn.Options
}

// plan validates the request field by field (errors name the field and
// match ErrBadQuery/ErrBadOption) and resolves every query's threshold.
func (req ScanRequest) plan() (*scanPlan, error) {
	queries := req.Queries
	switch {
	case req.Query != nil && len(req.Queries) > 0:
		return nil, badOptionf("fabp: ScanRequest.Query and ScanRequest.Queries conflict: set exactly one")
	case req.Query != nil:
		queries = []*Query{req.Query}
	case len(queries) == 0:
		return nil, badQueryf("fabp: empty batch: ScanRequest.Query is nil and ScanRequest.Queries is empty")
	}
	targets := 0
	for _, set := range []bool{req.Database != nil, req.Reference != nil, req.Stream != nil} {
		if set {
			targets++
		}
	}
	if targets != 1 {
		return nil, badOptionf("fabp: ScanRequest needs exactly one target: set Database, Reference or Stream")
	}
	if (req.Emit == nil) != (req.Stream == nil) {
		return nil, badOptionf("fabp: ScanRequest.Emit and ScanRequest.Stream go together: set both or neither")
	}
	if req.ProteinSearch != nil {
		return req.planProtein()
	}
	switch req.Kernel {
	case KernelAuto, KernelScalar, KernelBitParallel:
	default:
		return nil, badOptionf("fabp: ScanRequest.Kernel %v unknown", req.Kernel)
	}
	if req.ShardLen < 0 {
		return nil, badOptionf("fabp: ScanRequest.ShardLen %d is negative", req.ShardLen)
	}
	if req.MaxHits < 0 {
		return nil, badOptionf("fabp: ScanRequest.MaxHits %d is negative", req.MaxHits)
	}
	if err := req.RetryPolicy.validate(); err != nil {
		return nil, badOption(err)
	}
	if req.Threshold != nil && req.ThresholdFrac != 0 {
		return nil, badOptionf("fabp: ScanRequest.Threshold and ScanRequest.ThresholdFrac conflict: set exactly one")
	}
	if req.Threshold != nil && len(queries) > 1 {
		return nil, badOptionf("fabp: ScanRequest.Threshold is one query's score: use ThresholdFrac with %d Queries", len(queries))
	}
	progs, err := batchPrograms(queries)
	if err != nil {
		return nil, err
	}
	thresholds := make([]int, len(queries))
	for i, q := range queries {
		if thresholds[i], err = req.threshold(q); err != nil {
			return nil, err
		}
	}
	p := &scanPlan{
		query: req.Query, progs: progs, thresholds: thresholds, kernel: req.Kernel,
		database: req.Database, reference: req.Reference, stream: req.Stream, emit: req.Emit,
		shardLen: req.ShardLen, maxHits: req.MaxHits, rp: req.RetryPolicy,
		partial: req.Partial, noCache: req.NoCache,
		pool: sched.Shared(), tm: &defaultAlignerTM,
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	return p, nil
}

// threshold resolves the request's absolute threshold for query q.
func (req ScanRequest) threshold(q *Query) (int, error) {
	if req.Threshold != nil {
		t := *req.Threshold
		if t < 0 || t > q.MaxScore() {
			return 0, badOptionf("fabp: ScanRequest.Threshold %d outside [0, %d]", t, q.MaxScore())
		}
		return t, nil
	}
	frac := req.ThresholdFrac
	if frac == 0 {
		frac = 0.8
	}
	if frac < 0 || frac > 1 || frac != frac {
		return 0, badOptionf("fabp: ScanRequest.ThresholdFrac %v outside (0,1]", req.ThresholdFrac)
	}
	t, err := core.ThresholdFromFraction(frac, q.MaxScore())
	return t, badOption(err)
}

// check enforces the combinations every plan must respect, whether it
// came from Scan or an Aligner: the scalar oracle scores one Query over an
// in-memory target, and a stream's hits are delivered as they complete,
// so it cannot be partial.
func (p *scanPlan) check() error {
	if p.kernel == KernelScalar && (p.query == nil || p.stream != nil) {
		return badOptionf("fabp: KernelScalar (the oracle) scans one query on an in-memory target: use KernelAuto or KernelBitParallel")
	}
	if p.partial && p.stream != nil {
		return badOptionf("fabp: ScanRequest.Partial does not apply to a Stream target")
	}
	return nil
}

// planProtein validates and normalizes a protein-search request: the
// nucleotide-only knobs must stay unset (their semantics — window-score
// thresholds, bit-parallel kernels, shard retries — do not transfer),
// and the pipeline options resolve once, here, so the cache key and the
// cold path agree on the exact option set.
func (req ScanRequest) planProtein() (*scanPlan, error) {
	if req.Query == nil || req.Stream != nil {
		return nil, badOptionf("fabp: ScanRequest.ProteinSearch takes one Query and a Database or Reference target")
	}
	if req.Threshold != nil || req.ThresholdFrac != 0 {
		return nil, badOptionf("fabp: ScanRequest.Threshold/ThresholdFrac do not apply to protein search: use ProteinSearch.MinScore and MaxEValue")
	}
	if req.Kernel != KernelAuto {
		return nil, badOptionf("fabp: ScanRequest.Kernel does not apply to protein search")
	}
	if req.ShardLen != 0 {
		return nil, badOptionf("fabp: ScanRequest.ShardLen does not apply to protein search")
	}
	if req.RetryPolicy != (RetryPolicy{}) {
		return nil, badOptionf("fabp: ScanRequest.RetryPolicy does not apply to protein search")
	}
	if req.Partial {
		return nil, badOptionf("fabp: ScanRequest.Partial does not apply to protein search")
	}
	if req.MaxHits < 0 {
		return nil, badOptionf("fabp: ScanRequest.MaxHits %d is negative", req.MaxHits)
	}
	resolved, err := req.ProteinSearch.tblastnOptions().Resolve()
	if err != nil {
		return nil, badOption(err)
	}
	return &scanPlan{
		query: req.Query, database: req.Database, reference: req.Reference,
		maxHits: req.MaxHits, noCache: req.NoCache, protein: &resolved,
	}, nil
}

// compile builds the plan's scorer unless it has one: the fused kernel
// over every program, or the scalar engine under KernelScalar.
func (p *scanPlan) compile() error {
	if p.bk != nil || p.engine != nil {
		return nil
	}
	var err error
	if p.kernel == KernelScalar {
		p.engine, err = core.NewEngine(p.progs[0], p.thresholds[0])
	} else {
		p.bk, err = bitpar.NewBatchKernel(p.progs, p.thresholds)
	}
	return badOption(err)
}

// key builds the plan's cache key (single-query plans only).
func (p *scanPlan) key() scanKey {
	k := scanKey{query: p.query.digest}
	if p.database != nil {
		k.target = [sha256.Size]byte(p.database.d.Digest())
	} else {
		k.target = p.reference.contentDigest()
	}
	if p.protein != nil {
		k.protein = proteinKeyOf(p.protein)
		k.kind = targetProteinReference
		if p.database != nil {
			k.kind = targetProteinDatabase
		}
		return k
	}
	k.threshold = p.thresholds[0]
	k.kernel = p.kernel.resolved()
	k.shardLen = canonShardLen(p.shardLen)
	k.kind = targetReference
	if p.database != nil {
		k.kind = targetDatabase
	}
	return k
}

// bypass reports whether this plan must scan uncached.
func (p *scanPlan) bypass() bool {
	return p.noCache || p.partial || p.query == nil || p.stream != nil || !scanResults.Enabled()
}

// cold runs the plan's scan uncached under ctx.
func (p *scanPlan) cold(ctx context.Context) (*ScanResult, error) {
	switch {
	case p.protein != nil:
		return p.executeProteinSearch(ctx)
	case p.stream != nil:
		return p.scanStream(ctx)
	}
	return p.gather(ctx)
}

// run answers the plan — from the result cache when it is eligible — and
// returns the caller's own copy, clipped to MaxHits and stamped with its
// provenance and wall time. A degraded or failed stream's result comes
// back beside its error.
func (p *scanPlan) run(ctx context.Context) (*ScanResult, error) {
	t0 := time.Now()
	var res *ScanResult
	var err error
	outcome := CacheBypass
	if p.bypass() {
		res, err = p.cold(ctx)
	} else {
		res, outcome, err = scanThroughCache(ctx, p.key(), p.cold)
	}
	if res == nil {
		return nil, err
	}
	final := res.clipped(p.maxHits)
	final.Cache = outcome
	final.Elapsed = time.Since(t0)
	return final, err
}

// targetScan builds the plan's shard scan over its in-memory target —
// every shard reads one shared representation, so each gets its
// shardLen + Lq−1 overlap for free. The fused kernel reads the target's
// cached planes (planeBytes is their size); KernelScalar, the oracle,
// scores with the scalar engine over one context array instead. starts
// is 0 when the target is shorter than every query.
func (p *scanPlan) targetScan() (scan shardScan, starts int, planeBytes int64) {
	n := 0
	var planes func() *bitpar.Planes
	var contexts func() []uint8
	if d := p.database; d != nil {
		n, planes = d.Len(), d.planes
		contexts = func() []uint8 { return core.Contexts(d.d.Seq()) }
	} else {
		ref := p.reference
		n = ref.Len()
		planes = func() *bitpar.Planes { return planesForReference(ref) }
		contexts = func() []uint8 { return core.Contexts(ref.seq) }
	}
	if e := p.engine; e != nil {
		if starts = n - len(p.progs[0]) + 1; starts <= 0 {
			return nil, 0, 0
		}
		p.tm.kernelScalar.Inc()
		ctxs := contexts()
		return func(lo, hi int, _ [][]core.Hit) [][]core.Hit {
			return [][]core.Hit{e.AlignContexts(ctxs, lo, hi)}
		}, starts, 0
	}
	bk := p.bk
	if starts = bk.Starts(n); starts <= 0 {
		return nil, 0, 0
	}
	p.tm.kernelBitpar.Add(uint64(len(p.progs)))
	p.tm.planeLookups.Inc()
	pp := planes()
	return func(lo, hi int, dst [][]core.Hit) [][]core.Hit {
		return bk.AlignPlanesRange(pp, lo, hi, dst)
	}, starts, pp.SizeBytes()
}

// execute runs the plan's in-memory scan on shardRun and returns every
// query's raw hits: one fused pass per tile for all queries. With reduce
// set, each shard runs reduce(scan) instead of the target's scan; with
// emit set, each shard's hits reach emit in shard order and nothing is
// gathered. A partial plan's degraded completion returns the survivors'
// hits beside a *PartialError; any other failure — recorded on the
// cancel/deadline counters — returns no hits. Cancellation is checked
// between shards.
func (p *scanPlan) execute(ctx context.Context, reduce func(shardScan) shardScan, emit func(part [][]core.Hit) error) ([][]core.Hit, error) {
	tm, k := p.tm, len(p.progs)
	tm.queries.Add(uint64(k))
	if p.query == nil {
		tm.batchQueries.Add(uint64(k))
	}
	defer observeSince(tm.alignLatency, time.Now())
	if err := ctx.Err(); err != nil {
		tm.recordCtxErr(err)
		return nil, err
	}
	if err := p.compile(); err != nil {
		return nil, err
	}
	scan, starts, planeBytes := p.targetScan()
	if scan == nil {
		return make([][]core.Hit, k), nil
	}
	if reduce != nil {
		scan = reduce(scan)
	}
	shards := sched.Plan(starts, p.shardLen)
	t0 := time.Now()
	run := p.newShardRun(scan)
	run.emit = emit
	hits, err := run.run(ctx, shards)
	if _, partial := asPartial(err); err != nil && !partial {
		tm.recordCtxErr(err)
		return nil, err
	}
	if p.query == nil {
		recordFused(tm, k, len(shards), planeBytes, t0)
	}
	return hits, err
}

// gather runs the plan's in-memory scan and shapes the result: position
// hits for a Reference, record-attributed hits for a Database.
func (p *scanPlan) gather(ctx context.Context) (*ScanResult, error) {
	raw, err := p.execute(ctx, nil, nil)
	pe, partial := asPartial(err)
	if err != nil && !partial {
		return nil, err
	}
	per := p.perQuery()
	for qi, hits := range raw {
		if p.database != nil {
			per[qi].RecordHits = toRecordHits(p.database.d.Attribute(hits, len(p.progs[qi])))
			p.tm.hits.Add(uint64(len(per[qi].RecordHits)))
		} else {
			per[qi].Hits = publicHits(hits)
			p.tm.hits.Add(uint64(len(hits)))
		}
	}
	res := p.result(per)
	if partial {
		res.Degraded = true
		res.FailedRanges = pe.Failed
	}
	return res, err
}

// perQuery returns empty per-query results carrying their thresholds.
func (p *scanPlan) perQuery() []QueryResult {
	per := make([]QueryResult, len(p.progs))
	for i, t := range p.thresholds {
		per[i].Threshold = t
	}
	return per
}

// result shapes per-query results into the request's form: a
// single-query plan's lone result fills the top-level fields, the Queries
// form keeps PerQuery.
func (p *scanPlan) result(per []QueryResult) *ScanResult {
	if p.query == nil {
		res := &ScanResult{PerQuery: per}
		for _, qr := range per {
			res.Truncated = res.Truncated || qr.Truncated
		}
		return res
	}
	r := per[0]
	return &ScanResult{Hits: r.Hits, RecordHits: r.RecordHits, Threshold: r.Threshold, Truncated: r.Truncated}
}

// Scan is the unified alignment entrypoint: one typed request/response
// pair covering single-query and batch scans of a Database, a Reference
// or a Stream, and protein search — hits, degraded ranges, cache
// provenance and timing in one result.
//
// All scans share one spine: requests are validated field by field
// (errors match ErrBadQuery/ErrBadOption via errors.Is), K queries score
// from one fused pass over each tile of the target, and every shard runs
// on the shared pool under the request's RetryPolicy. Single-query
// repeats are answered from the content-addressed result cache when it is
// enabled (SetScanCacheCapacity), and N concurrent identical requests
// collapse into exactly one scan — each caller still honoring its own
// ctx, with a canceled initiator handing the in-flight scan off to the
// remaining waiters. Partial-mode requests return surviving hits with
// Degraded set alongside a *PartialError, and are never cached; a Stream
// request that fails returns its result (thresholds, truncation so far)
// beside the error. The returned result is the caller's own copy.
func Scan(ctx context.Context, req ScanRequest) (*ScanResult, error) {
	p, err := req.plan()
	if err != nil {
		return nil, err
	}
	return p.run(ctx)
}

// CachedScan probes the result cache for the request without scanning,
// joining an in-flight scan, or queueing: ok is false on anything but a
// resident hit. It is the server's pre-admission fast path — a hit
// bypasses admission control entirely. An invalid or cache-ineligible
// request (Queries, Stream, Partial, NoCache) reports false (Scan will
// surface any validation error).
func CachedScan(req ScanRequest) (*ScanResult, bool) {
	t0 := time.Now()
	p, err := req.plan()
	if err != nil || p.bypass() {
		return nil, false
	}
	res, ok := scanResults.Get(p.key())
	if !ok {
		return nil, false
	}
	final := res.clipped(p.maxHits)
	final.Cache = CacheHit
	final.Elapsed = time.Since(t0)
	return final, true
}
