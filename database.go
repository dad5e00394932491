package fabp

import (
	"context"
	"io"
	"log"
	"strconv"
	"strings"
	"sync"

	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/db"
	"fabp/internal/experiments"
	"fabp/internal/fpga"
	"fabp/internal/host"
	"fabp/internal/isa"
)

// Database is an indexed, 2-bit packed reference database — the DRAM image
// the accelerator scans, with a record index so hits map back to sequences.
type Database struct {
	d *db.Database
}

// warnLogger receives non-fatal load diagnostics (a rejected plane
// section degrading a warm start). Guarded by warnMu; nil silences.
var (
	warnMu     sync.Mutex
	warnLogger func(format string, args ...any) = log.Printf
)

// SetWarnLogger redirects the package's non-fatal warnings (default
// log.Printf). Pass nil to silence them. Safe for concurrent use.
func SetWarnLogger(f func(format string, args ...any)) {
	warnMu.Lock()
	warnLogger = f
	warnMu.Unlock()
}

func warnf(format string, args ...any) {
	warnMu.Lock()
	f := warnLogger
	warnMu.Unlock()
	if f != nil {
		f(format, args...)
	}
}

// BuildDatabase packs a nucleotide FASTA stream into a database.
func BuildDatabase(r io.Reader) (*Database, error) {
	recs, err := bio.NewFastaReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	d, err := db.Build(recs)
	if err != nil {
		return nil, err
	}
	return &Database{d: d}, nil
}

// DatabaseFromReference wraps a single reference sequence as a one-record
// database.
func DatabaseFromReference(id string, ref *Reference) (*Database, error) {
	d, err := db.FromSeq(id, ref.seq)
	if err != nil {
		return nil, err
	}
	return &Database{d: d}, nil
}

// SaveDatabase serializes the database in the current (v2) file format:
// packed payload, record index, the packed bit-planes, a SHA-256 content
// digest and per-section CRC32 checksums. Writing packs the planes if no
// copy is resident yet — the one-time preprocessing cost every later
// LoadDatabase of the file skips entirely.
func (d *Database) SaveDatabase(w io.Writer) error {
	_, err := d.d.WriteTo(w)
	return err
}

// SaveDatabaseLegacy serializes in the v1 layout — no checksums, no plane
// section — for rollback to readers that predate the v2 format. v1 files
// load fine (LoadDatabase reads both) but pay a full plane packing before
// the first bit-parallel scan.
func (d *Database) SaveDatabaseLegacy(w io.Writer) error {
	_, err := d.d.WriteV1To(w)
	return err
}

// ErrCorruptDatabase matches (via errors.Is) every structural load
// failure LoadDatabase and InspectDatabase return: bad magic, truncation,
// checksum or content-digest mismatch. A damaged plane section alone is
// NOT this error — the load succeeds and degrades to in-process packing.
var ErrCorruptDatabase = db.ErrCorrupt

// LoadDatabase reads a database saved with SaveDatabase (v2) or
// SaveDatabaseLegacy (v1). A v2 file's persisted bit-planes are installed
// into the shared plane cache keyed by content digest, so the first
// bit-parallel scan — and every scan after it, from any Database loaded
// from the same content — runs with zero packing work (counted on
// db.load.planes_reused). A v1 file, or a v2 file whose plane section
// fails its checksum or version check, still loads: scans fall back to
// packing in-process (db.load.planes_packed), and the fallback is logged
// through SetWarnLogger's sink. Structural damage anywhere else returns
// ErrCorruptDatabase; malformed input never panics.
func LoadDatabase(r io.Reader) (*Database, error) {
	inner, err := db.Read(r)
	if err != nil {
		return nil, err
	}
	d := &Database{d: inner}
	d.installPersistedPlanes()
	return d, nil
}

// installPersistedPlanes is LoadDatabase's warm-start step: persisted
// planes become cache-resident under the content digest, and the
// reused/packed telemetry records how this load will scan.
func (d *Database) installPersistedPlanes() {
	cache := bitpar.SharedPlanes()
	key := planeKey{d.d.Digest()}
	if pp := d.d.PersistedPlanes(); pp != nil {
		cache.Install(key, pp)
		dbLoadPlanesReused.Inc()
		return
	}
	if cache.Contains(key) {
		// No planes in this file, but an earlier load of the same content
		// already made them resident — still a warm start.
		dbLoadPlanesReused.Inc()
		return
	}
	if err := d.d.PlaneSectionError(); err != nil {
		warnf("fabp: database %s: plane section rejected, falling back to in-process packing: %v",
			d.d.Digest(), err)
	}
	dbLoadPlanesPacked.Inc()
}

// DatabaseFileInfo describes a database file's on-disk shape, as
// InspectDatabase reports it without retaining the payload.
type DatabaseFileInfo struct {
	// Version is the file format version (1 or 2).
	Version int `json:"version"`
	// Records and TotalNt are the database geometry.
	Records int `json:"records"`
	TotalNt int `json:"total_nt"`
	// Digest is the hex SHA-256 content digest (computed for v1 files,
	// which do not store one).
	Digest string `json:"digest"`
	// HasPlanes reports a valid persisted plane section; PlaneError is
	// the rejection reason when a declared section failed validation.
	HasPlanes  bool   `json:"has_planes"`
	PlaneError string `json:"plane_error,omitempty"`
	// Per-section byte counts, checksums included.
	IndexBytes   int64 `json:"index_bytes"`
	PayloadBytes int64 `json:"payload_bytes"`
	PlaneBytes   int64 `json:"plane_bytes"`
}

// InspectDatabase fully validates a database file — magic, geometry,
// section checksums, content digest, plane section — and reports its
// shape. Structural damage returns ErrCorruptDatabase; a rejected plane
// section is reported in PlaneError (the file still loads).
func InspectDatabase(r io.Reader) (DatabaseFileInfo, error) {
	info, err := db.Inspect(r)
	if err != nil {
		return DatabaseFileInfo{}, err
	}
	out := DatabaseFileInfo{
		Version: info.Version, Records: info.Records, TotalNt: info.TotalNt,
		Digest: info.Digest.String(), HasPlanes: info.HasPlanes,
		IndexBytes: info.IndexBytes, PayloadBytes: info.PayloadBytes,
		PlaneBytes: info.PlaneBytes,
	}
	if info.PlaneErr != nil {
		out.PlaneError = info.PlaneErr.Error()
	}
	return out, nil
}

// Len returns the total nucleotide count.
func (d *Database) Len() int { return d.d.Len() }

// NumRecords returns the sequence count.
func (d *Database) NumRecords() int { return d.d.NumRecords() }

// RecordInfo describes one database sequence.
type RecordInfo struct {
	ID          string
	Description string
	Length      int
}

// Record returns the i-th sequence's metadata.
func (d *Database) Record(i int) RecordInfo {
	r := d.d.Record(i)
	return RecordInfo{ID: r.ID, Description: r.Description, Length: r.Length}
}

// RecordHit is an alignment hit attributed to a database record.
type RecordHit struct {
	// RecordID and RecordIndex identify the sequence.
	RecordID    string
	RecordIndex int
	// Offset is the window start within that sequence.
	Offset int
	// Score is the alignment score.
	Score int
}

// planeKey keys the shared plane cache by content digest: two Database
// objects holding identical concatenated sequences — two loads of one
// file, or a load and a fresh build — share one resident plane set.
// (Pointer identity, the old key, packed once per object and let reloads
// of the same file masquerade as distinct databases.)
type planeKey struct{ d db.Digest }

// planes returns the database's packed bit-planes through the process-wide
// cache: the first scan packs once (or reuses planes a v2 load
// installed), every later query, batch or session call against the same
// content reuses the resident planes — the software analogue of the
// card-DRAM-resident database of the paper's protocol.
func (d *Database) planes() *bitpar.Planes {
	return bitpar.SharedPlanes().Get(planeKey{d.d.Digest()}, d.d.EnsurePlanes)
}

// WarmPlanes makes the database's bit-planes cache-resident now — the
// deliberate warm-up servers run at startup so the first query never pays
// packing latency. After a v2 LoadDatabase this is free (the persisted
// planes are already installed); otherwise it packs once.
func (d *Database) WarmPlanes() { d.planes() }

// PlanesResident reports whether the shared cache currently holds this
// database's planes (installed, packed, or still packing).
func (d *Database) PlanesResident() bool {
	return bitpar.SharedPlanes().Contains(planeKey{d.d.Digest()})
}

// EvictPlanes drops this database's planes from the shared cache AND the
// database's own memoized copy, so the next scan packs from scratch — the
// cold-start control for benchmarks and memory-pressure handling.
func (d *Database) EvictPlanes() {
	bitpar.SharedPlanes().Invalidate(planeKey{d.d.Digest()})
	d.d.DropPlanes()
}

// AsReference exposes the database's concatenated sequence as a Reference
// for the single-reference APIs (AlignContext, AlignBatch) — hits carry
// global positions, without record attribution.
func (d *Database) AsReference() *Reference {
	return &Reference{seq: d.d.Seq()}
}

// planesForReference caches a standalone reference's bit-planes the same
// way (keyed on the Reference, which is immutable once built).
func planesForReference(ref *Reference) *bitpar.Planes {
	return bitpar.SharedPlanes().Get(ref, func() *bitpar.Planes {
		return bitpar.PackReference(ref.seq)
	})
}

// AlignDatabaseContext scans the whole database under a context and
// attributes hits to records, dropping windows that span record
// boundaries (concatenation artifacts). The scan is tiled into shards
// executed on the aligner's worker pool and is bit-exact with a serial
// scan. Cancellation and deadlines are honored at shard boundaries:
// undispatched shards are shed, shards already executing finish, and the
// call returns ctx.Err() within one shard of the cancel — recorded on
// align.canceled / align.deadline.exceeded. The shared plane cache is
// untouched by an abort (packing is atomic within the cache), so a later
// retry scans the same resident planes.
//
// When the scan-result cache is enabled (SetScanCacheCapacity), the call
// shares the cache- and singleflight-aware spine with Scan: repeats are
// answered from memory and concurrent identical scans collapse into one.
func (a *Aligner) AlignDatabaseContext(ctx context.Context, d *Database) ([]RecordHit, error) {
	p := a.p
	p.database = d
	res, err := p.run(ctx)
	if res == nil {
		return nil, err
	}
	return res.RecordHits, err
}

// AlignDatabaseStreamContext scans the database shard by shard under a
// context and delivers attributed hits to emit in position order while
// holding only a bounded number of shard results in memory — the way to
// scan a database whose hit list would not fit (or should not wait) in
// one slice. Return an error from emit to stop early. Cancellation
// checkpoints sit at every stage of the pipeline — shard dispatch, shard
// execution start, and the ordered merge before each emit — so the call
// returns ctx.Err() within one shard of the cancel, drains the in-flight
// shards it launched (no goroutine outlives the call), and records the
// abort on align.canceled / align.deadline.exceeded. Hits already emitted
// are valid: they are the complete, position-ordered prefix of the full
// scan up to the last merged shard. Under partial mode a *PartialError
// means every surviving shard's hits were emitted in order.
func (a *Aligner) AlignDatabaseStreamContext(ctx context.Context, d *Database, emit func(RecordHit) error) error {
	p := a.p
	p.database = d
	m := p.query.Elements()
	_, err := p.execute(ctx, nil, func(part [][]core.Hit) error {
		for _, h := range toRecordHits(d.d.Attribute(part[0], m)) {
			a.tm.hits.Inc()
			if err := emit(h); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

func toRecordHits(attributed []db.RecordHit) []RecordHit {
	out := make([]RecordHit, len(attributed))
	for i, h := range attributed {
		out[i] = RecordHit{
			RecordID:    h.RecordID,
			RecordIndex: h.RecordIndex,
			Offset:      h.Offset,
			Score:       h.Score,
		}
	}
	return out
}

// Session models the full deployment: an FPGA card holding the database
// resident in its DRAM, with queries streamed against it. Hits come from
// Scan of the database; the timing decomposition follows the paper's
// end-to-end measurement protocol.
type Session struct {
	d        *Database
	platform host.Platform
}

// NewSession creates a session on the paper's default platform (Kintex-7
// card, PCIe Gen3 x8, 8 GB card DRAM) with the database loaded. It fails
// if the packed database exceeds the card's DRAM.
func NewSession(d *Database) (*Session, error) {
	p := host.DefaultPlatform()
	if _, err := p.Load(d.Len()); err != nil {
		return nil, err
	}
	return &Session{d: d, platform: p}, nil
}

// QueryTiming decomposes one query's projected end-to-end time in seconds.
type QueryTiming struct {
	Encode, QueryTransfer, Kernel, Readback, Total float64
}

// scan runs req against the resident database at thresholdFrac: the
// request is validated as Scan validates it, then the accelerator build
// for its queries must fit the card before any scanning starts.
func (s *Session) scan(ctx context.Context, req ScanRequest, thresholdFrac float64) (*ScanResult, fpga.Estimate, error) {
	req.Database = s.d
	p, err := planAt(req, thresholdFrac)
	if err != nil {
		return nil, fpga.Estimate{}, err
	}
	elems := make([]int, len(p.progs))
	for i, prog := range p.progs {
		elems[i] = len(prog)
	}
	est, err := s.platform.Fit(elems...)
	if err != nil {
		return nil, fpga.Estimate{}, err
	}
	res, err := p.run(ctx)
	return res, est, err
}

// RunContext executes one query end-to-end under a context and returns
// attributed hits plus the timing decomposition; the readback leg counts
// the attributed hits. The resident-database scan honors cancellation and
// deadlines at shard boundaries and returns ctx.Err() without waiting for
// the remaining shards. The hits are the caller's own: the scan bypasses
// the result cache.
func (s *Session) RunContext(ctx context.Context, q *Query, thresholdFrac float64) ([]RecordHit, QueryTiming, error) {
	res, est, err := s.scan(ctx, ScanRequest{Query: q, NoCache: true}, thresholdFrac)
	if err != nil {
		return nil, QueryTiming{}, err
	}
	t := s.platform.Time(est, []int{q.Elements()}, []int{len(res.RecordHits)}, s.d.Len())
	return res.RecordHits, QueryTiming(t), nil
}

// RunBatchContext executes many queries against the resident database in
// one fused pass under a context, returning per-query attributed hits and
// the projected end-to-end batch seconds. The fused scan checks
// cancellation between shards for the whole batch at once, so an aborted
// batch returns ctx.Err() without scanning the remaining shards.
func (s *Session) RunBatchContext(ctx context.Context, queries []*Query, thresholdFrac float64) ([][]RecordHit, float64, error) {
	res, est, err := s.scan(ctx, ScanRequest{Queries: queries}, thresholdFrac)
	if err != nil {
		return nil, 0, err
	}
	out := make([][]RecordHit, len(res.PerQuery))
	elems, hits := make([]int, len(out)), make([]int, len(out))
	for i, qr := range res.PerQuery {
		out[i], elems[i], hits[i] = qr.RecordHits, queries[i].Elements(), len(qr.RecordHits)
	}
	return out, s.platform.Time(est, elems, hits, s.d.Len()).Total, nil
}

// batchPrograms validates every query of a batch up front — a batch either
// starts fully or fails with every offending index named, never mid-scan.
func batchPrograms(queries []*Query) ([]isa.Program, error) {
	progs := make([]isa.Program, len(queries))
	var bad []string
	for i, q := range queries {
		if q == nil || q.Elements() == 0 {
			bad = append(bad, strconv.Itoa(i))
			continue
		}
		progs[i] = q.program
	}
	if len(bad) > 0 {
		return nil, badQueryf("fabp: invalid batch queries at index %s (nil or empty)",
			strings.Join(bad, ", "))
	}
	return progs, nil
}

// planAt plans req at an explicit threshold fraction. The batch wrappers
// and Session take the fraction as an argument, so zero — ScanRequest's
// 0.8 default — is rejected like any other fraction outside (0,1].
func planAt(req ScanRequest, thresholdFrac float64) (*scanPlan, error) {
	if thresholdFrac == 0 {
		return nil, badOptionf("fabp: threshold fraction 0 outside (0,1]")
	}
	req.ThresholdFrac = thresholdFrac
	return req.plan()
}

// scanBatch runs a batch wrapper's request at thresholdFrac.
func scanBatch(req ScanRequest, thresholdFrac float64) (*ScanResult, error) {
	p, err := planAt(req, thresholdFrac)
	if err != nil {
		return nil, err
	}
	return p.run(context.Background())
}

// perQueryHits unpacks a Queries scan's per-query results with pick.
func perQueryHits[T any](res *ScanResult, err error, pick func(QueryResult) T) ([]T, error) {
	if err != nil {
		return nil, err
	}
	out := make([]T, len(res.PerQuery))
	for i, qr := range res.PerQuery {
		out[i] = pick(qr)
	}
	return out, nil
}

// AlignBatch scans one reference with many queries in a single fused pass,
// returning per-query hit lists. Thresholds are the given fraction of each
// query's own maximum score (rounded, not truncated). Every query is
// validated before any scanning starts. The reference packs into
// bit-planes once — cached across calls — and the fused batch kernel reads
// each reference tile once for the whole batch, bit-exact with K
// independent single-query scans. It is Scan with Queries and Reference
// set; use Scan for cancellation and a retry policy.
func AlignBatch(queries []*Query, ref *Reference, thresholdFrac float64) ([][]Hit, error) {
	res, err := scanBatch(ScanRequest{Queries: queries, Reference: ref}, thresholdFrac)
	return perQueryHits(res, err, func(qr QueryResult) []Hit { return qr.Hits })
}

// AlignDatabaseBatch scans the whole database once for every query of a
// batch and attributes each query's hits to records, dropping windows that
// span record boundaries. It is Scan with Queries and Database set; use
// Scan for cancellation and a retry policy.
func AlignDatabaseBatch(d *Database, queries []*Query, thresholdFrac float64) ([][]RecordHit, error) {
	res, err := scanBatch(ScanRequest{Queries: queries, Database: d}, thresholdFrac)
	return perQueryHits(res, err, func(qr QueryResult) []RecordHit { return qr.RecordHits })
}

// RunExperimentAs renders an experiment in the requested format: "text",
// "markdown" or "csv".
func RunExperimentAs(name, format string) (string, error) {
	f, err := experiments.ParseFormat(format)
	if err != nil {
		return "", err
	}
	t, err := experiments.Run(name)
	if err != nil {
		return "", err
	}
	return t.RenderAs(f)
}
