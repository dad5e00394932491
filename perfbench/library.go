package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"fabp"
)

// The library workloads: one caller driving the public API in a closed
// loop, one cycle of calls after another.

// librarySession holds what every library workload shares.
type librarySession struct {
	e      *env
	setupT []time.Duration
	cycles int
}

func (s *librarySession) setups() []time.Duration { return s.setupT }

func (s *librarySession) sequential() bool { return true }

func (s *librarySession) pid() string { return "self" }

func (s *librarySession) counters() (fabp.MetricsSnapshot, error) {
	return fabp.DefaultMetrics().Snapshot(), nil
}

func (s *librarySession) close() error { return nil }

// loop runs cycle until d has passed and returns the window's meter.
// It first returns the set-up's garbage, mostly generated inputs, to the
// OS, so the window's resident set is the program's steady state rather
// than whatever the benchmark's set-up left behind.
func (s *librarySession) loop(d time.Duration, cycle func(m *meter, n int)) *meter {
	debug.FreeOSMemory()
	m := newMeter()
	for time.Since(m.start) < d {
		cycle(m, s.cycles)
		s.cycles++
	}
	m.wall = time.Since(m.start)
	return m
}

// newQuery prepares a query inside a span.
func newQuery(tr *tracer, op uint64, parent *active, protein string) (*fabp.Query, error) {
	sp := tr.start(op, parent, spanNewQuery)
	defer sp.end()
	return fabp.NewQuery(protein)
}

// loadDatabase loads a database file and warms its planes, the way a
// resident service starts.
func loadDatabase(tr *tracer, path string) (*fabp.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	op := tr.newOp()
	sp := tr.start(op, nil, spanLoad)
	d, err := fabp.LoadDatabase(bufio.NewReader(f))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	sp = tr.start(op, nil, spanWarm)
	d.WarmPlanes()
	sp.end()
	return d, nil
}

// prepareQueries prepares every protein listed in a queries file.
func prepareQueries(path string) ([]*fabp.Query, error) {
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	qs := make([]*fabp.Query, len(lines))
	for i, p := range lines {
		if qs[i], err = fabp.NewQuery(p); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// Input file names shared by a workload and its set-up probe.
const (
	dbFile      = "db.fdb"
	queriesFile = "queries.txt"
	refFile     = "reference.fa"
)

// ---- db_scan ----------------------------------------------------------

const (
	dbRecords   = 100
	dbRecordLen = 40_000
	dbGenesPer  = 2
	dbBatchK    = 16
)

type dbScanSession struct {
	librarySession
	in dbInput
	d  *fabp.Database
}

func openDBScan(e *env) (session, error) {
	s := &dbScanSession{
		librarySession: librarySession{e: e},
		in:             makeDatabase(e.seed, "db", dbRecords, dbRecordLen, dbGenesPer),
	}
	path := filepath.Join(e.work, dbFile)
	if err := writeDatabase(path, s.in.fasta); err != nil {
		return nil, err
	}
	if err := writeLines(filepath.Join(e.work, queriesFile), proteins(s.in.genes)); err != nil {
		return nil, err
	}
	var err error
	if s.setupT, err = probeSetups(e); err != nil {
		return nil, err
	}
	if s.d, err = loadDatabase(e.tr, path); err != nil {
		return nil, err
	}
	return s, nil
}

// probeDBScan is a resident scanner's start: load the database file, warm
// its planes and prepare the query pool.
func probeDBScan(dir string) error {
	f, err := os.Open(filepath.Join(dir, dbFile))
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := fabp.LoadDatabase(bufio.NewReader(f))
	if err != nil {
		return err
	}
	d.WarmPlanes()
	_, err = prepareQueries(filepath.Join(dir, queriesFile))
	return err
}

// window alternates one uncached single-query Scan and one K=16
// AlignDatabaseBatch, each with freshly drawn queries.
func (s *dbScanSession) window(d time.Duration, tr *tracer) (*meter, error) {
	ctx := context.Background()
	n := float64(s.d.Len())
	var failure error
	m := s.loop(d, func(m *meter, cycle int) {
		if failure != nil {
			return
		}
		rng := rand.New(rand.NewSource(subSeed(s.e.seed, "db-cycle", cycle)))
		op := tr.newOp()
		root := tr.start(op, nil, "cycle")
		defer root.end()

		g := s.in.genes[rng.Intn(len(s.in.genes))]
		q, err := newQuery(tr, op, root, g.protein)
		if err != nil {
			failure = err
			return
		}
		sp := tr.start(op, root, spanScan)
		t0 := time.Now()
		res, err := fabp.Scan(ctx, fabp.ScanRequest{Query: q, Database: s.d, ThresholdFrac: thresholdFrac, NoCache: true})
		single := time.Since(t0)
		sp.end()
		if err != nil {
			m.failedCall("Scan: %v", err)
			return
		}
		m.addCall(call{kind: "single", dur: single, cells: float64(q.Elements()) * n, nt: n, target: s.d.Len(), scanned: true})
		if !hasRecordHit(res.RecordHits, g) {
			m.fail("Scan: no hit at planted gene %d/%d", g.record, g.offset)
		}

		var gs []gene
		qs := make([]*fabp.Query, 0, dbBatchK)
		cells := 0.0
		for _, i := range rng.Perm(len(s.in.genes))[:dbBatchK] {
			g := s.in.genes[i]
			q, err := newQuery(tr, op, root, g.protein)
			if err != nil {
				failure = err
				return
			}
			gs = append(gs, g)
			qs = append(qs, q)
			cells += float64(q.Elements()) * n
		}
		sp = tr.start(op, root, spanBatch)
		t0 = time.Now()
		out, err := fabp.AlignDatabaseBatch(s.d, qs, thresholdFrac)
		batch := time.Since(t0)
		sp.end()
		if err != nil || len(out) != len(qs) {
			m.failedCall("AlignDatabaseBatch: %d results for %d queries: %v", len(out), len(qs), err)
			return
		}
		m.addCall(call{kind: "batch", dur: batch, cells: cells, nt: float64(len(qs)) * n, target: s.d.Len(), scanned: true})
		m.addOp(single+batch, float64(q.Elements())*n+cells)
		for i, g := range gs {
			if !hasRecordHit(out[i], g) {
				m.fail("AlignDatabaseBatch: query %d has no hit at planted gene %d/%d", i, g.record, g.offset)
			}
		}
		if m.sampled("batch") {
			m.addSample("fused batch vs single Scans", func() error {
				for i, q := range qs {
					want, err := fabp.Scan(ctx, fabp.ScanRequest{Query: q, Database: s.d, ThresholdFrac: thresholdFrac, NoCache: true})
					if err != nil {
						return err
					}
					if err := sameList(out[i], want.RecordHits); err != nil {
						return fmt.Errorf("query %d: %w", i, err)
					}
				}
				return nil
			})
		}
	})
	return m, failure
}

func (s *dbScanSession) replay(l layerValues) error {
	return replayLayers(l, s.in.seq, s.in.seq, proteins(s.in.genes[:dbBatchK]))
}

// ---- fresh_targets ----------------------------------------------------

const (
	freshStreamLen   = 1 << 20
	freshStreamK     = 4
	freshStreamBases = 4
	freshContigLen   = 40_000
	freshContigs     = 4
	freshContigBases = 16
)

// base is a generated target that fresh_targets rotates into new ones:
// rotation by off gives the letters base[off:] then base[:off]. Offsets
// never cut a planted gene and never repeat, so every target is content
// the program has not seen, at no generation cost inside the loop.
type base struct {
	text  string
	genes []gene
	used  map[int]bool
}

func newBase(seed int64, n, genes int) *base {
	text, gs := makeReference(seed, n, genes)
	return &base{text: text, genes: gs, used: map[int]bool{}}
}

// rotate draws a new offset and returns the rotated target's two parts
// and its genes.
func (b *base) rotate(rng *rand.Rand) (head, tail string, genes []gene) {
	off := 0
	for off == 0 || b.used[off] || b.cuts(off) {
		off = rng.Intn(len(b.text))
	}
	b.used[off] = true
	genes = make([]gene, len(b.genes))
	for i, g := range b.genes {
		g.offset = (g.offset - off + len(b.text)) % len(b.text)
		genes[i] = g
	}
	return b.text[off:], b.text[:off], genes
}

func (b *base) cuts(off int) bool {
	for _, g := range b.genes {
		if g.offset < off && off < g.offset+geneNt {
			return true
		}
	}
	return false
}

type freshSession struct {
	librarySession
	streams, contigs []*base
	// last is the most recent cycle's stream, which the replays reuse.
	last      string
	lastGenes []gene
}

func openFreshTargets(e *env) (session, error) {
	s := &freshSession{librarySession: librarySession{e: e}}
	var pool []gene
	for i := 0; i < freshStreamBases; i++ {
		s.streams = append(s.streams, newBase(subSeed(e.seed, "stream", i), freshStreamLen, freshStreamK))
		pool = append(pool, s.streams[i].genes...)
	}
	for i := 0; i < freshContigBases; i++ {
		s.contigs = append(s.contigs, newBase(subSeed(e.seed, "contig", i), freshContigLen, 1))
		pool = append(pool, s.contigs[i].genes...)
	}
	// The set-up a fresh-target scanner has is preparing its queries.
	if err := writeLines(filepath.Join(e.work, queriesFile), proteins(pool)); err != nil {
		return nil, err
	}
	var err error
	if s.setupT, err = probeSetups(e); err != nil {
		return nil, err
	}
	return s, nil
}

func probeFreshTargets(dir string) error {
	_, err := prepareQueries(filepath.Join(dir, queriesFile))
	return err
}

// window runs cycles of one K=4 AlignBatchStream over a new 1 Mnt ASCII
// stream and four uncached Scans of new 40 Knt contigs given as
// References.
func (s *freshSession) window(d time.Duration, tr *tracer) (*meter, error) {
	ctx := context.Background()
	var failure error
	m := s.loop(d, func(m *meter, cycle int) {
		if failure != nil {
			return
		}
		rng := rand.New(rand.NewSource(subSeed(s.e.seed, "fresh-cycle", cycle)))
		head, tail, sg := s.streams[cycle%freshStreamBases].rotate(rng)
		contigs := make([]string, freshContigs)
		cg := make([]gene, freshContigs)
		for i := range contigs {
			h, t, gs := s.contigs[(cycle*freshContigs+i)%freshContigBases].rotate(rng)
			contigs[i], cg[i] = h+t, gs[0]
		}

		op := tr.newOp()
		root := tr.start(op, nil, "cycle")
		defer root.end()
		n := len(head) + len(tail)
		qs := make([]*fabp.Query, len(sg))
		cells := 0.0
		for i, g := range sg {
			q, err := newQuery(tr, op, root, g.protein)
			if err != nil {
				failure = err
				return
			}
			qs[i] = q
			cells += float64(q.Elements()) * float64(n)
		}
		hits := make([][]fabp.Hit, len(qs))
		sp := tr.start(op, root, spanStream)
		t0 := time.Now()
		err := fabp.AlignBatchStream(qs, io.MultiReader(strings.NewReader(head), strings.NewReader(tail)), thresholdFrac,
			func(qi int, h fabp.Hit) error {
				hits[qi] = append(hits[qi], h)
				return nil
			})
		total := time.Since(t0)
		sp.end()
		if err != nil {
			m.failedCall("AlignBatchStream: %v", err)
			return
		}
		m.addCall(call{kind: "stream", dur: total, cells: cells, nt: float64(len(qs) * n), target: n, scanned: true})
		for i, g := range sg {
			if !hasHit(hits[i], g.offset) {
				m.fail("AlignBatchStream: query %d has no hit at planted gene %d", i, g.offset)
			}
		}
		if m.sampled("stream") {
			ps := proteins(sg)
			m.addSample("stream vs Reference scans", func() error { return sameAsReferenceScans(ps, head+tail, hits) })
		}
		if tr != nil {
			s.last, s.lastGenes = head+tail, sg
		}

		for i, contig := range contigs {
			g := cg[i]
			q, err := newQuery(tr, op, root, g.protein)
			if err != nil {
				failure = err
				return
			}
			t0 := time.Now()
			sp := tr.start(op, root, spanNewReference)
			ref, err := fabp.NewReference(contig)
			sp.end()
			if err != nil {
				m.failedCall("NewReference: %v", err)
				return
			}
			sp = tr.start(op, root, spanScan)
			res, err := fabp.Scan(ctx, fabp.ScanRequest{Query: q, Reference: ref, ThresholdFrac: thresholdFrac, NoCache: true})
			sp.end()
			dur := time.Since(t0)
			if err != nil {
				m.failedCall("Scan: %v", err)
				return
			}
			total += dur
			cc := float64(q.Elements()) * float64(len(contig))
			cells += cc
			m.addCall(call{kind: "contig", dur: dur, cells: cc, nt: float64(len(contig)), target: len(contig), scanned: true})
			if !hasHit(res.Hits, g.offset) {
				m.fail("Scan: contig query has no hit at planted gene %d", g.offset)
			}
			if m.sampled("contig") {
				m.addSample("contig Scan vs bit-parallel kernel", func() error {
					want, err := fabp.Scan(ctx, fabp.ScanRequest{Query: q, Reference: ref, ThresholdFrac: thresholdFrac, Kernel: fabp.KernelBitParallel, NoCache: true})
					if err != nil {
						return err
					}
					return sameList(res.Hits, want.Hits)
				})
			}
		}
		m.addOp(total, cells)
	})
	return m, failure
}

func (s *freshSession) replay(l layerValues) error {
	if err := replayLayers(l, s.last, s.last, proteins(s.lastGenes)); err != nil {
		return err
	}
	// The scalar engine runs on the contigs here, so replay it on one.
	c := s.contigs[0]
	return scalarReplay(l, c.text, c.genes[0].protein)
}

// ---- protein_search ---------------------------------------------------

const (
	proteinRefLen = 1 << 20
	proteinGenes  = 64
)

type proteinSession struct {
	librarySession
	text   string
	genes  []gene
	ref    *fabp.Reference
	serial serialRate
}

func openProteinSearch(e *env) (session, error) {
	s := &proteinSession{librarySession: librarySession{e: e}}
	s.text, s.genes = makeReference(subSeed(e.seed, "protein", 0), proteinRefLen, proteinGenes)
	var fa strings.Builder
	fa.WriteString(">reference\n")
	for t := s.text; len(t) > 0; {
		n := min(fastaWidth, len(t))
		fa.WriteString(t[:n])
		fa.WriteByte('\n')
		t = t[n:]
	}
	path := filepath.Join(e.work, refFile)
	if err := os.WriteFile(path, []byte(fa.String()), 0o644); err != nil {
		return nil, err
	}
	if err := writeLines(filepath.Join(e.work, queriesFile), proteins(s.genes)); err != nil {
		return nil, err
	}
	var err error
	if s.setupT, err = probeSetups(e); err != nil {
		return nil, err
	}
	if s.ref, err = readReference(path); err != nil {
		return nil, err
	}
	return s, nil
}

func readReference(path string) (*fabp.Reference, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ref, _, err := fabp.ReadReferenceFasta(bufio.NewReader(f))
	return ref, err
}

// probeProteinSearch is a protein searcher's start: read the reference
// and prepare the query pool.
func probeProteinSearch(dir string) error {
	if _, err := readReference(filepath.Join(dir, refFile)); err != nil {
		return err
	}
	_, err := prepareQueries(filepath.Join(dir, queriesFile))
	return err
}

// searchOptions is the configuration protein_search runs: two-hit
// seeding at Threads = GOMAXPROCS, where sharded search is measured
// against its serial replay.
func searchOptions(threads int) *fabp.ProteinSearchOptions {
	return &fabp.ProteinSearchOptions{TwoHit: true, Threads: threads}
}

// window runs uncached protein searches with freshly prepared queries.
func (s *proteinSession) window(d time.Duration, tr *tracer) (*meter, error) {
	ctx := context.Background()
	n := float64(s.ref.Len())
	var failure error
	m := s.loop(d, func(m *meter, cycle int) {
		if failure != nil {
			return
		}
		rng := rand.New(rand.NewSource(subSeed(s.e.seed, "search", cycle)))
		g := s.genes[rng.Intn(len(s.genes))]
		op := tr.newOp()
		q, err := newQuery(tr, op, nil, g.protein)
		if err != nil {
			failure = err
			return
		}
		sp := tr.start(op, nil, spanSearch)
		t0 := time.Now()
		res, err := fabp.Scan(ctx, fabp.ScanRequest{Query: q, Reference: s.ref, NoCache: true, ProteinSearch: searchOptions(procs())})
		dur := time.Since(t0)
		sp.end()
		if err != nil {
			m.failedCall("Scan(protein): %v", err)
			return
		}
		cells := float64(q.Elements()) * n
		m.addCall(call{kind: "search", dur: dur, cells: cells, nt: n, target: s.ref.Len()})
		m.addOp(dur, cells)
		if !coversGene(res.HSPs, g.offset) {
			m.fail("Scan(protein): no forward HSP over planted gene %d", g.offset)
		}
		if m.sampled("search") {
			m.addSample("Threads=GOMAXPROCS vs Threads=1 search", func() error {
				want, err := s.serial.search(g.protein, nil, s.ref)
				if err != nil {
					return err
				}
				return sameList(res.HSPs, want.HSPs)
			})
		}
	})
	return m, failure
}

func (s *proteinSession) replay(l layerValues) error {
	l["tblastn.serial_nt_per_s"] = s.serial.rate()
	return replayLayers(l, s.text, s.text, proteins(s.genes[:freshStreamK]))
}

// ---- shared checks ----------------------------------------------------

// serialRate runs serial (Threads=1) protein searches, the oracle for the
// sharded ones, and keeps their throughput.
type serialRate struct {
	mu  sync.Mutex
	nt  float64
	dur time.Duration
}

func (r *serialRate) search(protein string, d *fabp.Database, ref *fabp.Reference) (*fabp.ScanResult, error) {
	q, err := fabp.NewQuery(protein)
	if err != nil {
		return nil, err
	}
	req := fabp.ScanRequest{Query: q, Database: d, Reference: ref, NoCache: true, ProteinSearch: searchOptions(1)}
	if d != nil {
		req.MaxHits = serverMaxHits
	}
	t0 := time.Now()
	res, err := fabp.Scan(context.Background(), req)
	dur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	n := 0
	if d != nil {
		n = d.Len()
	} else {
		n = ref.Len()
	}
	r.mu.Lock()
	r.nt += float64(n)
	r.dur += dur
	r.mu.Unlock()
	return res, nil
}

// rate is subject nt × queries per second over the serial searches run.
func (r *serialRate) rate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ratio(r.nt, r.dur.Seconds())
}

func hasRecordHit(hits []fabp.RecordHit, g gene) bool {
	for _, h := range hits {
		if h.RecordIndex == g.record && h.Offset == g.offset {
			return true
		}
	}
	return false
}

func hasHit(hits []fabp.Hit, pos int) bool {
	for _, h := range hits {
		if h.Pos == pos {
			return true
		}
	}
	return false
}

// coversGene reports whether a forward-frame HSP overlaps the planted
// gene starting at nt position pos.
func coversGene(hsps []fabp.HSP, pos int) bool {
	for _, h := range hsps {
		end := h.NucPos + 3*(h.SEnd-h.SStart)
		if strings.HasPrefix(h.Frame, "+") && h.NucPos < pos+geneNt && end > pos {
			return true
		}
	}
	return false
}

// sameList reports the first difference between an output and its
// oracle's.
func sameList[T comparable](got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("result %d is %+v, oracle %+v", i, got[i], want[i])
		}
	}
	return nil
}

// sameAsReferenceScans checks streamed hits against uncached Scans of the
// same letters given as a Reference, one per query.
func sameAsReferenceScans(proteins []string, text string, hits [][]fabp.Hit) error {
	ref, err := fabp.NewReference(text)
	if err != nil {
		return err
	}
	for i, p := range proteins {
		q, err := fabp.NewQuery(p)
		if err != nil {
			return err
		}
		want, err := fabp.Scan(context.Background(), fabp.ScanRequest{Query: q, Reference: ref, ThresholdFrac: thresholdFrac, NoCache: true})
		if err != nil {
			return err
		}
		if err := sameList(hits[i], want.Hits); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}
