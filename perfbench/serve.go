package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fabp"
)

// serve_mixed: closed-loop HTTP clients against a spawned fabp-serve that
// preloads a v2 database file.
const (
	serveRecords      = 50
	serveRecordLen    = 20_000
	serveGenesPer     = 2
	serveHotPool      = 64
	serveBatchK       = 8
	serveStreamLen    = 200_000
	serveStreamGenes  = 2
	serveStreamBodies = 8
	serveClients      = 2
	// The request mix by count, fixed per block of 20 requests so every
	// window sees it exactly: 60 % /align (half from the hot pool the
	// result cache holds, half new variants), 20 % /align/batch, 10 %
	// /search, 10 % /align/stream. Each client shuffles its blocks.
	serveHotAligns   = 6
	serveFreshAligns = 6
	serveBatches     = 4
	serveSearches    = 2
	serveStreams     = 2
	// serveHotSkew is the Zipf exponent of hot-pool draws.
	serveHotSkew = 1.1
	listenMarker = "listening on "
)

type serveSession struct {
	e      *env
	in     dbInput
	lib    *fabp.Database // the same file loaded in-process, for the oracles
	srv    *process
	base   string
	client *http.Client
	setupT []time.Duration
	hot    []gene
	bodies []streamBody
	vars   *variants
	// windows counts windows run, so each draws its own request sequence.
	windows int
	serial  serialRate
}

// streamBody is one /align/stream request body and the genes planted in
// it, which are also its queries.
type streamBody struct {
	text  string
	genes []gene
}

func openServeMixed(e *env) (session, error) {
	if e.serveBin == "" {
		return nil, fmt.Errorf("serve_mixed needs -serve-bin")
	}
	s := &serveSession{
		e:      e,
		in:     makeDatabase(e.seed, "serve", serveRecords, serveRecordLen, serveGenesPer),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}, Timeout: time.Minute},
		vars:   newVariants(),
	}
	rng := rand.New(rand.NewSource(subSeed(e.seed, "hot", 0)))
	for _, i := range rng.Perm(len(s.in.genes))[:serveHotPool] {
		s.hot = append(s.hot, s.in.genes[i])
	}
	for i := 0; i < serveStreamBodies; i++ {
		text, genes := makeReference(subSeed(e.seed, "body", i), serveStreamLen, serveStreamGenes)
		s.bodies = append(s.bodies, streamBody{text, genes})
	}
	dbPath := filepath.Join(e.work, "serve.fdb")
	if err := writeDatabase(dbPath, s.in.fasta); err != nil {
		return nil, err
	}

	// Set-up: spawn the server until it logs that it is listening.
	times, p, line, err := timeStartup(func() *exec.Cmd {
		return exec.Command(e.serveBin, "-db", dbPath, "-addr", "127.0.0.1:0")
	}, listenMarker, syscall.SIGTERM)
	if err != nil {
		return nil, err
	}
	s.setupT, s.srv = times, p
	s.base = "http://" + strings.TrimSpace(line[strings.Index(line, listenMarker)+len(listenMarker):])
	if s.lib, err = loadDatabase(e.tr, dbPath); err != nil {
		s.close()
		return nil, err
	}
	// Fill the result cache with the hot pool before timing.
	for _, g := range s.hot {
		status, body, err := s.post("/align", "application/json", alignBody(g.protein))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("priming the result cache: %w", err)
		}
	}
	return s, nil
}

func (s *serveSession) setups() []time.Duration { return s.setupT }

func (s *serveSession) sequential() bool { return false }

func (s *serveSession) pid() string { return strconv.Itoa(s.srv.cmd.Process.Pid) }

func (s *serveSession) counters() (fabp.MetricsSnapshot, error) {
	var snap fabp.MetricsSnapshot
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

func (s *serveSession) close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.stop(syscall.SIGTERM)
	s.srv = nil
	s.client.CloseIdleConnections()
	return err
}

func (s *serveSession) window(d time.Duration, tr *tracer) (*meter, error) {
	m := newMeter()
	s.windows++
	deadline := m.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		rng := rand.New(rand.NewSource(subSeed(s.e.seed, fmt.Sprintf("client-w%d", s.windows), c)))
		zipf := rand.NewZipf(rng, serveHotSkew, 1, serveHotPool-1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var block []requestKind
			for time.Now().Before(deadline) {
				if len(block) == 0 {
					block = newBlock(rng)
				}
				s.request(m, tr, rng, zipf, block[0])
				block = block[1:]
			}
		}()
	}
	wg.Wait()
	m.wall = time.Since(m.start)
	return m, nil
}

type requestKind int

const (
	hotAlign requestKind = iota
	freshAlign
	batchAlign
	search
	stream
)

// newBlock is one shuffled block of the request mix.
func newBlock(rng *rand.Rand) []requestKind {
	var b []requestKind
	for kind, n := range map[requestKind]int{hotAlign: serveHotAligns, freshAlign: serveFreshAligns, batchAlign: serveBatches, search: serveSearches, stream: serveStreams} {
		for i := 0; i < n; i++ {
			b = append(b, kind)
		}
	}
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// request issues one request of the mix and checks its response.
func (s *serveSession) request(m *meter, tr *tracer, rng *rand.Rand, zipf *rand.Zipf, kind requestKind) {
	op := tr.newOp()
	switch kind {
	case hotAlign:
		g := s.hot[zipf.Uint64()]
		s.align(m, tr, op, g, g.protein)
	case freshAlign:
		g := s.in.genes[rng.Intn(len(s.in.genes))]
		s.align(m, tr, op, g, s.vars.of(rng, g.protein))
	case batchAlign:
		var gs []gene
		for _, i := range rng.Perm(len(s.in.genes))[:serveBatchK] {
			gs = append(gs, s.in.genes[i])
		}
		s.batch(m, tr, op, gs)
	case search:
		g := s.in.genes[rng.Intn(len(s.in.genes))]
		s.search(m, tr, op, g, s.vars.of(rng, g.protein))
	case stream:
		s.stream(m, tr, op, s.bodies[rng.Intn(len(s.bodies))])
	}
}

// replayNewQuery times the per-request query preparation the server does,
// on the benchmark side (traced windows only).
func replayNewQuery(tr *tracer, op uint64, parent *active, proteins ...string) {
	if tr == nil {
		return
	}
	for _, p := range proteins {
		sp := tr.start(op, parent, spanNewQuery)
		_, err := fabp.NewQuery(p)
		sp.end()
		if err != nil {
			panic(fmt.Sprintf("generated protein rejected: %v", err))
		}
	}
}

func (s *serveSession) post(path, ctype string, body io.Reader) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, ctype, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// timedPost sends one request inside a span and returns its latency.
func (s *serveSession) timedPost(tr *tracer, op uint64, path, query, ctype string, body io.Reader) (int, []byte, time.Duration, error) {
	sp := tr.start(op, nil, "http.POST "+path)
	t0 := time.Now()
	status, b, err := s.post(path+query, ctype, body)
	d := time.Since(t0)
	sp.end()
	return status, b, d, err
}

type wireHit struct {
	RecordIndex int `json:"record_index"`
	Offset      int `json:"offset"`
	Score       int `json:"score"`
}

type alignResponse struct {
	Hits      []wireHit `json:"hits"`
	Truncated bool      `json:"truncated"`
	Cache     string    `json:"cache"`
}

func alignBody(protein string) io.Reader {
	b, _ := json.Marshal(map[string]any{"query": protein, "threshold_frac": thresholdFrac})
	return bytes.NewReader(b)
}

func (s *serveSession) align(m *meter, tr *tracer, op uint64, g gene, protein string) {
	replayNewQuery(tr, op, nil, protein)
	status, body, d, err := s.timedPost(tr, op, "/align", "", "application/json", alignBody(protein))
	if err != nil || status != http.StatusOK {
		m.failedCall("/align: status %d, %v: %.200s", status, err, body)
		return
	}
	var r alignResponse
	if err := json.Unmarshal(body, &r); err != nil {
		m.failedCall("/align: %v", err)
		return
	}
	cached := r.Cache == string(fabp.CacheHit) || r.Cache == string(fabp.CacheShared)
	c := call{kind: "align", dur: d, nt: float64(len(s.in.seq)), target: len(s.in.seq), cached: cached, scanned: !cached, bytes: len(body)}
	if !cached {
		c.cells = float64(3*len(protein)) * float64(len(s.in.seq))
	}
	m.addCall(c)
	m.addOp(d, c.cells)
	if !hasWireHit(r.Hits, g) {
		m.fail("/align: no hit at planted gene %d/%d", g.record, g.offset)
	}
	if m.sampled("align") {
		m.addSample("/align vs library Scan", func() error {
			want, err := s.libraryScan(protein)
			if err != nil {
				return err
			}
			if want.Truncated != r.Truncated {
				return fmt.Errorf("truncated %v, library %v", r.Truncated, want.Truncated)
			}
			return sameRecordHits(r.Hits, want.RecordHits)
		})
	}
}

type batchResponse struct {
	Queries []struct {
		Hits      []wireHit `json:"hits"`
		Truncated bool      `json:"truncated"`
	} `json:"queries"`
}

func (s *serveSession) batch(m *meter, tr *tracer, op uint64, gs []gene) {
	qs := proteins(gs)
	replayNewQuery(tr, op, nil, qs...)
	req, _ := json.Marshal(map[string]any{"queries": qs, "threshold_frac": thresholdFrac})
	status, body, d, err := s.timedPost(tr, op, "/align/batch", "", "application/json", bytes.NewReader(req))
	if err != nil || status != http.StatusOK {
		m.failedCall("/align/batch: status %d, %v: %.200s", status, err, body)
		return
	}
	var r batchResponse
	if err := json.Unmarshal(body, &r); err != nil || len(r.Queries) != len(gs) {
		m.failedCall("/align/batch: %d results for %d queries, %v", len(r.Queries), len(gs), err)
		return
	}
	cells := float64(len(gs)*geneNt) * float64(len(s.in.seq))
	m.addCall(call{kind: "batch", dur: d, cells: cells, nt: float64(len(gs) * len(s.in.seq)), target: len(s.in.seq), scanned: true, bytes: len(body)})
	m.addOp(d, cells)
	for i, g := range gs {
		if !hasWireHit(r.Queries[i].Hits, g) {
			m.fail("/align/batch: query %d has no hit at planted gene %d/%d", i, g.record, g.offset)
		}
	}
	if m.sampled("batch") {
		m.addSample("/align/batch vs single library Scans", func() error {
			for i, p := range qs {
				want, err := s.libraryScan(p)
				if err != nil {
					return err
				}
				if err := sameRecordHits(r.Queries[i].Hits, want.RecordHits); err != nil {
					return fmt.Errorf("query %d: %w", i, err)
				}
			}
			return nil
		})
	}
}

type wireHSP struct {
	Frame    string  `json:"frame"`
	QStart   int     `json:"q_start"`
	QEnd     int     `json:"q_end"`
	SStart   int     `json:"s_start"`
	SEnd     int     `json:"s_end"`
	NucPos   int     `json:"nuc_pos"`
	Score    int     `json:"score"`
	BitScore float64 `json:"bit_score"`
	EValue   float64 `json:"evalue"`
}

type searchResponse struct {
	HSPs      []wireHSP `json:"hsps"`
	Truncated bool      `json:"truncated"`
	Cache     string    `json:"cache"`
}

func (s *serveSession) search(m *meter, tr *tracer, op uint64, g gene, protein string) {
	replayNewQuery(tr, op, nil, protein)
	req, _ := json.Marshal(map[string]any{"query": protein, "two_hit": true})
	status, body, d, err := s.timedPost(tr, op, "/search", "", "application/json", bytes.NewReader(req))
	if err != nil || status != http.StatusOK {
		m.failedCall("/search: status %d, %v: %.200s", status, err, body)
		return
	}
	var r searchResponse
	if err := json.Unmarshal(body, &r); err != nil {
		m.failedCall("/search: %v", err)
		return
	}
	cached := r.Cache == string(fabp.CacheHit) || r.Cache == string(fabp.CacheShared)
	c := call{kind: "search", dur: d, nt: float64(len(s.in.seq)), target: len(s.in.seq), cached: cached, bytes: len(body)}
	if !cached {
		c.cells = float64(3*len(protein)) * float64(len(s.in.seq))
	}
	m.addCall(c)
	m.addOp(d, c.cells)
	hsps := make([]fabp.HSP, len(r.HSPs))
	for i, h := range r.HSPs {
		hsps[i] = fabp.HSP(h)
	}
	if !coversGene(hsps, g.record*s.in.recLen+g.offset) {
		m.fail("/search: no forward HSP over planted gene %d/%d", g.record, g.offset)
	}
	if m.sampled("search") {
		m.addSample("/search vs serial library search", func() error {
			want, err := s.serial.search(protein, s.lib, nil)
			if err != nil {
				return err
			}
			return sameList(hsps, want.HSPs)
		})
	}
}

// streamLine is one NDJSON line of /align/stream: a hit, or the trailer
// (Done set).
type streamLine struct {
	Query *int   `json:"query"`
	Pos   int    `json:"pos"`
	Score int    `json:"score"`
	Done  *bool  `json:"done"`
	Error string `json:"error"`
}

func (s *serveSession) stream(m *meter, tr *tracer, op uint64, b streamBody) {
	qs := proteins(b.genes)
	replayNewQuery(tr, op, nil, qs...)
	params := url.Values{"query": qs, "threshold_frac": {strconv.FormatFloat(thresholdFrac, 'g', -1, 64)}}
	status, body, d, err := s.timedPost(tr, op, "/align/stream", "?"+params.Encode(), "text/plain", strings.NewReader(b.text))
	if err != nil || status != http.StatusOK {
		m.failedCall("/align/stream: status %d, %v: %.200s", status, err, body)
		return
	}
	hits := make([][]fabp.Hit, len(qs))
	done := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			m.failedCall("/align/stream: %v", err)
			return
		}
		switch {
		case l.Done != nil:
			done = *l.Done && l.Error == ""
		case l.Query != nil && *l.Query >= 0 && *l.Query < len(qs):
			hits[*l.Query] = append(hits[*l.Query], fabp.Hit{Pos: l.Pos, Score: l.Score})
		default:
			m.failedCall("/align/stream: unexpected line %.200s", sc.Text())
			return
		}
	}
	if !done {
		m.failedCall("/align/stream: no clean trailer: %.200s", body)
		return
	}
	cells := float64(len(qs)*geneNt) * float64(len(b.text))
	m.addCall(call{kind: "stream", dur: d, cells: cells, nt: float64(len(qs) * len(b.text)), target: len(b.text), scanned: true, bytes: len(body)})
	m.addOp(d, cells)
	for i, g := range b.genes {
		if !hasHit(hits[i], g.offset) {
			m.fail("/align/stream: query %d has no hit at planted gene %d", i, g.offset)
		}
	}
	if m.sampled("stream") {
		m.addSample("/align/stream vs library Reference scans", func() error {
			return sameAsReferenceScans(qs, b.text, hits)
		})
	}
}

// libraryScan is the oracle for a database request: the library's own
// uncached Scan of the same query, with the server's default hit cap.
func (s *serveSession) libraryScan(protein string) (*fabp.ScanResult, error) {
	q, err := fabp.NewQuery(protein)
	if err != nil {
		return nil, err
	}
	return fabp.Scan(context.Background(), fabp.ScanRequest{
		Query: q, Database: s.lib, ThresholdFrac: thresholdFrac, MaxHits: serverMaxHits, NoCache: true,
	})
}

// serverMaxHits is fabp-serve's default per-request hit cap.
const serverMaxHits = 1000

func sameRecordHits(got []wireHit, want []fabp.RecordHit) error {
	w := make([]wireHit, len(want))
	for i, h := range want {
		w[i] = wireHit{RecordIndex: h.RecordIndex, Offset: h.Offset, Score: h.Score}
	}
	return sameList(got, w)
}

func hasWireHit(hits []wireHit, g gene) bool {
	for _, h := range hits {
		if h.RecordIndex == g.record && h.Offset == g.offset {
			return true
		}
	}
	return false
}

func (s *serveSession) replay(l layerValues) error {
	var text strings.Builder
	for _, b := range s.bodies {
		text.WriteString(b.text)
	}
	l["tblastn.serial_nt_per_s"] = s.serial.rate()
	return replayLayers(l, s.in.seq, text.String(), proteins(s.hot[:serveBatchK]))
}
