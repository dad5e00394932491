// server.go holds the fabp-serve HTTP layer, separated from main so the
// handler stack is testable with httptest: a preloaded database, four scan
// routes sharing one pipeline onto the facade's Scan front door
// (content-addressed result cache included), a deadline-aware weighted
// admission queue, and the observability endpoints.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"context"

	"fabp"
	"fabp/internal/sched"
	"fabp/internal/telemetry"
)

// serverConfig sizes a server.
type serverConfig struct {
	// db is the preloaded database every query scans.
	db *fabp.Database
	// maxInflight bounds concurrently executing align requests (the
	// admission queue's capacity, weighted in scan units: a K-query batch
	// weighs K).
	maxInflight int
	// maxQueue bounds how many requests may wait for a slot before the
	// server sheds with 429; 0 (the default) keeps the historical
	// immediate-shed behavior — capacity full means 429 now.
	maxQueue int
	// cacheBytes bounds the process-wide scan-result cache; 0 (the
	// default) leaves it disabled, the library default.
	cacheBytes int64
	// defaultTimeout applies when a request names no timeout_ms;
	// maxTimeout caps what a request may ask for.
	defaultTimeout, maxTimeout time.Duration
	// maxHits caps hits returned per request when the request does not
	// set max_hits lower (0 = serverDefaultMaxHits).
	maxHits int
	// maxBatch caps the queries one /align/batch request may carry
	// (0 = serverDefaultMaxBatch).
	maxBatch int
	// planeSource records where the database's bit-planes came from at
	// startup ("persisted" for a v2 file's plane section, "packed" when
	// the server packed them itself) — surfaced on /healthz.
	planeSource string
	// retryPolicy is the server's scan resilience (retries, backoff,
	// hedging) on every nucleotide route; an /align request's retry_budget
	// overrides the retry count within [0, serverMaxRetryBudget]. The zero
	// policy scans single-attempt, the historical behavior.
	retryPolicy fabp.RetryPolicy
}

const (
	serverDefaultTimeout  = 10 * time.Second
	serverDefaultMaxHits  = 1000
	serverDefaultMaxBatch = 64
	// serverMaxRetryBudget caps a request's retry_budget: a client cannot
	// buy more re-execution than this no matter what it asks for.
	serverMaxRetryBudget = 10
	// serverMaxBodyBytes caps the JSON body of /align, /align/batch and
	// /search; larger bodies are answered 413 before any decoding work
	// piles up. A full batch of 64 queries of 8000 residues fits with room
	// to spare. /align/stream bodies are the reference itself and stay
	// unbounded.
	serverMaxBodyBytes = 1 << 20
	// serverReadHeaderTimeout bounds how long a client may take to send
	// its request headers, so a slow-header client cannot pin a goroutine.
	serverReadHeaderTimeout = 10 * time.Second
)

// server is the fabp-serve handler state.
type server struct {
	cfg serverConfig
	// adm is the weighted, deadline-aware admission queue every scan
	// passes through — except cache hits, which bypass it entirely.
	adm *sched.Admission
	// scan executes one decoded request against the Scan front door under
	// the request context. Overridable in tests to model slow or stuck
	// scans deterministically.
	scan func(ctx context.Context, req fabp.ScanRequest) (*fabp.ScanResult, error)
	// lookup probes the scan-result cache without scanning or queueing;
	// a hit answers the request before admission. Overridable in tests.
	lookup func(req fabp.ScanRequest) (*fabp.ScanResult, bool)
	// m holds the serve-layer counters, registered beside the alignment
	// pipeline's metrics in the process-wide registry so /metrics is one
	// coherent snapshot.
	m serveMetrics
}

type serveMetrics struct {
	requests, rejected, timeouts, clientGone, failed *telemetry.Counter
	tooLarge                                         *telemetry.Counter
	batchRequests, batchQueries                      *telemetry.Counter
	streamRequests                                   *telemetry.Counter
	searchRequests                                   *telemetry.Counter
	degraded, cacheHits                              *telemetry.Counter
	inflight                                         *telemetry.Gauge
	latency                                          *telemetry.Histogram
}

func newServer(cfg serverConfig) *server {
	if cfg.maxInflight < 1 {
		cfg.maxInflight = 1
	}
	if cfg.defaultTimeout <= 0 {
		cfg.defaultTimeout = serverDefaultTimeout
	}
	if cfg.maxTimeout <= 0 {
		cfg.maxTimeout = cfg.defaultTimeout
	}
	if cfg.maxHits <= 0 {
		cfg.maxHits = serverDefaultMaxHits
	}
	if cfg.maxBatch <= 0 {
		cfg.maxBatch = serverDefaultMaxBatch
	}
	if cfg.planeSource == "" {
		cfg.planeSource = "packed"
	}
	if cfg.cacheBytes > 0 {
		fabp.SetScanCacheCapacity(cfg.cacheBytes)
	}
	reg := telemetry.Default()
	return &server{
		cfg:    cfg,
		adm:    sched.NewAdmission(cfg.maxInflight, cfg.maxQueue),
		scan:   fabp.Scan,
		lookup: fabp.CachedScan,
		m: serveMetrics{
			requests:       reg.Counter("serve.requests"),
			rejected:       reg.Counter("serve.rejected.overload"),
			timeouts:       reg.Counter("serve.timeouts"),
			clientGone:     reg.Counter("serve.client.gone"),
			failed:         reg.Counter("serve.failed"),
			tooLarge:       reg.Counter("serve.rejected.too_large"),
			batchRequests:  reg.Counter("serve.batch.requests"),
			batchQueries:   reg.Counter("serve.batch.queries"),
			streamRequests: reg.Counter("serve.stream.requests"),
			searchRequests: reg.Counter("serve.search.requests"),
			degraded:       reg.Counter("serve.degraded"),
			cacheHits:      reg.Counter("serve.cache.hits"),
			inflight:       reg.Gauge("serve.inflight"),
			latency:        reg.Histogram("serve.latency"),
		},
	}
}

// handler builds the route table: four wire forms of one scan pipeline,
// plus the observability endpoints.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /align", s.pipeline(s.decodeAlign))
	mux.HandleFunc("POST /align/batch", s.pipeline(s.decodeBatch))
	mux.HandleFunc("POST /align/stream", s.pipeline(s.decodeStream))
	mux.HandleFunc("POST /search", s.pipeline(s.decodeSearch))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// alignRequest is the /align request body.
type alignRequest struct {
	// Query is the protein in one-letter codes (required).
	Query string `json:"query"`
	// ThresholdFrac is the hit threshold as a fraction of the maximum
	// score (default 0.8). Threshold is an absolute score instead;
	// setting both is a client error.
	ThresholdFrac *float64 `json:"threshold_frac,omitempty"`
	Threshold     *int     `json:"threshold,omitempty"`
	// Kernel names the alignment implementation: auto (default), scalar
	// or bitparallel.
	Kernel string `json:"kernel,omitempty"`
	// MaxHits caps the hits returned (default and ceiling: the server's
	// -max-hits).
	MaxHits int `json:"max_hits,omitempty"`
	// TimeoutMs bounds this request's scan (default: the server's
	// -timeout, capped at -max-timeout). The deadline is also what the
	// admission queue sheds against: a request that cannot finish within
	// it is answered 429 instead of burning a slot on a guaranteed 504.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// RetryBudget overrides the server's per-shard retry count for this
	// request (clamped to [0, 10]); nil inherits the server's -retries.
	RetryBudget *int `json:"retry_budget,omitempty"`
	// Partial opts this request into degraded completion: if shards still
	// fail after retries, respond 200 with the surviving hits,
	// degraded=true and the uncovered ranges, instead of a 5xx. Partial
	// responses are never served from or stored in the result cache.
	Partial bool `json:"partial,omitempty"`
}

// alignHit is one hit in the /align response.
type alignHit struct {
	Record      string `json:"record"`
	RecordIndex int    `json:"record_index"`
	Offset      int    `json:"offset"`
	Score       int    `json:"score"`
}

// failedRange is one uncovered window-start range of a degraded scan.
type failedRange struct {
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
	Error string `json:"error"`
}

// alignResponse is the /align response body.
type alignResponse struct {
	Residues  int        `json:"residues"`
	Elements  int        `json:"elements"`
	Threshold int        `json:"threshold"`
	MaxScore  int        `json:"max_score"`
	Hits      []alignHit `json:"hits"`
	Truncated bool       `json:"truncated"`
	ElapsedMs float64    `json:"elapsed_ms"`
	// Cache is the result's provenance: "hit" (served resident, no scan,
	// no admission slot), "shared" (joined an in-flight identical scan),
	// "miss" (this request scanned and seeded the cache), "bypass"
	// (cache disabled or ineligible). Empty when the scan hook is stubbed.
	Cache string `json:"cache,omitempty"`
	// Degraded marks a partial-mode response whose scan lost shards after
	// retries: Hits covers everything outside FailedRanges.
	Degraded     bool          `json:"degraded"`
	FailedRanges []failedRange `json:"failed_ranges,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// requestError is a request the pipeline rejects while decoding, before
// any admission or scan work: 400, or 413 for an oversized body.
type requestError struct {
	status int
	msg    string
}

func badRequest(format string, args ...any) *requestError {
	return &requestError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// scanCall is one request decoded from its route's wire form: the
// ScanRequest to run, its deadline, and how the route answers.
type scanCall struct {
	req     fabp.ScanRequest
	timeout time.Duration
	// op names the operation in deadline and failure messages.
	op string
	// encode writes the route's response for a clean or degraded result —
	// or, once a streaming route has committed its response, for a
	// failed one.
	encode func(w http.ResponseWriter, res *fabp.ScanResult, err error, elapsed time.Duration)
	// committed, set by streaming routes, reports that the status line is
	// written: a late error then ends the stream instead of picking a
	// status.
	committed func() bool
}

// decodeBody decodes a JSON request body of at most serverMaxBodyBytes
// into v: 413 for an oversized body, counted on serve.rejected.too_large;
// 400 otherwise.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *requestError {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, serverMaxBodyBytes)).Decode(v)
	if err == nil {
		return nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.m.tooLarge.Inc()
		return &requestError{
			status: http.StatusRequestEntityTooLarge,
			msg:    fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
		}
	}
	return badRequest("bad request body: %v", err)
}

// parseQuery parses a request's lone protein.
func parseQuery(protein string) (*fabp.Query, *requestError) {
	if strings.TrimSpace(protein) == "" {
		return nil, badRequest("missing query")
	}
	q, err := fabp.NewQuery(protein)
	if err != nil {
		return nil, badRequest("invalid query: %v", err)
	}
	return q, nil
}

// parseQueries parses a batch's proteins (1 to -max-batch of them) and
// counts them on serve.batch.queries; missing is the empty-batch message.
func (s *server) parseQueries(proteins []string, missing string) ([]*fabp.Query, *requestError) {
	if len(proteins) == 0 {
		return nil, badRequest("%s", missing)
	}
	if len(proteins) > s.cfg.maxBatch {
		return nil, badRequest("batch of %d queries exceeds the server's limit of %d", len(proteins), s.cfg.maxBatch)
	}
	queries := make([]*fabp.Query, len(proteins))
	for i, p := range proteins {
		if strings.TrimSpace(p) == "" {
			return nil, badRequest("query %d is empty", i)
		}
		q, err := fabp.NewQuery(p)
		if err != nil {
			return nil, badRequest("invalid query %d: %v", i, err)
		}
		queries[i] = q
	}
	s.m.batchQueries.Add(uint64(len(queries)))
	return queries, nil
}

// timeout resolves a request's timeout_ms: the server's -timeout when
// unset, capped at -max-timeout.
func (s *server) timeout(ms int) time.Duration {
	t := s.cfg.defaultTimeout
	if ms > 0 {
		t = time.Duration(ms) * time.Millisecond
	}
	return min(t, s.cfg.maxTimeout)
}

// maxHits resolves a request's max_hits: the server's -max-hits unless the
// request asks for fewer.
func (s *server) maxHits(n int) int {
	if n > 0 && n < s.cfg.maxHits {
		return n
	}
	return s.cfg.maxHits
}

// ms renders a duration as the wire's fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// retryAfterSeconds rounds a shed hint up to whole seconds for the
// Retry-After header (minimum 1 — a zero hint is not actionable).
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// pipeline serves one scan route. It decodes the route's wire form into a
// ScanRequest, answers from the result cache when it can (a hit takes no
// admission slot), and otherwise takes the request's weight — K units for
// K queries, since admission's currency is scan work — under the request
// deadline, scans, and hands the outcome to respond. serve.latency and
// elapsed_ms start at arrival, so sheds and queue waits count on every
// route.
func (s *server) pipeline(decode func(http.ResponseWriter, *http.Request) (*scanCall, *requestError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Inc()
		t0 := time.Now()
		defer func() { s.m.latency.Observe(time.Since(t0)) }()

		c, rerr := decode(w, r)
		if rerr != nil {
			writeError(w, rerr.status, "%s", rerr.msg)
			return
		}
		if res, ok := s.lookup(c.req); ok {
			s.m.cacheHits.Inc()
			c.encode(w, res, nil, time.Since(t0))
			return
		}

		// The request context roots the scan: a client disconnect cancels
		// it, the per-request deadline bounds it, and a server drain (see
		// main) lets it finish before the listener closes. The same deadline
		// drives admission: infeasible requests are shed as 429, not queued
		// into a guaranteed 504. Admission is all-or-nothing: the queue
		// clamps an over-wide batch to full capacity and grants atomically.
		ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
		defer cancel()
		weight := max(len(c.req.Queries), 1)
		if err := s.adm.Admit(ctx, weight); err != nil {
			s.writeAdmitError(w, err, c.timeout)
			return
		}
		s.m.inflight.Add(int64(weight))
		tScan := time.Now()
		res, err := s.scan(ctx, c.req)
		observed := time.Since(tScan)
		if err != nil {
			// Failed or aborted scans are not representative work; keep
			// them out of the admission cost estimate.
			observed = 0
		}
		s.adm.Release(weight, observed)
		s.m.inflight.Add(-int64(weight))
		s.respond(w, c, res, err, time.Since(t0))
	}
}

// writeAdmitError answers a request the admission queue did not grant:
// ShedErrors become 429 + Retry-After, a deadline that expired while
// queued becomes 504, and a vanished client gets nothing.
func (s *server) writeAdmitError(w http.ResponseWriter, err error, timeout time.Duration) {
	var shed *sched.ShedError
	switch {
	case errors.As(err, &shed):
		s.m.rejected.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
		writeError(w, http.StatusTooManyRequests, "%v", shed)
	case errors.Is(err, context.DeadlineExceeded):
		s.m.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout,
			"request deadline expired before admission (%s)", timeout)
	default:
		// Client went away while queued; nobody is reading the response.
		s.m.clientGone.Inc()
	}
}

// respond maps a scan outcome onto the route. A clean result goes to the
// route's encoder, and so does a degraded one — a 200, not a 5xx: the
// client asked for exactly that contract. Every other error goes through
// the one error table, unless a stream already committed its response:
// then the route's encoder ends the stream with the error.
func (s *server) respond(w http.ResponseWriter, c *scanCall, res *fabp.ScanResult, err error, elapsed time.Duration) {
	var pe *fabp.PartialError
	switch {
	case err == nil:
	case c.committed != nil && c.committed():
	case errors.As(err, &pe) && res != nil:
		s.m.degraded.Inc()
	default:
		switch s.failure(err) {
		case http.StatusGatewayTimeout:
			writeError(w, http.StatusGatewayTimeout, "%s exceeded its %s deadline", c.op, c.timeout)
		case http.StatusBadRequest:
			writeError(w, http.StatusBadRequest, "%v", err)
		case http.StatusInternalServerError:
			writeError(w, http.StatusInternalServerError, "%s failed: %v", c.op, err)
		}
		return
	}
	c.encode(w, res, err, elapsed)
}

// failure is the pipeline's one error table: it counts a failed scan and
// picks its status — 504 for the deadline, 400 for the request's own
// fault (ErrBadQuery, ErrBadOption), 500 for anything else, and 0 for a
// client that went away (nobody is reading the response).
func (s *server) failure(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.m.timeouts.Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		s.m.clientGone.Inc()
		return 0
	case errors.Is(err, fabp.ErrBadQuery), errors.Is(err, fabp.ErrBadOption):
		return http.StatusBadRequest
	}
	s.m.failed.Inc()
	return http.StatusInternalServerError
}

// alignHits renders attributed hits for the wire (never null).
func alignHits(hits []fabp.RecordHit) []alignHit {
	out := make([]alignHit, len(hits))
	for i, h := range hits {
		out[i] = alignHit{Record: h.RecordID, RecordIndex: h.RecordIndex, Offset: h.Offset, Score: h.Score}
	}
	return out
}

// decodeAlign decodes POST /align: one protein against the resident
// database.
func (s *server) decodeAlign(w http.ResponseWriter, r *http.Request) (*scanCall, *requestError) {
	var req alignRequest
	if rerr := s.decodeBody(w, r, &req); rerr != nil {
		return nil, rerr
	}
	q, rerr := parseQuery(req.Query)
	if rerr != nil {
		return nil, rerr
	}
	kernel := fabp.KernelAuto
	if req.Kernel != "" {
		var err error
		if kernel, err = fabp.ParseKernel(req.Kernel); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	rp := s.cfg.retryPolicy
	if req.RetryBudget != nil {
		if *req.RetryBudget < 0 {
			return nil, badRequest("negative retry_budget %d", *req.RetryBudget)
		}
		rp.MaxRetries = min(*req.RetryBudget, serverMaxRetryBudget)
	}
	sreq := fabp.ScanRequest{
		Query:       q,
		Database:    s.cfg.db,
		Kernel:      kernel,
		MaxHits:     s.maxHits(req.MaxHits),
		RetryPolicy: rp,
		Partial:     req.Partial,
	}
	switch {
	case req.Threshold != nil:
		sreq.Threshold = req.Threshold
	case req.ThresholdFrac != nil:
		sreq.ThresholdFrac = *req.ThresholdFrac
	}
	return &scanCall{req: sreq, timeout: s.timeout(req.TimeoutMs), op: "scan",
		encode: func(w http.ResponseWriter, res *fabp.ScanResult, _ error, elapsed time.Duration) {
			resp := alignResponse{
				Residues:  q.Residues(),
				Elements:  q.Elements(),
				Threshold: res.Threshold,
				MaxScore:  q.MaxScore(),
				Hits:      alignHits(res.RecordHits),
				Truncated: res.Truncated,
				Cache:     string(res.Cache),
				ElapsedMs: ms(elapsed),
			}
			if res.Degraded {
				resp.Degraded = true
				resp.FailedRanges = make([]failedRange, len(res.FailedRanges))
				for i, fr := range res.FailedRanges {
					resp.FailedRanges[i] = failedRange{Lo: fr.Lo, Hi: fr.Hi, Error: fr.Err.Error()}
				}
			}
			writeJSON(w, http.StatusOK, resp)
		}}, nil
}

// searchRequest is the /search request body: a TBLASTN-style protein
// search of the resident database through the Scan spine.
type searchRequest struct {
	// Query is the protein in one-letter codes (required).
	Query string `json:"query"`
	// MinScore is the raw BLOSUM62 HSP cutoff. Omitted selects the BLAST
	// default (35); an explicit 0 or negative value keeps every HSP.
	MinScore *int `json:"min_score,omitempty"`
	// TwoHit enables BLAST's two-hit seeding (default one-hit).
	TwoHit bool `json:"two_hit,omitempty"`
	// Frames limits the search to the first N translated frames
	// (3 = forward strand only; default 6 = full TBLASTN).
	Frames int `json:"frames,omitempty"`
	// MaxEValue, when positive, discards HSPs whose E-value exceeds it.
	MaxEValue float64 `json:"max_evalue,omitempty"`
	// MaxHits caps the HSPs returned (default and ceiling: the server's
	// -max-hits).
	MaxHits int `json:"max_hits,omitempty"`
	// TimeoutMs bounds this request's search (default: the server's
	// -timeout, capped at -max-timeout).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// searchHSP is one HSP in the /search response.
type searchHSP struct {
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

// searchStats profiles the pipeline run behind a /search response.
type searchStats struct {
	IndexEntries int `json:"index_entries"`
	WordLookups  int `json:"word_lookups"`
	WordHits     int `json:"word_hits"`
	Extensions   int `json:"extensions"`
}

// searchResponse is the /search response body.
type searchResponse struct {
	Residues  int          `json:"residues"`
	HSPs      []searchHSP  `json:"hsps"`
	Truncated bool         `json:"truncated"`
	Cache     string       `json:"cache,omitempty"`
	ElapsedMs float64      `json:"elapsed_ms"`
	Stats     *searchStats `json:"stats,omitempty"`
}

// decodeSearch decodes POST /search: a protein query against all (or the
// forward) translated frames of the resident database. Thread count is
// not part of the protein cache key, so any earlier identical search
// answers from the cache.
func (s *server) decodeSearch(w http.ResponseWriter, r *http.Request) (*scanCall, *requestError) {
	s.m.searchRequests.Inc()
	var req searchRequest
	if rerr := s.decodeBody(w, r, &req); rerr != nil {
		return nil, rerr
	}
	q, rerr := parseQuery(req.Query)
	if rerr != nil {
		return nil, rerr
	}
	opts := fabp.ProteinSearchOptions{
		Threads:   runtime.GOMAXPROCS(0),
		Frames:    req.Frames,
		TwoHit:    req.TwoHit,
		MaxEValue: req.MaxEValue,
	}
	if req.MinScore != nil {
		// The wire contract is simpler than the library's: any explicit
		// non-positive min_score means "keep every HSP".
		opts.MinScore = *req.MinScore
		if *req.MinScore <= 0 {
			opts.MinScore = fabp.MinScoreAll
		}
	}
	sreq := fabp.ScanRequest{Query: q, Database: s.cfg.db, MaxHits: s.maxHits(req.MaxHits), ProteinSearch: &opts}
	return &scanCall{req: sreq, timeout: s.timeout(req.TimeoutMs), op: "search",
		encode: func(w http.ResponseWriter, res *fabp.ScanResult, _ error, elapsed time.Duration) {
			hsps := make([]searchHSP, len(res.HSPs))
			for i, h := range res.HSPs {
				hsps[i] = searchHSP{
					Frame:  h.Frame,
					QStart: h.QStart, QEnd: h.QEnd,
					SStart: h.SStart, SEnd: h.SEnd,
					NucPos:   h.NucPos,
					Score:    h.Score,
					BitScore: h.BitScore,
					EValue:   h.EValue,
				}
			}
			resp := searchResponse{
				Residues:  q.Residues(),
				HSPs:      hsps,
				Truncated: res.Truncated,
				Cache:     string(res.Cache),
				ElapsedMs: ms(elapsed),
			}
			if st := res.ProteinStats; st != nil {
				resp.Stats = &searchStats{
					IndexEntries: st.IndexEntries,
					WordLookups:  st.WordLookups,
					WordHits:     st.WordHits,
					Extensions:   st.Extensions,
				}
			}
			writeJSON(w, http.StatusOK, resp)
		}}, nil
}

// batchAlignRequest is the /align/batch request body: one fused scan of
// the resident database for every query, all sharing one threshold
// fraction.
type batchAlignRequest struct {
	// Queries are proteins in one-letter codes (required, at most the
	// server's -max-batch).
	Queries []string `json:"queries"`
	// ThresholdFrac is every query's hit threshold as a fraction of its
	// own maximum score (default 0.8).
	ThresholdFrac *float64 `json:"threshold_frac,omitempty"`
	// MaxHits caps the hits returned per query (default and ceiling: the
	// server's -max-hits).
	MaxHits int `json:"max_hits,omitempty"`
	// TimeoutMs bounds the whole batch scan (default: the server's
	// -timeout, capped at -max-timeout).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// batchQueryResult is one query's slice of the /align/batch response.
type batchQueryResult struct {
	Residues  int        `json:"residues"`
	Elements  int        `json:"elements"`
	MaxScore  int        `json:"max_score"`
	Hits      []alignHit `json:"hits"`
	Truncated bool       `json:"truncated"`
}

// batchAlignResponse is the /align/batch response body; Queries is
// index-aligned with the request's queries.
type batchAlignResponse struct {
	Queries   []batchQueryResult `json:"queries"`
	ElapsedMs float64            `json:"elapsed_ms"`
}

// decodeBatch decodes POST /align/batch: the whole batch scans the
// resident database in one fused pass (each reference tile read once for
// every query) and weighs K admission units, so a batch can't slip K
// queries' worth of load past a limit tuned for single scans. Batches
// bypass the result cache — the batch, not the query, is the unit of work
// here.
func (s *server) decodeBatch(w http.ResponseWriter, r *http.Request) (*scanCall, *requestError) {
	s.m.batchRequests.Inc()
	var req batchAlignRequest
	if rerr := s.decodeBody(w, r, &req); rerr != nil {
		return nil, rerr
	}
	queries, rerr := s.parseQueries(req.Queries, "empty batch: queries is required")
	if rerr != nil {
		return nil, rerr
	}
	sreq := fabp.ScanRequest{
		Queries:     queries,
		Database:    s.cfg.db,
		MaxHits:     s.maxHits(req.MaxHits),
		RetryPolicy: s.cfg.retryPolicy,
	}
	if req.ThresholdFrac != nil {
		sreq.ThresholdFrac = *req.ThresholdFrac
	}
	return &scanCall{req: sreq, timeout: s.timeout(req.TimeoutMs), op: "batch scan",
		encode: func(w http.ResponseWriter, res *fabp.ScanResult, _ error, elapsed time.Duration) {
			resp := batchAlignResponse{Queries: make([]batchQueryResult, len(queries)), ElapsedMs: ms(elapsed)}
			for i, q := range queries {
				var qr fabp.QueryResult
				if i < len(res.PerQuery) {
					qr = res.PerQuery[i]
				}
				resp.Queries[i] = batchQueryResult{
					Residues:  q.Residues(),
					Elements:  q.Elements(),
					MaxScore:  q.MaxScore(),
					Hits:      alignHits(qr.RecordHits),
					Truncated: qr.Truncated,
				}
			}
			writeJSON(w, http.StatusOK, resp)
		}}, nil
}

// streamHit is one NDJSON hit line of the /align/stream response: the
// query's index in the request, the hit's global position in the streamed
// reference, and its score.
type streamHit struct {
	Query int `json:"query"`
	Pos   int `json:"pos"`
	Score int `json:"score"`
}

// streamTrailer is the final NDJSON line of the /align/stream response.
// Done is false when the scan ended early; Error then says why, and every
// hit line already written remains valid (they cover the stream prefix).
type streamTrailer struct {
	Done      bool    `json:"done"`
	Hits      int     `json:"hits"`
	Truncated bool    `json:"truncated"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Error     string  `json:"error,omitempty"`
}

// ndjsonStream writes the /align/stream response as the scan emits hits:
// one NDJSON line per hit, flushed at once — the first commits the 200 —
// then one trailer line.
type ndjsonStream struct {
	w     http.ResponseWriter
	enc   *json.Encoder
	hits  int
	wrote bool
}

// hit is the scan's Emit: it writes one hit line.
func (st *ndjsonStream) hit(qi int, h fabp.Hit) error {
	if !st.wrote {
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.wrote = true
	}
	st.hits++
	if err := st.enc.Encode(streamHit{Query: qi, Pos: h.Pos, Score: h.Score}); err != nil {
		return err
	}
	if f, ok := st.w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// decodeStream decodes POST /align/stream: the request body is a raw
// nucleotide stream (letters, whitespace tolerated, unbounded length) and
// the query parameters name K proteins; the server packs each chunk of the
// body into bit-planes once and the fused batch kernel scores all K
// queries from those shared plane words — K queries cost one read+pack per
// chunk. Hits stream back as NDJSON lines as each chunk completes,
// followed by one trailer line. Like /align/batch, the request weighs K
// admission units; unlike it, hits carry stream positions, not record
// attributions — the reference is the client's stream, not the resident
// database. Errors after the first hit line surface in the trailer (the
// status line is already committed); earlier errors use the normal JSON
// error surface.
func (s *server) decodeStream(w http.ResponseWriter, r *http.Request) (*scanCall, *requestError) {
	s.m.streamRequests.Inc()
	params := r.URL.Query()
	queries, rerr := s.parseQueries(params["query"], "missing query parameters")
	if rerr != nil {
		return nil, rerr
	}
	var frac float64
	if v := params.Get("threshold_frac"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, badRequest("bad threshold_frac: %v", err)
		}
		frac = f
	}
	var maxHits, timeoutMs int
	for _, p := range []struct {
		name string
		dst  *int
	}{{"max_hits", &maxHits}, {"timeout_ms", &timeoutMs}} {
		if v := params.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, badRequest("bad %s: %v", p.name, err)
			}
			*p.dst = n
		}
	}
	st := &ndjsonStream{w: w, enc: json.NewEncoder(w)}
	sreq := fabp.ScanRequest{
		Queries:       queries,
		Stream:        r.Body,
		Emit:          st.hit,
		ThresholdFrac: frac,
		MaxHits:       s.maxHits(maxHits),
		RetryPolicy:   s.cfg.retryPolicy,
	}
	return &scanCall{req: sreq, timeout: s.timeout(timeoutMs), op: "stream scan",
		committed: func() bool { return st.wrote },
		encode: func(w http.ResponseWriter, res *fabp.ScanResult, err error, elapsed time.Duration) {
			trailer := streamTrailer{
				Done:      err == nil,
				Hits:      st.hits,
				Truncated: res != nil && res.Truncated,
				ElapsedMs: ms(elapsed),
			}
			if err != nil {
				if s.failure(err) == 0 {
					return // nobody is reading; skip the trailer
				}
				trailer.Error = err.Error()
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = st.enc.Encode(trailer)
		}}, nil
}

// healthzResponse is the /healthz body: liveness plus the shape of the
// resident database, its warm-start state, and the admission/cache
// posture.
type healthzResponse struct {
	Status   string `json:"status"`
	Records  int    `json:"records"`
	LengthNt int    `json:"length_nt"`
	Inflight int    `json:"inflight"`
	Capacity int    `json:"capacity"`
	// QueueDepth is how many admitted-pending requests are waiting right
	// now (0 when -max-queue is 0, the immediate-shed configuration).
	QueueDepth int `json:"queue_depth"`
	// CacheCapacityBytes is the scan-result cache bound (0 = disabled);
	// CacheResidentBytes is its current footprint.
	CacheCapacityBytes int64 `json:"cache_capacity_bytes"`
	CacheResidentBytes int64 `json:"cache_resident_bytes"`
	// Planes names where the bit-planes came from at startup ("persisted"
	// from a v2 file, "packed" by this process); PlanesResident reports
	// whether they are in the shared cache right now — the readiness
	// signal that the first query will not pay packing latency.
	Planes         string `json:"planes"`
	PlanesResident bool   `json:"planes_resident"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cs := fabp.ScanCacheSnapshot()
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:             "ok",
		Records:            s.cfg.db.NumRecords(),
		LengthNt:           s.cfg.db.Len(),
		Inflight:           s.adm.Held(),
		Capacity:           s.adm.Capacity(),
		QueueDepth:         s.adm.QueueDepth(),
		CacheCapacityBytes: cs.CapacityBytes,
		CacheResidentBytes: cs.ResidentBytes,
		Planes:             s.cfg.planeSource,
		PlanesResident:     s.cfg.db.PlanesResident(),
	})
}

// handleMetrics serves the process-wide telemetry snapshot as expvar-style
// JSON: the alignment pipeline's counters (align.*, scan.*, pool.*,
// cache.*, rcache.*, admission.*) plus the serve.* layer registered here.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b, err := json.MarshalIndent(fabp.DefaultMetrics(), "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
	_, _ = w.Write([]byte("\n"))
}

// logf is the server's log hook (swappable in tests to keep output quiet).
var logf = log.Printf
