package tblastn

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fabp/internal/bio"
	"fabp/internal/faultinject"
	"fabp/internal/sched"
	kastats "fabp/internal/stats"
	"fabp/internal/swalign"
)

// Sentinel option values. The zero Options selects BLAST-flavoured
// defaults, so "no cutoff" needs an explicit spelling.
const (
	// MinScoreAll disables the raw-score cutoff: every HSP the extender
	// produces is kept (extension itself requires a positive best score).
	// The zero value cannot express this because a zero Options selects
	// the BLAST default (35).
	MinScoreAll = -1

	// NeighborThresholdAll opens the neighborhood index to every word
	// pair scoring at least -1 — effectively every seed a productive
	// extension could start from. The zero value selects the BLAST
	// default (11).
	NeighborThresholdAll = -1
)

// Options tune the search pipeline; zero values take BLAST-like defaults
// via Resolve.
type Options struct {
	// NeighborThreshold is the word-pair score to enter the index (T).
	// Zero selects the BLAST default (11); NeighborThresholdAll admits
	// effectively every word pair.
	NeighborThreshold int
	// TwoHit requires two non-overlapping same-diagonal word hits within
	// HitWindow residues before extending (BLAST's default strategy).
	TwoHit bool
	// HitWindow is the two-hit distance window (A).
	HitWindow int
	// XDrop stops ungapped extension when the running score falls this far
	// below the best seen.
	XDrop int
	// MinScore discards HSPs scoring lower (raw BLOSUM score cutoff).
	// Zero selects the BLAST default (35); MinScoreAll keeps every HSP.
	MinScore int
	// Threads is the worker count (the paper measures 1 and 12). Frames
	// are the unit of parallelism, so at most Frames workers run. The HSP
	// set and Stats are invariant under Threads: each frame runs the same
	// serial scan and outputs merge in frame order.
	Threads int
	// Frames limits the search to the first N frames (3 = forward only,
	// matching FabP's single-strand scan; 6 = full TBLASTN).
	Frames int
	// MaxEValue, when positive, discards HSPs whose Karlin-Altschul
	// E-value exceeds it (applied after MinScore).
	MaxEValue float64
	// GappedRefine re-aligns each surviving HSP's neighbourhood with
	// Smith-Waterman (BLOSUM62, affine 11/1), filling GappedScore.
	GappedRefine bool
	// KeepContained disables the default culling of HSPs whose query and
	// subject ranges are contained in a higher-scoring same-frame HSP
	// (BLAST's dominance filter).
	KeepContained bool
	// RefineMargin is the residue margin around the HSP used for gapped
	// refinement (default 20).
	RefineMargin int
}

// Resolve fills unset fields with BLAST-flavoured values and validates
// the rest. It is idempotent: resolving a resolved Options is a no-op,
// so callers may pass either raw or resolved options to Search*. The
// *All sentinels (-1) pass through unchanged and are honoured by the
// pipeline; other negative values are rejected.
func (o Options) Resolve() (Options, error) {
	switch {
	case o.NeighborThreshold == 0:
		o.NeighborThreshold = 11
	case o.NeighborThreshold < NeighborThresholdAll:
		return o, fmt.Errorf("tblastn: neighbor threshold %d invalid (use NeighborThresholdAll for maximal seeding)", o.NeighborThreshold)
	}
	switch {
	case o.MinScore == 0:
		o.MinScore = 35
	case o.MinScore < MinScoreAll:
		return o, fmt.Errorf("tblastn: min score %d invalid (use MinScoreAll to keep every HSP)", o.MinScore)
	}
	switch {
	case o.Threads == 0:
		o.Threads = 1
	case o.Threads < 0:
		return o, fmt.Errorf("tblastn: threads must be non-negative, got %d", o.Threads)
	}
	switch {
	case o.HitWindow == 0:
		o.HitWindow = 40
	case o.HitWindow < 0:
		return o, fmt.Errorf("tblastn: hit window must be non-negative, got %d", o.HitWindow)
	}
	switch {
	case o.XDrop == 0:
		o.XDrop = 16
	case o.XDrop < 0:
		return o, fmt.Errorf("tblastn: x-drop must be non-negative, got %d", o.XDrop)
	}
	switch {
	case o.Frames == 0:
		o.Frames = NumFrames
	case o.Frames < 1 || o.Frames > NumFrames:
		return o, fmt.Errorf("tblastn: frames must be 1..6, got %d", o.Frames)
	}
	switch {
	case o.RefineMargin == 0:
		o.RefineMargin = 20
	case o.RefineMargin < 0:
		return o, fmt.Errorf("tblastn: refine margin must be non-negative, got %d", o.RefineMargin)
	}
	if o.MaxEValue < 0 || o.MaxEValue != o.MaxEValue {
		return o, fmt.Errorf("tblastn: max E-value must be non-negative, got %v", o.MaxEValue)
	}
	return o, nil
}

// Defaults fills unset fields with BLAST-flavoured values. It is
// Resolve without the validation: invalid fields pass through and fail
// inside Search. Kept for callers that only want the default view.
func (o Options) Defaults() Options {
	r, err := o.Resolve()
	if err != nil {
		return o
	}
	return r
}

// HSP is a high-scoring segment pair: an ungapped local alignment between
// the query and one translated frame.
type HSP struct {
	Frame Frame
	// QStart/QEnd delimit the query residues (half-open).
	QStart, QEnd int
	// SStart/SEnd delimit the frame's protein positions (half-open).
	SStart, SEnd int
	// Score is the raw BLOSUM62 segment score.
	Score int
	// NucPos is the forward-strand nucleotide offset of the subject
	// segment's lowest-address codon base.
	NucPos int
	// BitScore and EValue are Karlin-Altschul statistics over the search
	// space (ungapped BLOSUM62 parameters).
	BitScore float64
	EValue   float64
	// GappedScore is the Smith-Waterman score of the refined alignment
	// window (0 unless Options.GappedRefine is set).
	GappedScore int
}

// Stats profiles one search, exposing the pipeline costs the paper
// discusses (hash build, lookups, extensions). All fields are invariant
// under Options.Threads.
type Stats struct {
	IndexEntries int
	WordLookups  int
	WordHits     int
	Extensions   int
	HSPs         int
}

// Search runs the TBLASTN pipeline for query q over reference ref.
func Search(q bio.ProtSeq, ref bio.NucSeq, opts Options) ([]HSP, Stats, error) {
	return SearchContext(context.Background(), q, ref, opts)
}

// SearchContext is Search with cancellation: the scan observes ctx at
// frame dispatch, frame merge, and periodically inside each frame scan,
// returning ctx.Err() once it fires.
func SearchContext(ctx context.Context, q bio.ProtSeq, ref bio.NucSeq, opts Options) ([]HSP, Stats, error) {
	o, err := opts.Resolve()
	if err != nil {
		return nil, Stats{}, err
	}
	idx, err := BuildIndex(q, o.NeighborThreshold)
	if err != nil {
		return nil, Stats{}, err
	}
	return searchWithIndex(ctx, idx, ref, &o)
}

// SearchWithIndex runs the scan phase with a prebuilt query index
// (amortizing index construction over many references).
func SearchWithIndex(idx *Index, ref bio.NucSeq, opts Options) ([]HSP, Stats, error) {
	return SearchWithIndexContext(context.Background(), idx, ref, opts)
}

// SearchWithIndexContext is SearchWithIndex with cancellation.
func SearchWithIndexContext(ctx context.Context, idx *Index, ref bio.NucSeq, opts Options) ([]HSP, Stats, error) {
	o, err := opts.Resolve()
	if err != nil {
		return nil, Stats{}, err
	}
	return searchWithIndex(ctx, idx, ref, &o)
}

// searchWithIndex runs the pipeline on resolved options.
func searchWithIndex(ctx context.Context, idx *Index, ref bio.NucSeq, o *Options) ([]HSP, Stats, error) {
	tm.searches.Inc()
	start := time.Now()
	defer func() { tm.scanLatency.Observe(time.Since(start)) }()

	if err := ctx.Err(); err != nil {
		tm.canceled.Inc()
		return nil, Stats{}, err
	}

	stats := Stats{IndexEntries: idx.Entries()}
	frames, all, err := scanFrames(ctx, idx, ref, o, &stats)
	if err != nil {
		tm.canceled.Inc()
		return nil, Stats{}, err
	}

	// Karlin-Altschul statistics over the translated search space (every
	// frame's residues), then the optional E-value filter and gapped
	// refinement pass.
	params := kastats.UngappedBLOSUM62()
	dbResidues := 0
	for i := range frames {
		dbResidues += len(frames[i].Prot)
	}
	kept := all[:0]
	for _, h := range all {
		h.BitScore = params.BitScore(h.Score)
		h.EValue = params.EValue(h.Score, len(idx.Query), dbResidues)
		if o.MaxEValue > 0 && h.EValue > o.MaxEValue {
			continue
		}
		if o.GappedRefine {
			h.GappedScore = refineGapped(idx.Query, &frames[int(h.Frame)], h, o.RefineMargin)
		}
		kept = append(kept, h)
	}
	all = kept

	sort.Slice(all, func(i, j int) bool { return lessHSP(&all[i], &all[j]) })
	if !o.KeepContained {
		all = cullContained(all)
	}
	stats.HSPs = len(all)

	tm.wordLookups.Add(uint64(stats.WordLookups))
	tm.wordHits.Add(uint64(stats.WordHits))
	tm.extensions.Add(uint64(stats.Extensions))
	tm.hsps.Add(uint64(stats.HSPs))
	return all, stats, nil
}

// lessHSP is the result ordering: score-descending, then ascending on
// every coordinate so equal-scoring HSPs have a total order and the
// final sort (and the cullContained pass that walks it) is deterministic
// regardless of arrival order.
func lessHSP(a, b *HSP) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Frame != b.Frame {
		return a.Frame < b.Frame
	}
	if a.SStart != b.SStart {
		return a.SStart < b.SStart
	}
	if a.QStart != b.QStart {
		return a.QStart < b.QStart
	}
	if a.QEnd != b.QEnd {
		return a.QEnd < b.QEnd
	}
	return a.SEnd < b.SEnd
}

// diagSlot is one diagonal's seeding state, tagged with its diagonal:
// last is the subject position of the most recent unpaired word hit,
// ext the subject end of the last HSP accepted there. int32 positions
// keep a slot at 16 bytes and cover frames of up to 2^31 residues.
type diagSlot struct {
	diag, last, ext int32
	hasLast, hasExt bool
}

// diagRing is the per-frame seeding state machine: two-hit pairing and
// extension suppression per diagonal, held in a power-of-two ring of
// slots indexed by diag & mask. A slot whose tag differs reads as empty.
// The ring is exact: hits arrive in non-decreasing subject order, so at
// subject position j only diagonals in [j-len(q)+WordSize, j] can still
// be read, and a ring of at least len(q) slots gives each of them its own
// slot. A diagonal that takes over a slot only ever evicts a dead one.
type diagRing struct {
	twoHit    bool
	hitWindow int
	mask      int32
	slots     []diagSlot
}

func newDiagRing(qLen int, o *Options) *diagRing {
	n := 1
	for n < qLen {
		n <<= 1
	}
	return &diagRing{
		twoHit:    o.TwoHit,
		hitWindow: o.HitWindow,
		mask:      int32(n - 1),
		slots:     make([]diagSlot, n),
	}
}

// slot returns diag's slot, emptying it first if it holds another
// (necessarily dead) diagonal.
func (r *diagRing) slot(diag int32) *diagSlot {
	s := &r.slots[diag&r.mask]
	if s.diag != diag {
		*s = diagSlot{diag: diag}
	}
	return s
}

// step feeds the word hit (query position i, subject position j) into
// the machine and reports whether it triggers an extension. Hits must
// arrive in non-decreasing subject order.
func (r *diagRing) step(i, j int) bool {
	s := r.slot(int32(j - i))
	if s.hasExt && j < int(s.ext) {
		return false // already inside an HSP on this diagonal
	}
	if !r.twoHit {
		return true
	}
	switch {
	case !s.hasLast || j-int(s.last) > r.hitWindow:
		s.last, s.hasLast = int32(j), true // first hit, or stale: restart the pair
	case j-int(s.last) < WordSize:
		// Overlapping the remembered hit: keep the earlier one.
	default:
		s.hasLast = false
		return true
	}
	return false
}

// accept records an accepted HSP's extent so later hits inside it are
// suppressed.
func (r *diagRing) accept(diag, sEnd int) {
	s := r.slot(int32(diag))
	s.ext, s.hasExt = int32(sEnd), true
}

// ctxCheckStride is how many subject positions a frame scan covers
// between context checks.
const ctxCheckStride = 4096

// frameScan is one frame's translation and scan output.
type frameScan struct {
	frame TranslatedFrame
	hsps  []HSP
	st    Stats
	err   error
}

// scanFrames translates and scans the first o.Frames frames of ref. Each
// frame starts its own diagonal state, so frames are independent jobs:
// they run on a pool of min(Threads, Frames) workers (Threads=1 runs them
// inline, in order) and their outputs are concatenated in frame order.
// That is the serial scan's exact order, so HSPs and Stats do not depend
// on Threads. With more cores than frames the extra cores stay idle.
func scanFrames(ctx context.Context, idx *Index, ref bio.NucSeq, o *Options, st *Stats) ([]TranslatedFrame, []HSP, error) {
	outs := make([]frameScan, o.Frames)
	pool := sched.NewPool(min(o.Threads, o.Frames))
	if err := pool.Each(ctx, len(outs), func(fi int) {
		out := &outs[fi]
		out.frame = translateFrame(ref, Frame(fi))
		out.hsps, out.st, out.err = scanFrame(ctx, idx, &out.frame, o)
	}); err != nil {
		return nil, nil, err
	}

	frames := make([]TranslatedFrame, len(outs))
	var all []HSP
	for fi := range outs {
		out := &outs[fi]
		if out.err != nil {
			return nil, nil, out.err
		}
		if err := faultinject.Check(ctx, faultinject.SiteShardMerge, uint64(fi)); err != nil {
			return nil, nil, err
		}
		frames[fi] = out.frame
		all = append(all, out.hsps...)
		st.WordLookups += out.st.WordLookups
		st.WordHits += out.st.WordHits
		st.Extensions += out.st.Extensions
	}
	return frames, all, nil
}

// scanFrame seeds and extends one translated frame, checking ctx every
// ctxCheckStride subject positions.
func scanFrame(ctx context.Context, idx *Index, tf *TranslatedFrame, o *Options) ([]HSP, Stats, error) {
	var hsps []HSP
	var st Stats
	q, s := idx.Query, tf.Prot
	ring := newDiagRing(len(q), o)
	for j := 0; j+WordSize <= len(s); j++ {
		if j%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, Stats{}, err
			}
		}
		st.WordLookups++
		for _, qi := range idx.Lookup(s[j], s[j+1], s[j+2]) {
			st.WordHits++
			i := int(qi)
			if !ring.step(i, j) {
				continue
			}
			st.Extensions++
			h, ok := extend(q, s, i, j, o.XDrop)
			if ok && h.Score >= o.MinScore {
				h.Frame = tf.Frame
				h.NucPos = tf.NucStart(h.SStart)
				hsps = append(hsps, h)
				ring.accept(j-i, h.SEnd)
			}
		}
	}
	return hsps, st, nil
}

// cullContained removes HSPs whose query and subject ranges both lie
// inside a higher-scoring HSP of the same frame (input sorted best-first).
func cullContained(hsps []HSP) []HSP {
	kept := hsps[:0]
	for _, h := range hsps {
		contained := false
		for _, k := range kept {
			if k.Frame == h.Frame &&
				k.QStart <= h.QStart && h.QEnd <= k.QEnd &&
				k.SStart <= h.SStart && h.SEnd <= k.SEnd {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, h)
		}
	}
	return kept
}

// extend performs ungapped X-drop extension around the seed word at query
// position i / subject position j.
func extend(q, s bio.ProtSeq, i, j, xdrop int) (HSP, bool) {
	// Seed score.
	score := 0
	for k := 0; k < WordSize; k++ {
		score += bio.Blosum62(q[i+k], s[j+k])
	}
	best := score
	qs, ss := i, j
	qe, se := i+WordSize, j+WordSize

	// Extend right.
	cur := best
	bi, bj := qe, se
	for x, y := qe, se; x < len(q) && y < len(s); x, y = x+1, y+1 {
		cur += bio.Blosum62(q[x], s[y])
		if cur > best {
			best = cur
			bi, bj = x+1, y+1
		}
		if best-cur > xdrop {
			break
		}
	}
	qe, se = bi, bj

	// Extend left.
	cur = best
	bi, bj = qs, ss
	for x, y := qs-1, ss-1; x >= 0 && y >= 0; x, y = x-1, y-1 {
		cur += bio.Blosum62(q[x], s[y])
		if cur > best {
			best = cur
			bi, bj = x, y
		}
		if best-cur > xdrop {
			break
		}
	}
	qs, ss = bi, bj

	if best <= 0 {
		return HSP{}, false
	}
	return HSP{QStart: qs, QEnd: qe, SStart: ss, SEnd: se, Score: best}, true
}

// refineGapped re-aligns the query against the HSP's subject neighbourhood
// with banded Smith-Waterman (the gapped extension stage of BLAST): the
// seed fixes the diagonal, so a corridor of ±margin diagonals suffices to
// recover alignments the ungapped pass truncated at indels.
func refineGapped(q bio.ProtSeq, tf *TranslatedFrame, h HSP, margin int) int {
	lo := h.SStart - len(q) - margin
	if lo < 0 {
		lo = 0
	}
	hi := h.SEnd + len(q) + margin
	if hi > len(tf.Prot) {
		hi = len(tf.Prot)
	}
	if lo >= hi {
		return 0
	}
	// The HSP pairs query position QStart with subject position SStart, so
	// within the window the alignment sits near diagonal (SStart-lo)-QStart.
	diag := (h.SStart - lo) - h.QStart
	return swalign.ScoreBanded(q, tf.Prot[lo:hi], swalign.DefaultScoring(), diag, margin)
}
