// batch.go implements the fused multi-query batch kernel: K compiled
// queries scan one reference in a single pass over the bit-planes. The
// paper's architecture is bandwidth-bound — the reference streams past a
// resident query — so the per-query scan's K full plane traversals are the
// hot-path waste. The batch kernel fetches each plane word pair (c0, c1)
// once per 64-lane block, stages them, and runs every query over the
// staged block, turning K passes of memory traffic into one (the
// amortization streaming FPGA aligners get from batching queries against
// a tile-resident reference).
package bitpar

import (
	"fmt"
	"math/bits"
	"sync"

	"fabp/internal/backtrans"
	"fabp/internal/isa"
)

// batchQuery is one query's compiled state inside a BatchKernel.
//
// The batch kernel scores by *mismatch budget* rather than full-width
// score counting: a lane is a hit iff its mismatch count stays within
// budget = len(elems) − threshold, so the vertical counters only need to
// count to the budget (ctrW bits) instead of to the full score. At the
// paper's 0.8–0.9 threshold fractions that narrows the carry chain enough
// to keep every counter plane in a register, and a lane whose counter
// overflows is dead for good (the sticky plane) — once all 64 lanes of a
// block are dead the query's remaining elements are skipped. Surviving
// lanes' scores stay exact: score = len(elems) − mismatches.
type batchQuery struct {
	elems     []fusedElem
	threshold int
	// budget is the mismatch allowance: len(elems) − threshold.
	budget int
	// ctrW is the counter width in bit-planes: the smallest width whose
	// capacity 2^ctrW exceeds the budget (0 for exact-match queries, whose
	// sticky plane alone decides).
	ctrW int
	// satAll marks budget+1 == 2^ctrW: within-width counts can never
	// exceed the budget, so hit extraction reduces to ^sticky.
	satAll bool
	// ctrOff is the query's offset into the flat vertical-counter scratch.
	ctrOff int
}

// fusedElem is one query element in fused mux form: the 4-bit accept
// truth table is pre-expanded into all-ones/zero word masks arranged as a
// two-level mux over the plane words, so the scan evaluates
//
//	lo = a ^ (w0 & ac)        // w0 ? c : a   (ac = a^c)
//	hi = g ^ (w0 & gu)        // w0 ? u : g   (gu = g^u)
//	m  = lo ^ (w1 & (lo^hi))  // w1 ? hi : lo
//
// — seven branchless ops per element over the block's staged words, the
// compute analogue of the shared plane fetch.
type fusedElem struct {
	// the S=0 accept function: minterm masks for nucleotides a=00 and
	// g=10, plus the mux deltas ac = a^c, gu = g^u.
	a0, ac0, g0, gu0 uint64
	// the S=1 set; only consulted when dep != DepNone.
	a1, ac1, g1, gu1 uint64
	dep              backtrans.DepSource
}

// expandMux turns a 4-bit accept truth table into the mux-form word masks.
func expandMux(mask uint8) (a, ac, g, gu uint64) {
	a = -uint64(mask & 1)
	c := -uint64(mask >> 1 & 1)
	g = -uint64(mask >> 2 & 1)
	u := -uint64(mask >> 3 & 1)
	return a, a ^ c, g, g ^ u
}

// BatchKernel is a set of compiled queries that scan a reference together,
// one plane pass per tile for the whole batch.
type BatchKernel struct {
	queries  []batchQuery
	maxElems int
	minElems int
	// ctrWords is the flat counter scratch size: sum of every query's ctrW.
	ctrWords int
	// free holds idle per-worker scan state (staged block, vertical
	// counters, hit staging buffers) so concurrent shard scans allocate
	// nothing per tile. Unlike a sync.Pool it never drops an entry — not
	// at GC, not under the race detector — so the kernel holds at most one
	// scratch per peak concurrent scan and a steady stream reuses them.
	mu   sync.Mutex
	free []*batchScratch
}

// batchScratch is one worker's reusable scan state. w0s/w1s hold the
// block's staged plane words, offset by two so steps −2 and −1 (the
// dependent-bit context before the block) sit at indexes 0 and 1.
type batchScratch struct {
	w0s, w1s []uint64
	counters []uint64
	// sticky[qi] marks lanes whose mismatch counter overflowed — dead for
	// the rest of the block.
	sticky []uint64
	hits   [][]Hit
}

// NewBatchKernel compiles every program for its threshold. Thresholds are
// absolute per-query scores in [0, len(program)].
func NewBatchKernel(progs []isa.Program, thresholds []int) (*BatchKernel, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("bitpar: empty batch")
	}
	if len(progs) != len(thresholds) {
		return nil, fmt.Errorf("bitpar: %d programs but %d thresholds", len(progs), len(thresholds))
	}
	bk := &BatchKernel{queries: make([]batchQuery, 0, len(progs))}
	off := 0
	for i, prog := range progs {
		if len(prog) == 0 {
			return nil, fmt.Errorf("bitpar: batch query %d: empty program", i)
		}
		if thresholds[i] < 0 || thresholds[i] > len(prog) {
			return nil, fmt.Errorf("bitpar: batch query %d: threshold %d outside [0,%d]", i, thresholds[i], len(prog))
		}
		budget := len(prog) - thresholds[i]
		ctrW := bits.Len(uint(budget))
		q := batchQuery{
			elems: make([]fusedElem, len(prog)), threshold: thresholds[i],
			budget: budget, ctrW: ctrW, satAll: budget+1 == 1<<ctrW,
			ctrOff: off,
		}
		for j, ins := range prog {
			q.elems[j] = compile(ins)
		}
		bk.queries = append(bk.queries, q)
		off += ctrW
		bk.maxElems = max(bk.maxElems, len(prog))
		if bk.minElems == 0 || len(prog) < bk.minElems {
			bk.minElems = len(prog)
		}
	}
	bk.ctrWords = off
	return bk, nil
}

// getScratch takes an idle scratch, or builds one when every scratch is
// in use.
func (bk *BatchKernel) getScratch() *batchScratch {
	bk.mu.Lock()
	if n := len(bk.free); n > 0 {
		s := bk.free[n-1]
		bk.free = bk.free[:n-1]
		bk.mu.Unlock()
		return s
	}
	bk.mu.Unlock()
	return &batchScratch{
		w0s:      make([]uint64, bk.maxElems+2),
		w1s:      make([]uint64, bk.maxElems+2),
		counters: make([]uint64, bk.ctrWords),
		sticky:   make([]uint64, len(bk.queries)),
		hits:     make([][]Hit, len(bk.queries)),
	}
}

// putScratch returns a scratch to the free list.
func (bk *BatchKernel) putScratch(s *batchScratch) {
	bk.mu.Lock()
	bk.free = append(bk.free, s)
	bk.mu.Unlock()
}

// NumQueries returns the batch width K.
func (bk *BatchKernel) NumQueries() int { return len(bk.queries) }

// MaxElems returns the longest query's element count — the overlap the
// shard carry must respect (every shard reads MaxElems−1 elements past its
// end so the longest query's windows complete).
func (bk *BatchKernel) MaxElems() int { return bk.maxElems }

// MinElems returns the shortest query's element count.
func (bk *BatchKernel) MinElems() int { return bk.minElems }

// QueryElems returns query qi's compiled length.
func (bk *BatchKernel) QueryElems(qi int) int { return len(bk.queries[qi].elems) }

// Threshold returns query qi's absolute hit threshold.
func (bk *BatchKernel) Threshold(qi int) int { return bk.queries[qi].threshold }

// Starts returns the batch scan range for a reference of refLen elements:
// the union of every query's valid window starts, [0, refLen−MinElems].
// Shorter queries have more valid starts, so the range follows the
// shortest; per-query validity is enforced lane by lane during the scan.
func (bk *BatchKernel) Starts(refLen int) int {
	return refLen - bk.minElems + 1
}

// AlignPlanes scans the whole packed reference once for every query and
// returns per-query hit lists in position order.
func (bk *BatchKernel) AlignPlanes(pp *Planes) [][]Hit {
	return bk.AlignPlanesRange(pp, 0, bk.Starts(pp.Len()), nil)
}

// AlignPlanesRange scans window starts [lo, hi) of a pre-packed reference
// once for the whole batch — the fused shard primitive. Each query's hits
// land in dst[qi] (appended; pass nil to allocate), clamped to that
// query's own valid starts, in position order. Per-shard hit lists
// concatenate into exactly AlignPlanes' output, so a scheduler can tile
// [0, Starts) and merge stream-wise.
func (bk *BatchKernel) AlignPlanesRange(pp *Planes, lo, hi int, dst [][]Hit) [][]Hit {
	if dst == nil {
		dst = make([][]Hit, len(bk.queries))
	}
	p := pp.p
	if n := bk.Starts(p.n); hi > n {
		hi = n
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return dst
	}
	s := bk.getScratch()
	// Blocks are 64-position aligned: scan from the aligned start and mask
	// the lanes below lo.
	for p0 := lo &^ 63; p0 < hi; p0 += 64 {
		bk.scanBlock(p, p0, hi, s)
		bk.extractBlock(p, p0, lo, hi, s)
	}
	for qi := range bk.queries {
		if len(s.hits[qi]) > 0 {
			dst[qi] = append(dst[qi], s.hits[qi]...)
			s.hits[qi] = s.hits[qi][:0]
		}
	}
	bk.putScratch(s)
	return dst
}

// scanBlock scans the 64-lane block at p0 for every query in two stages.
// Stage A fetches each plane word pair once into the staged arrays — the
// single shared pass over the reference, and the dependent-bit selectors
// for free (the word at step i−1/i−2 is just an earlier staged entry).
// Stage B runs each query over the staged block with its mismatch counter
// planes held in registers (specialized by counter width), so the
// carry-save walk never touches memory; a query whose 64 lanes all
// overflow their budget stops early.
func (bk *BatchKernel) scanBlock(p *planes, p0, hi int, s *batchScratch) {
	s.w0s[0], s.w1s[0] = fetch(p.b0, p0-2), fetch(p.b1, p0-2)
	s.w0s[1], s.w1s[1] = fetch(p.b0, p0-1), fetch(p.b1, p0-1)
	for i := 0; i < bk.maxElems; i++ {
		s.w0s[2+i] = fetch(p.b0, p0+i)
		s.w1s[2+i] = fetch(p.b1, p0+i)
	}
	for qi := range bk.queries {
		q := &bk.queries[qi]
		// A block lying wholly past a query's last valid start (or past
		// the scan range) contributes nothing to it: skip it (extractBlock
		// applies the same clamp, so the stale scratch is never read).
		hiq := p.n - len(q.elems) + 1
		if hiq > hi {
			hiq = hi
		}
		if p0 >= hiq {
			continue
		}
		ctr := s.counters[q.ctrOff:]
		switch q.ctrW {
		case 0:
			s.sticky[qi] = scanQ0(q.elems, s)
		case 1:
			ctr[0], s.sticky[qi] = scanQ1(q.elems, s)
		case 2:
			ctr[0], ctr[1], s.sticky[qi] = scanQ2(q.elems, s)
		case 3:
			ctr[0], ctr[1], ctr[2], s.sticky[qi] = scanQ3(q.elems, s)
		case 4:
			ctr[0], ctr[1], ctr[2], ctr[3], s.sticky[qi] = scanQ4(q.elems, s)
		default:
			s.sticky[qi] = scanQGen(q.elems, s, ctr[:q.ctrW])
		}
	}
}

// The scanQ* family runs one query's elements over the staged block with
// its mismatch counter planes in registers; each returns the final
// counter planes and the sticky overflow mask. The bodies are unrolled
// per counter width because Go keeps the named locals in registers only
// when the carry-save chain is written out straight-line — the whole
// point of the narrow budget counters. Staged indexing: step i's words
// sit at w0a[i+2]/w1a[i+2], so the dependent-bit selectors (steps i−1 and
// i−2) are w1a[i+1], w1a[i], and w0a[i].

// scanQ0 is the exact-match (budget 0) scan: any mismatch kills the lane,
// so the sticky plane alone accumulates.
func scanQ0(elems []fusedElem, s *batchScratch) (sticky uint64) {
	w0a := s.w0s[: len(elems)+2 : len(elems)+2]
	w1a := s.w1s[: len(elems)+2 : len(elems)+2]
	for i := range elems {
		e := &elems[i]
		w0, w1 := w0a[i+2], w1a[i+2]
		lo := e.a0 ^ (w0 & e.ac0)
		hi := e.g0 ^ (w0 & e.gu0)
		m := lo ^ (w1 & (lo ^ hi))
		if e.dep != backtrans.DepNone {
			lo = e.a1 ^ (w0 & e.ac1)
			hi = e.g1 ^ (w0 & e.gu1)
			m1 := lo ^ (w1 & (lo ^ hi))
			var sel uint64
			switch e.dep {
			case backtrans.DepPrev1Hi:
				sel = w1a[i+1]
			case backtrans.DepPrev2Hi:
				sel = w1a[i]
			case backtrans.DepPrev2Lo:
				sel = w0a[i]
			}
			m ^= sel & (m ^ m1) // lane-wise mux: sel ? m1 : m
		}
		sticky |= ^m
		if sticky == ^uint64(0) {
			break
		}
	}
	return sticky
}

func scanQ1(elems []fusedElem, s *batchScratch) (c0, sticky uint64) {
	w0a := s.w0s[: len(elems)+2 : len(elems)+2]
	w1a := s.w1s[: len(elems)+2 : len(elems)+2]
	for i := range elems {
		e := &elems[i]
		w0, w1 := w0a[i+2], w1a[i+2]
		lo := e.a0 ^ (w0 & e.ac0)
		hi := e.g0 ^ (w0 & e.gu0)
		m := lo ^ (w1 & (lo ^ hi))
		if e.dep != backtrans.DepNone {
			lo = e.a1 ^ (w0 & e.ac1)
			hi = e.g1 ^ (w0 & e.gu1)
			m1 := lo ^ (w1 & (lo ^ hi))
			var sel uint64
			switch e.dep {
			case backtrans.DepPrev1Hi:
				sel = w1a[i+1]
			case backtrans.DepPrev2Hi:
				sel = w1a[i]
			case backtrans.DepPrev2Lo:
				sel = w0a[i]
			}
			m ^= sel & (m ^ m1)
		}
		miss := ^m
		x := c0 & miss
		c0 ^= miss
		sticky |= x
		if sticky == ^uint64(0) {
			break
		}
	}
	return c0, sticky
}

func scanQ2(elems []fusedElem, s *batchScratch) (c0, c1, sticky uint64) {
	w0a := s.w0s[: len(elems)+2 : len(elems)+2]
	w1a := s.w1s[: len(elems)+2 : len(elems)+2]
	for i := range elems {
		e := &elems[i]
		w0, w1 := w0a[i+2], w1a[i+2]
		lo := e.a0 ^ (w0 & e.ac0)
		hi := e.g0 ^ (w0 & e.gu0)
		m := lo ^ (w1 & (lo ^ hi))
		if e.dep != backtrans.DepNone {
			lo = e.a1 ^ (w0 & e.ac1)
			hi = e.g1 ^ (w0 & e.gu1)
			m1 := lo ^ (w1 & (lo ^ hi))
			var sel uint64
			switch e.dep {
			case backtrans.DepPrev1Hi:
				sel = w1a[i+1]
			case backtrans.DepPrev2Hi:
				sel = w1a[i]
			case backtrans.DepPrev2Lo:
				sel = w0a[i]
			}
			m ^= sel & (m ^ m1)
		}
		miss := ^m
		x := c0 & miss
		c0 ^= miss
		y := c1 & x
		c1 ^= x
		sticky |= y
		if sticky == ^uint64(0) {
			break
		}
	}
	return c0, c1, sticky
}

func scanQ3(elems []fusedElem, s *batchScratch) (c0, c1, c2, sticky uint64) {
	w0a := s.w0s[: len(elems)+2 : len(elems)+2]
	w1a := s.w1s[: len(elems)+2 : len(elems)+2]
	for i := range elems {
		e := &elems[i]
		w0, w1 := w0a[i+2], w1a[i+2]
		lo := e.a0 ^ (w0 & e.ac0)
		hi := e.g0 ^ (w0 & e.gu0)
		m := lo ^ (w1 & (lo ^ hi))
		if e.dep != backtrans.DepNone {
			lo = e.a1 ^ (w0 & e.ac1)
			hi = e.g1 ^ (w0 & e.gu1)
			m1 := lo ^ (w1 & (lo ^ hi))
			var sel uint64
			switch e.dep {
			case backtrans.DepPrev1Hi:
				sel = w1a[i+1]
			case backtrans.DepPrev2Hi:
				sel = w1a[i]
			case backtrans.DepPrev2Lo:
				sel = w0a[i]
			}
			m ^= sel & (m ^ m1)
		}
		miss := ^m
		x := c0 & miss
		c0 ^= miss
		y := c1 & x
		c1 ^= x
		x = c2 & y
		c2 ^= y
		sticky |= x
		if sticky == ^uint64(0) {
			break
		}
	}
	return c0, c1, c2, sticky
}

func scanQ4(elems []fusedElem, s *batchScratch) (c0, c1, c2, c3, sticky uint64) {
	w0a := s.w0s[: len(elems)+2 : len(elems)+2]
	w1a := s.w1s[: len(elems)+2 : len(elems)+2]
	for i := range elems {
		e := &elems[i]
		w0, w1 := w0a[i+2], w1a[i+2]
		lo := e.a0 ^ (w0 & e.ac0)
		hi := e.g0 ^ (w0 & e.gu0)
		m := lo ^ (w1 & (lo ^ hi))
		if e.dep != backtrans.DepNone {
			lo = e.a1 ^ (w0 & e.ac1)
			hi = e.g1 ^ (w0 & e.gu1)
			m1 := lo ^ (w1 & (lo ^ hi))
			var sel uint64
			switch e.dep {
			case backtrans.DepPrev1Hi:
				sel = w1a[i+1]
			case backtrans.DepPrev2Hi:
				sel = w1a[i]
			case backtrans.DepPrev2Lo:
				sel = w0a[i]
			}
			m ^= sel & (m ^ m1)
		}
		miss := ^m
		x := c0 & miss
		c0 ^= miss
		y := c1 & x
		c1 ^= x
		x = c2 & y
		c2 ^= y
		y = c3 & x
		c3 ^= x
		sticky |= y
		if sticky == ^uint64(0) {
			break
		}
	}
	return c0, c1, c2, c3, sticky
}

// scanQGen is the wide-budget fallback (ctrW ≥ 5, i.e. thresholds far
// below the paper's operating range): the carry-save walk spills to the
// counter scratch, still over the staged block.
func scanQGen(elems []fusedElem, s *batchScratch, ctr []uint64) (sticky uint64) {
	for b := range ctr {
		ctr[b] = 0
	}
	w0a := s.w0s[: len(elems)+2 : len(elems)+2]
	w1a := s.w1s[: len(elems)+2 : len(elems)+2]
	for i := range elems {
		e := &elems[i]
		w0, w1 := w0a[i+2], w1a[i+2]
		lo := e.a0 ^ (w0 & e.ac0)
		hi := e.g0 ^ (w0 & e.gu0)
		m := lo ^ (w1 & (lo ^ hi))
		if e.dep != backtrans.DepNone {
			lo = e.a1 ^ (w0 & e.ac1)
			hi = e.g1 ^ (w0 & e.gu1)
			m1 := lo ^ (w1 & (lo ^ hi))
			var sel uint64
			switch e.dep {
			case backtrans.DepPrev1Hi:
				sel = w1a[i+1]
			case backtrans.DepPrev2Hi:
				sel = w1a[i]
			case backtrans.DepPrev2Lo:
				sel = w0a[i]
			}
			m ^= sel & (m ^ m1)
		}
		carry := ^m
		for b := 0; b < len(ctr) && carry != 0; b++ {
			old := ctr[b]
			ctr[b] = old ^ carry
			carry = old & carry
		}
		sticky |= carry
		if sticky == ^uint64(0) {
			break
		}
	}
	return sticky
}

// extractBlock pulls each query's within-budget lanes out of the block at
// p0, clamped to the scan range [lo, hi) and to the query's own valid
// window starts. A lane is a hit iff it is not sticky-dead and its
// mismatch count stays at or below the budget; its exact score is the
// query length minus its mismatches.
func (bk *BatchKernel) extractBlock(p *planes, p0, lo, hi int, s *batchScratch) {
	for qi := range bk.queries {
		q := &bk.queries[qi]
		hiq := p.n - len(q.elems) + 1
		if hiq > hi {
			hiq = hi
		}
		if p0 >= hiq {
			continue
		}
		limit := hiq - p0
		if limit > 64 {
			limit = 64
		}
		ctr := s.counters[q.ctrOff : q.ctrOff+q.ctrW]
		ge := ^s.sticky[qi]
		if !q.satAll {
			ge &^= geThresh(ctr, q.budget+1)
		}
		ge &= lowMask(limit)
		if lo > p0 {
			ge &^= lowMask(lo - p0)
		}
		for ge != 0 {
			j := bits.TrailingZeros64(ge)
			ge &= ge - 1
			s.hits[qi] = append(s.hits[qi], Hit{Pos: p0 + j, Score: len(q.elems) - laneScore(ctr, j)})
		}
	}
}
