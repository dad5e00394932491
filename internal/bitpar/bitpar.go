// Package bitpar implements the bit-parallel (SIMD-within-register) FabP
// kernel: the algorithm the paper's "highly optimized GPU implementation"
// uses, evaluating the two-LUT comparator for 64 alignment positions per
// machine word. The reference is held as two bit-planes (one per
// nucleotide-encoding bit); each query element compiles to a handful of
// bitwise operations plus a vertical-counter mismatch accumulation.
//
// There is one scan loop, BatchKernel's (batch.go): K queries share each
// plane fetch, and a single query is simply K=1. It is bit-exact with
// core.Engine / the generated netlist (asserted in tests) and roughly an
// order of magnitude faster than the scalar engine, which both makes
// large experiments tractable and substantiates the GPU performance
// model's cells-per-second calibration.
package bitpar

import (
	"sync/atomic"

	"fabp/internal/backtrans"
	"fabp/internal/bio"
	"fabp/internal/core"
	"fabp/internal/isa"
)

// Hit is the engine's hit type, shared so kernel results feed the scan
// pipeline without conversion.
type Hit = core.Hit

// planes is the bit-sliced reference: bit j of b0[w] is the low encoding
// bit of nucleotide 64w+j; b1 the high bit. One zero word of padding at
// each end keeps fetches branch-light.
type planes struct {
	b0, b1 []uint64
	n      int
}

// packPlanes converts a reference into bit-planes (bulk table-driven
// packing; see packSpan in planebuilder.go).
func packPlanes(ref bio.NucSeq) *planes {
	words := (len(ref) + 63) / 64
	p := &planes{
		b0: make([]uint64, words+2),
		b1: make([]uint64, words+2),
		n:  len(ref),
	}
	packSpan(p.b0, p.b1, 0, ref)
	return p
}

// fetch returns the 64 plane bits starting at element offset off (may be
// negative or beyond the end; out-of-range bits read 0 = A, matching the
// hardware's reset state).
func fetch(plane []uint64, off int) uint64 {
	// plane has one padding word at the front.
	off += 64
	w := off >> 6
	s := uint(off & 63)
	if w < 0 || w >= len(plane) {
		return 0
	}
	v := plane[w] >> s
	if s != 0 && w+1 < len(plane) {
		v |= plane[w+1] << (64 - s)
	}
	return v
}

// compile turns one instruction into its fused mux form (see fusedElem):
// the element's accept truth table over the current nucleotide for both
// values of the dependent bit S, plus which earlier plane supplies S.
func compile(ins isa.Instruction) fusedElem {
	var dep backtrans.DepSource
	elem, err := isa.Decode(ins)
	if err == nil && elem.Type == backtrans.TypeIII {
		dep = elem.Func.Dependency()
	}
	// mask0/mask1: bit v set ⇔ the element matches nucleotide v when
	// S=0 / S=1. Equal masks mean no dependency.
	var mask0, mask1 uint8
	for v := bio.Nucleotide(0); v < 4; v++ {
		// Choose prev nucleotides that force S to each value through the
		// element's own dependency; for DepNone both probes coincide.
		if ins.Matches(v, prevFor(dep, 0), prevFor2(dep, 0)) {
			mask0 |= 1 << v
		}
		if ins.Matches(v, prevFor(dep, 1), prevFor2(dep, 1)) {
			mask1 |= 1 << v
		}
	}
	f := fusedElem{dep: dep}
	f.a0, f.ac0, f.g0, f.gu0 = expandMux(mask0)
	f.a1, f.ac1, f.g1, f.gu1 = expandMux(mask1)
	if mask0 == mask1 {
		f.dep = backtrans.DepNone
	}
	return f
}

// prevFor returns a prev1 nucleotide whose relevant bit equals s (A=00,
// G=10 toggle bit1; C=01 toggles bit0 — covered by prevFor2).
func prevFor(dep backtrans.DepSource, s uint8) bio.Nucleotide {
	if dep == backtrans.DepPrev1Hi && s == 1 {
		return bio.G
	}
	return bio.A
}

func prevFor2(dep backtrans.DepSource, s uint8) bio.Nucleotide {
	switch dep {
	case backtrans.DepPrev2Hi:
		if s == 1 {
			return bio.G
		}
	case backtrans.DepPrev2Lo:
		if s == 1 {
			return bio.C
		}
	}
	return bio.A
}

// Kernel is one compiled query: a K=1 view over BatchKernel, which does
// all the scanning. It exists for callers that scan a single query over
// whole references.
type Kernel struct{ bk *BatchKernel }

// NewKernel compiles an encoded query for the given hit threshold.
func NewKernel(prog isa.Program, threshold int) (*Kernel, error) {
	bk, err := NewBatchKernel([]isa.Program{prog}, []int{threshold})
	if err != nil {
		return nil, err
	}
	return &Kernel{bk: bk}, nil
}

// AlignPlanes scans a pre-packed reference (see PackReference).
func (k *Kernel) AlignPlanes(pp *Planes) []Hit { return k.bk.AlignPlanes(pp)[0] }

// Align packs the reference and returns every window position whose score
// reaches the threshold, in position order.
func (k *Kernel) Align(ref bio.NucSeq) []Hit { return k.AlignPlanes(&Planes{p: packPlanes(ref)}) }

// SetParallelism is a no-op kept for source compatibility: the kernel
// scans on the calling goroutine, and shard scheduling (internal/sched)
// is the only source of parallelism.
func (k *Kernel) SetParallelism(int) {}

// Planes is a reference packed into bit-planes, reusable across many
// kernels — the batch workload packs the database once and scans it with
// every query.
type Planes struct {
	p *planes
}

// packsTotal counts PackReference calls process-wide; warm-start tests
// assert it stays flat across a load-and-scan of a plane-carrying file.
var packsTotal atomic.Uint64

// PackReference packs a reference for repeated AlignPlanes calls.
func PackReference(ref bio.NucSeq) *Planes {
	packsTotal.Add(1)
	return &Planes{p: packPlanes(ref)}
}

// PackCount returns the cumulative PackReference calls this process has
// made — the "did we recompute?" probe of the warm-start contract.
func PackCount() uint64 { return packsTotal.Load() }

// Len returns the packed reference length in nucleotides.
func (pp *Planes) Len() int { return pp.p.n }

// SizeBytes returns the packed footprint (both bit-planes, including
// their padding words) — what a resident cache entry costs.
func (pp *Planes) SizeBytes() int64 {
	return int64(len(pp.p.b0)+len(pp.p.b1)) * 8
}

// laneScore extracts lane j's value from vertical counters.
func laneScore(counters []uint64, j int) int {
	score := 0
	for b := range counters {
		score |= int(counters[b]>>uint(j)&1) << uint(b)
	}
	return score
}

// geThresh returns a bitmask of lanes whose vertical counter is >= the
// threshold, using the same LSB-first comparison as the hardware's
// CompareGEConst.
func geThresh(counters []uint64, threshold int) uint64 {
	ge := ^uint64(0)
	for b := range counters {
		if threshold>>uint(b)&1 == 1 {
			ge = counters[b] & ge
		} else {
			ge = counters[b] | ge
		}
	}
	return ge
}

func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
