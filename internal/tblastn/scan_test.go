package tblastn

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fabp/internal/bio"
)

// mapDiagState is the map-backed seeding state machine diagRing
// replaced, kept as the oracle for TestDiagRingMatchesMap.
type mapDiagState struct {
	twoHit    bool
	hitWindow int
	lastHit   map[int]int
	extended  map[int]int
}

func (ds *mapDiagState) step(i, j int) bool {
	diag := j - i
	if end, done := ds.extended[diag]; done && j < end {
		return false
	}
	if !ds.twoHit {
		return true
	}
	prev, ok := ds.lastHit[diag]
	switch {
	case !ok || j-prev > ds.hitWindow:
		ds.lastHit[diag] = j
	case j-prev < WordSize:
	default:
		delete(ds.lastHit, diag)
		return true
	}
	return false
}

func (ds *mapDiagState) accept(diag, sEnd int) { ds.extended[diag] = sEnd }

// TestDiagRingMatchesMap drives the ring and the map oracle with the same
// random non-decreasing hit streams and interleaved accepts, on subjects
// many times the ring size so slots are reused across diagonals, and
// demands the same decision at every step.
func TestDiagRingMatchesMap(t *testing.T) {
	for _, twoHit := range []bool{false, true} {
		for _, window := range []int{WordSize - 1, WordSize, 40} {
			for _, qLen := range []int{31, 32, 33, 127, 128, 129} {
				name := fmt.Sprintf("twoHit=%v/window=%d/qLen=%d", twoHit, window, qLen)
				t.Run(name, func(t *testing.T) {
					checkRingAgainstMap(t, twoHit, window, qLen, 40*qLen)
				})
			}
		}
	}
}

func checkRingAgainstMap(t *testing.T, twoHit bool, window, qLen, subjLen int) {
	rng := rand.New(rand.NewSource(int64(qLen*100 + window)))
	o := &Options{TwoHit: twoHit, HitWindow: window}
	ring := newDiagRing(qLen, o)
	if n := len(ring.slots); n < qLen || n&(n-1) != 0 {
		t.Fatalf("ring has %d slots for a %d-residue query", n, qLen)
	}
	oracle := &mapDiagState{twoHit: twoHit, hitWindow: window, lastHit: map[int]int{}, extended: map[int]int{}}
	maxI := qLen - WordSize
	var recent []int // recently hit diagonals, to make pairs likely
	steps, triggers := 0, 0
	for j := 0; j < subjLen; j++ {
		for h := rng.Intn(4); h > 0; h-- {
			i := rng.Intn(maxI + 1)
			if len(recent) > 0 && rng.Intn(2) == 0 {
				if ri := j - recent[rng.Intn(len(recent))]; ri >= 0 && ri <= maxI {
					i = ri
				}
			}
			diag := j - i
			got, want := ring.step(i, j), oracle.step(i, j)
			steps++
			if got != want {
				t.Fatalf("step(%d, %d) #%d: ring %v, map %v", i, j, steps, got, want)
			}
			if want {
				triggers++
				if rng.Intn(3) > 0 {
					sEnd := j + rng.Intn(3*window+WordSize+1)
					ring.accept(diag, sEnd)
					oracle.accept(diag, sEnd)
				}
			}
			if len(recent) < 8 {
				recent = append(recent, diag)
			} else {
				recent[rng.Intn(len(recent))] = diag
			}
		}
	}
	// A window below WordSize can never complete a pair; every other
	// configuration must both trigger and (for two-hit) hold hits back.
	canPair := !twoHit || window >= WordSize
	if canPair == (triggers == 0) || (twoHit && triggers == steps) {
		t.Fatalf("stream too weak: %d triggers over %d steps", triggers, steps)
	}
}

// TestTranslateFrameMatchesReverseComplement pins translateFrame against
// the allocating definition: a forward frame is ref.Translate(off) and a
// reverse frame is ref.ReverseComplement().Translate(off).
func TestTranslateFrameMatchesReverseComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var refs []bio.NucSeq
	for n := 0; n <= 12; n++ {
		for rep := 0; rep < 4; rep++ {
			refs = append(refs, bio.RandomNucSeq(rng, n))
		}
	}
	for rep := 0; rep < 4; rep++ {
		refs = append(refs, bio.RandomNucSeq(rng, 10000+rep))
	}
	for _, ref := range refs {
		rc := ref.ReverseComplement()
		for f := Frame(0); f < NumFrames; f++ {
			want := ref.Translate(f.Offset())
			if f.IsReverse() {
				want = rc.Translate(f.Offset())
			}
			got := translateFrame(ref, f)
			if !reflect.DeepEqual(got.Prot, want) {
				t.Fatalf("len %d frame %v: translateFrame = %v, want %v", len(ref), f, got.Prot, want)
			}
			if got.Frame != f || got.refLen != len(ref) {
				t.Fatalf("len %d frame %v: geometry %+v", len(ref), f, got)
			}
		}
	}
}
