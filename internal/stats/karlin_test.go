package stats

import (
	"math"
	"testing"

	"fabp/internal/bio"
)

func TestRobinsonFrequenciesNormalized(t *testing.T) {
	var sum float64
	for a := bio.AminoAcid(0); a < bio.NumAminoAcids; a++ {
		f := RobinsonFrequency(a)
		if f <= 0 {
			t.Errorf("frequency of %v must be positive", a)
		}
		sum += f
	}
	if math.Abs(sum-1) > 0.001 {
		t.Errorf("frequencies sum to %.5f", sum)
	}
	if RobinsonFrequency(bio.Stop) != 0 || RobinsonFrequency(99) != 0 {
		t.Error("non-coding frequencies must be zero")
	}
}

// TestLambdaMatchesNCBI: the computed ungapped BLOSUM62 lambda must land on
// the published NCBI value 0.3176 (±0.002).
func TestLambdaMatchesNCBI(t *testing.T) {
	p := UngappedBLOSUM62()
	if math.Abs(p.Lambda-0.3176) > 0.002 {
		t.Errorf("lambda = %.4f, NCBI publishes 0.3176", p.Lambda)
	}
	if math.Abs(p.H-0.40) > 0.03 {
		t.Errorf("H = %.3f, NCBI publishes ≈0.40", p.H)
	}
	t.Logf("computed lambda=%.4f H=%.3f", p.Lambda, p.H)
}

func TestSolveLambdaRejectsBadSystems(t *testing.T) {
	// All-positive matrix: expected score positive.
	if _, err := SolveLambda(func(a, b bio.AminoAcid) int { return 1 }, RobinsonFrequency); err == nil {
		t.Error("positive-expectation system must fail")
	}
	// All-negative: no positive score.
	if _, err := SolveLambda(func(a, b bio.AminoAcid) int { return -1 }, RobinsonFrequency); err == nil {
		t.Error("no-positive-score system must fail")
	}
}

func TestBitScoreMonotone(t *testing.T) {
	p := UngappedBLOSUM62()
	if p.BitScore(50) <= p.BitScore(40) {
		t.Error("bit score must grow with raw score")
	}
	// Known anchor: raw 40 under ungapped BLOSUM62 ≈ 21.2 bits.
	if bs := p.BitScore(40); math.Abs(bs-21.2) > 0.5 {
		t.Errorf("BitScore(40) = %.1f, expected ≈21.2", bs)
	}
}

func TestEValueBehaviour(t *testing.T) {
	p := UngappedBLOSUM62()
	// Bigger database → bigger E-value.
	small := p.EValue(60, 100, 1_000_000)
	large := p.EValue(60, 100, 100_000_000)
	if large <= small {
		t.Error("E-value must scale with database size")
	}
	// Higher score → smaller E-value.
	if p.EValue(80, 100, 1_000_000) >= small {
		t.Error("E-value must fall with score")
	}
	// A strong hit in a modest database is significant.
	if e := p.EValue(100, 100, 1_000_000); e > 1e-6 {
		t.Errorf("E(100) = %g should be tiny", e)
	}
}

func TestEffectiveLengths(t *testing.T) {
	p := UngappedBLOSUM62()
	m, n := p.EffectiveLengths(100, 1_000_000)
	if m >= 100 || n >= 1_000_000 {
		t.Error("length adjustment must shrink both")
	}
	if m < 1 || n < 1 {
		t.Error("effective lengths floored at 1")
	}
	// Degenerate inputs.
	if m, n := p.EffectiveLengths(0, 0); m != 1 || n != 1 {
		t.Error("zero lengths floor to 1")
	}
	// Tiny query: adjustment must not eat everything.
	m, _ = p.EffectiveLengths(10, 1_000_000)
	if m < 1 {
		t.Error("tiny query floored")
	}
}

func TestGappedParams(t *testing.T) {
	g := Gapped11x1()
	u := UngappedBLOSUM62()
	if g.Lambda >= u.Lambda {
		t.Error("gapped lambda must be below ungapped")
	}
	if g.K >= u.K {
		t.Error("gapped K must be below ungapped")
	}
}

// TestUngappedBLOSUM62Memoized pins the memoization: every call returns
// the bit-identical parameters a fresh solve produces.
func TestUngappedBLOSUM62Memoized(t *testing.T) {
	want := solveUngappedBLOSUM62()
	for call := 0; call < 3; call++ {
		got := UngappedBLOSUM62()
		for _, f := range []struct {
			name      string
			got, want float64
		}{{"Lambda", got.Lambda, want.Lambda}, {"K", got.K, want.K}, {"H", got.H, want.H}} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("call %d: %s = %v, fresh solve gives %v", call, f.name, f.got, f.want)
			}
		}
	}
}
