package core

import (
	"math"
	"math/rand"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/isa"
)

func TestScoreDistributionIsPMF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := bio.RandomProtSeq(rng, 10)
	e, _ := NewEngine(isa.MustEncodeProtein(p), 0)
	pmf := e.ScoreDistribution()
	if len(pmf) != e.QueryElems()+1 {
		t.Fatalf("pmf length %d", len(pmf))
	}
	sum := 0.0
	for _, q := range pmf {
		if q < 0 {
			t.Fatal("negative probability")
		}
		sum += q
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("pmf sums to %g", sum)
	}
}

// TestScoreDistributionExactForTypeI: a query of only Met/Trp (all Type I
// elements) makes the independence assumption exact: score ~ Binomial(m, 1/4).
func TestScoreDistributionExactForTypeI(t *testing.T) {
	q := bio.ProtSeq{bio.Met, bio.Trp, bio.Met}
	e, _ := NewEngine(isa.MustEncodeProtein(q), 0)
	pmf := e.ScoreDistribution()
	m := 9
	for s := 0; s <= m; s++ {
		want := binom(m, s) * math.Pow(0.25, float64(s)) * math.Pow(0.75, float64(m-s))
		if math.Abs(pmf[s]-want) > 1e-12 {
			t.Errorf("pmf[%d] = %g, want %g", s, pmf[s], want)
		}
	}
	if math.Abs(e.MeanScore()-float64(m)*0.25) > 1e-12 {
		t.Errorf("mean %g", e.MeanScore())
	}
}

func binom(n, k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= float64(n-i) / float64(i+1)
	}
	return r
}

// TestScoreDistributionVsMonteCarlo: for general queries (with Type III),
// the analytic tail must track the empirical tail closely.
func TestScoreDistributionVsMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := bio.RandomProtSeq(rng, 15) // includes Leu/Arg/Ser with high probability
	prog := isa.MustEncodeProtein(p)
	e, _ := NewEngine(prog, 0)

	const trials = 40000
	counts := make([]int, len(prog)+1)
	for i := 0; i < trials; i++ {
		w := bio.RandomNucSeq(rng, len(prog))
		counts[prog.Score(w)]++
	}
	// Compare mean and the 90th-percentile tail.
	empMean := 0.0
	for s, c := range counts {
		empMean += float64(s*c) / trials
	}
	if math.Abs(empMean-e.MeanScore()) > 0.15 {
		t.Errorf("mean: empirical %.3f vs analytic %.3f", empMean, e.MeanScore())
	}
	thr := int(e.MeanScore() + 4)
	empTail := 0.0
	for s := thr; s < len(counts); s++ {
		empTail += float64(counts[s]) / trials
	}
	anaTail := e.TailProbability(thr)
	if math.Abs(empTail-anaTail) > 0.25*math.Max(empTail, anaTail)+0.002 {
		t.Errorf("tail(%d): empirical %.4f vs analytic %.4f", thr, empTail, anaTail)
	}
}

func TestSuggestThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := bio.RandomProtSeq(rng, 50)
	prog := isa.MustEncodeProtein(p)
	e, _ := NewEngine(prog, 0)

	thr, err := e.SuggestThreshold(1_000_000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= int(e.MeanScore()) || thr > len(prog) {
		t.Errorf("suggested threshold %d implausible (mean %.0f, max %d)",
			thr, e.MeanScore(), len(prog))
	}
	// Stricter target → higher threshold; bigger database → higher.
	strict, _ := e.SuggestThreshold(1_000_000, 1e-6)
	if strict < thr {
		t.Error("stricter FP target must not lower the threshold")
	}
	big, _ := e.SuggestThreshold(100_000_000, 1.0)
	if big < thr {
		t.Error("bigger database must not lower the threshold")
	}
	// Errors.
	if _, err := e.SuggestThreshold(10, 1.0); err == nil {
		t.Error("short reference must fail")
	}
	if _, err := e.SuggestThreshold(1_000_000, 0); err == nil {
		t.Error("zero FP target must fail")
	}
}

// TestSuggestedThresholdEmpirically: scanning random data with the
// suggested threshold must produce roughly the promised few chance hits.
func TestSuggestedThresholdEmpirically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := bio.RandomProtSeq(rng, 30)
	prog := isa.MustEncodeProtein(p)
	probe, _ := NewEngine(prog, 0)
	const refLen = 500_000
	thr, err := probe.SuggestThreshold(refLen, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(prog, thr)
	hits := e.Align(bio.RandomNucSeq(rng, refLen))
	// Expected <= 2; allow generous Poisson slack.
	if len(hits) > 12 {
		t.Errorf("threshold %d produced %d chance hits, expected ≈<=2", thr, len(hits))
	}
}

func TestExpectedRandomHits(t *testing.T) {
	p := bio.ProtSeq{bio.Met, bio.Trp}
	prog := isa.MustEncodeProtein(p)
	e, _ := NewEngine(prog, len(prog)) // perfect-score threshold
	// P(6 Type I matches) = 0.25^6.
	want := float64(1000-6+1) * math.Pow(0.25, 6)
	if got := e.ExpectedRandomHits(1000); math.Abs(got-want) > 1e-9 {
		t.Errorf("expected hits %g, want %g", got, want)
	}
	if e.ExpectedRandomHits(3) != 0 {
		t.Error("short reference must expect 0")
	}
}

// TestThresholdFromFractionExact pins the rounding behaviour at exact
// boundary values, including fractions whose float product lands a hair
// below the intended integer (the truncation bug this helper fixes).
func TestThresholdFromFractionExact(t *testing.T) {
	for _, tc := range []struct {
		frac     float64
		maxScore int
		want     int
	}{
		{0.9, 10, 9},   // 0.9*10 = 8.999999999999998 — int() gave 8
		{0.8, 10, 8},   // 8.000000000000002 — stays 8
		{0.7, 30, 21},  // 20.999999999999996 — int() gave 20
		{1.0, 7, 7},    // full score must stay in range
		{0.5, 30, 15},  // exact product
		{0.95, 30, 29}, // 28.5 rounds half away from zero
		{0.001, 300, 0},
		{1.0, 0, 0},
	} {
		got, err := ThresholdFromFraction(tc.frac, tc.maxScore)
		if err != nil {
			t.Fatalf("ThresholdFromFraction(%v, %d): %v", tc.frac, tc.maxScore, err)
		}
		if got != tc.want {
			t.Errorf("ThresholdFromFraction(%v, %d) = %d, want %d", tc.frac, tc.maxScore, got, tc.want)
		}
	}
}

// TestThresholdFromFractionRejects: anything outside (0,1] is an error,
// never a silently clamped threshold.
func TestThresholdFromFractionRejects(t *testing.T) {
	for _, bad := range []float64{0, -0.1, -1, 1.0000001, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := ThresholdFromFraction(bad, 30); err == nil {
			t.Errorf("ThresholdFromFraction(%v, 30): want error, got nil", bad)
		}
	}
}

// TestThresholdFromFractionNeverExceedsMax: rounding can push the value to
// maxScore but never beyond it.
func TestThresholdFromFractionNeverExceedsMax(t *testing.T) {
	for maxScore := 0; maxScore <= 64; maxScore++ {
		for _, frac := range []float64{0.1, 0.3, 1.0 / 3.0, 0.5, 0.7, 0.9, 0.99, 0.999999999999, 1.0} {
			got, err := ThresholdFromFraction(frac, maxScore)
			if err != nil {
				t.Fatal(err)
			}
			if got < 0 || got > maxScore {
				t.Fatalf("ThresholdFromFraction(%v, %d) = %d out of [0,%d]", frac, maxScore, got, maxScore)
			}
		}
	}
}

func TestEValue(t *testing.T) {
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met, bio.Trp})
	e, _ := NewEngine(prog, 0)
	// Perfect score: P = 0.25^6, E over 1001-window scan.
	want := 1001.0 * 1.0 / (1 << 12)
	if got := e.EValue(6, 1006); got < want*0.999 || got > want*1.001 {
		t.Errorf("EValue = %g, want %g", got, want)
	}
	if e.EValue(3, 1) != 0 {
		t.Error("short reference must have E=0")
	}
	if e.EValue(0, 1006) != 1001 {
		t.Error("score 0 is certain: E = window count")
	}
}
