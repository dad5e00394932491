package fabp

import (
	"context"
	"strings"
	"testing"
)

func TestAlignVerified(t *testing.T) {
	ref, genes := SyntheticReference(61, 60_000, 3, 50)
	g := genes[0]
	// Diverged query: substitutions only, so the locus survives both
	// stages.
	mut, _, err := MutateProtein(5, g.Protein, 0.06, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewQuery(mut)
	a, err := NewAligner(q, WithThresholdFraction(0.75))
	if err != nil {
		t.Fatal(err)
	}
	hits, err := a.AlignVerified(context.Background(), ref, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no verified hits")
	}
	top := hits[0]
	if top.Pos != g.Pos {
		t.Errorf("top verified hit at %d, planted at %d", top.Pos, g.Pos)
	}
	if top.Identity < 0.85 {
		t.Errorf("identity %.2f too low for 6%% divergence", top.Identity)
	}
	if !strings.Contains(top.Pretty, "Query") {
		t.Error("pretty alignment missing")
	}
	if top.SWScore <= 0 {
		t.Error("SW score missing")
	}
	// Ordering: by SW score descending.
	for i := 1; i < len(hits); i++ {
		if hits[i].SWScore > hits[i-1].SWScore {
			t.Fatal("verified hits out of order")
		}
	}
}

func TestAlignVerifiedOptions(t *testing.T) {
	ref, genes := SyntheticReference(62, 40_000, 2, 40)
	q, _ := NewQuery(genes[0].Protein)
	a, _ := NewAligner(q, WithThreshold(q.MaxScore()/2)) // permissive: many hits
	all, err := a.AlignVerified(context.Background(), ref, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := a.AlignVerified(context.Background(), ref, VerifyOptions{MaxHits: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) > 3 {
		t.Errorf("MaxHits ignored: %d", len(capped))
	}
	strict, err := a.AlignVerified(context.Background(), ref, VerifyOptions{MinSWScore: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) > len(all) {
		t.Error("MinSWScore added hits")
	}
	for _, h := range strict {
		if h.SWScore < 100 {
			t.Errorf("hit below cutoff survived: %d", h.SWScore)
		}
	}
}

func TestAlignVerifiedRescuesIndelQuery(t *testing.T) {
	// A query with a small indel scores poorly under FabP past the indel,
	// but SW verification of a permissive-threshold hit recovers the full
	// homology — the two-stage pipeline compensating the paper's accuracy
	// trade.
	ref, genes := SyntheticReference(63, 50_000, 2, 60)
	g := genes[1]
	// Delete two residues from the middle of the source protein: FabP's
	// frame shifts after position 30, halving its score there.
	withIndel := g.Protein[:30] + g.Protein[32:]
	q, _ := NewQuery(withIndel)
	// Permissive FabP threshold (the prefilter role).
	a, _ := NewAligner(q, WithThresholdFraction(0.4))
	hits, err := a.AlignVerified(context.Background(), ref, VerifyOptions{MaxHits: 50, ContextResidues: 20})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h.Pos > g.Pos-90 && h.Pos < g.Pos+3*60 && h.Identity > 0.8 {
			found = true
		}
	}
	if !found {
		t.Error("verification failed to recover the indel query's locus")
	}
}

func TestTranslateWindow(t *testing.T) {
	ref, genes := SyntheticReference(64, 20_000, 1, 30)
	q, _ := NewQuery(genes[0].Protein)
	a, _ := NewAligner(q)
	prot, err := a.TranslateWindow(ref, genes[0].Pos)
	if err != nil {
		t.Fatal(err)
	}
	if prot != genes[0].Protein {
		t.Errorf("window translation %q != planted %q", prot, genes[0].Protein)
	}
	if _, err := a.TranslateWindow(ref, ref.Len()); err == nil {
		t.Error("out of range must fail")
	}
}
