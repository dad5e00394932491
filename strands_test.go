package fabp

import (
	"context"
	"testing"
)

func TestAlignBothStrands(t *testing.T) {
	// Plant the same gene forward at one locus and reverse-complemented at
	// another.
	ref, genes := SyntheticReference(81, 30_000, 1, 40)
	g := genes[0]
	q, err := NewQuery(g.Protein)
	if err != nil {
		t.Fatal(err)
	}
	// Build a new reference embedding the reverse complement of the gene.
	seq := ref.String()
	geneSeq := seq[g.Pos : g.Pos+3*40]
	rcGene := reverseComplementString(geneSeq)
	rcPos := 25_000
	mod := seq[:rcPos] + rcGene + seq[rcPos+len(rcGene):]
	ref2, err := NewReference(mod)
	if err != nil {
		t.Fatal(err)
	}

	a, err := NewAligner(q, WithThresholdFraction(0.9))
	if err != nil {
		t.Fatal(err)
	}
	hits, err := a.AlignBothStrands(context.Background(), ref2)
	if err != nil {
		t.Fatal(err)
	}
	var fwd, rev bool
	for _, h := range hits {
		if h.Strand == StrandForward && h.Pos == g.Pos {
			fwd = true
		}
		if h.Strand == StrandReverse && h.Pos == rcPos {
			rev = true
		}
	}
	if !fwd {
		t.Error("forward copy not found")
	}
	if !rev {
		t.Errorf("reverse copy not found among %d hits", len(hits))
	}
	// Order: forward coordinates ascending.
	for i := 1; i < len(hits); i++ {
		if hits[i].Pos < hits[i-1].Pos {
			t.Fatal("hits out of order")
		}
	}
	// Forward-only scan must miss the reverse copy.
	plain := mustAlign(t, a, ref2)
	for _, h := range plain {
		if h.Pos == rcPos {
			t.Error("forward scan should not see the reverse copy")
		}
	}
}

func reverseComplementString(s string) string {
	comp := map[byte]byte{'A': 'U', 'U': 'A', 'C': 'G', 'G': 'C'}
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		out[len(s)-1-i] = comp[s[i]]
	}
	return string(out)
}
