package fabp

import (
	"context"
	"sort"

	"fabp/internal/bio"
)

// Strand labels which reference strand a hit was found on.
type Strand string

// Strand values.
const (
	// StrandForward is the reference as given.
	StrandForward Strand = "+"
	// StrandReverse is its reverse complement; positions are reported in
	// forward coordinates.
	StrandReverse Strand = "-"
)

// StrandHit is a hit annotated with its strand. Pos is always a forward-
// strand coordinate: for reverse-strand hits it is the lowest-address
// nucleotide of the matching window (whose sequence, read right-to-left
// complemented, the query matched).
type StrandHit struct {
	Pos    int
	Score  int
	Strand Strand
}

// AlignBothStrands scans the reference and its reverse complement — the
// full TBLASTN-style search space (a protein-coding gene can sit on either
// strand; the paper's FabP scans one strand per pass, so a deployment runs
// two passes, doubling scan time). Hits come back in forward-coordinate
// order; a failed or canceled scan of either strand returns its error.
func (a *Aligner) AlignBothStrands(ctx context.Context, ref *Reference) ([]StrandHit, error) {
	fwd, err := a.AlignContext(ctx, ref)
	if err != nil {
		return nil, err
	}
	rev, err := a.AlignContext(ctx, &Reference{seq: bio.NucSeq(ref.seq).ReverseComplement()})
	if err != nil {
		return nil, err
	}
	var out []StrandHit
	for _, h := range fwd {
		out = append(out, StrandHit{Pos: h.Pos, Score: h.Score, Strand: StrandForward})
	}
	m := a.p.query.Elements()
	for _, h := range rev {
		// Window [h.Pos, h.Pos+m) on the reverse complement maps to
		// forward positions [len-h.Pos-m, len-h.Pos).
		out = append(out, StrandHit{
			Pos:    ref.Len() - h.Pos - m,
			Score:  h.Score,
			Strand: StrandReverse,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Strand < out[j].Strand
	})
	return out, nil
}
