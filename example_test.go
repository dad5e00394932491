package fabp_test

import (
	"context"
	"fmt"
	"strings"

	"fabp"
)

// Back-translate a protein and inspect its degenerate representation.
func ExampleNewQuery() {
	q, err := fabp.NewQuery("MFSR*")
	if err != nil {
		panic(err)
	}
	fmt.Println(q.Degenerate())
	fmt.Println(q.Elements(), "elements,", q.MaxScore(), "max score")
	// Output:
	// AUG-UU(U/C)-UCD-(A/C)G(F:10)-U(A/G)(F:00)
	// 15 elements, 15 max score
}

// Align a query against a reference containing its exact gene.
func ExampleAligner_AlignContext() {
	// AUG AAA UGG GAA = Met Lys Trp Glu planted at offset 6.
	ref, err := fabp.NewReference("CCCCCCAUGAAAUGGGAACCCCCC")
	if err != nil {
		panic(err)
	}
	q, err := fabp.NewQuery("MKWE")
	if err != nil {
		panic(err)
	}
	a, err := fabp.NewAligner(q, fabp.WithThreshold(q.MaxScore()))
	if err != nil {
		panic(err)
	}
	hits, err := a.AlignContext(context.Background(), ref)
	if err != nil {
		panic(err)
	}
	for _, hit := range hits {
		fmt.Printf("pos %d score %d/%d\n", hit.Pos, hit.Score, q.MaxScore())
	}
	// Output:
	// pos 6 score 12/12
}

// Project the paper's FabP-50 build on the Kintex-7 (Table I).
func ExampleSizeOnDevice() {
	rep, err := fabp.SizeOnDevice(fabp.DeviceKintex7, 50, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("iterations=%d bottleneck=%s LUT=%.0f%%\n",
		rep.Iterations, rep.Bottleneck, 100*rep.LUTFrac)
	// Output:
	// iterations=1 bottleneck=bandwidth-bound LUT=58%
}

// Smith-Waterman with a rendered alignment.
func ExampleSmithWaterman() {
	r, err := fabp.SmithWaterman("MKWVTFISLL", "MKWVTFISLL")
	if err != nil {
		panic(err)
	}
	fmt.Println(r.CIGAR, r.Gaps, r.Identity)
	// Output:
	// 10M 0 1
}

// Stream a large reference through the aligner in bounded memory.
func ExampleAligner_AlignStreamContext() {
	q, err := fabp.NewQuery("MKWE")
	if err != nil {
		panic(err)
	}
	a, err := fabp.NewAligner(q, fabp.WithThreshold(q.MaxScore()))
	if err != nil {
		panic(err)
	}
	stream := strings.NewReader("ccccccATGAAATGGGAAcccccc") // DNA, mixed case
	err = a.AlignStreamContext(context.Background(), stream, func(h fabp.Hit) error {
		fmt.Printf("pos %d score %d\n", h.Pos, h.Score)
		return nil
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// pos 6 score 12
}
