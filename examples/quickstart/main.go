// Quickstart: back-translate a protein query, align it against a small
// synthetic database with the FabP engine, and project the accelerator
// build on the paper's Kintex-7.
package main

import (
	"context"
	"fmt"
	"log"

	"fabp"
)

func main() {
	// A synthetic database with one known gene planted in random DNA.
	ref, genes := fabp.SyntheticReference(1, 20_000, 1, 40)
	target := genes[0]
	fmt.Printf("database: %d nt, planted gene at %d\n", ref.Len(), target.Pos)

	// Prepare the query: back-translation + 6-bit encoding.
	query, err := fabp.NewQuery(target.Protein)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n", query.Protein())
	fmt.Printf("degenerate back-translation: %s\n", query.Degenerate())

	// Align at 90% of the maximum score.
	aligner, err := fabp.NewAligner(query, fabp.WithThresholdFraction(0.9))
	if err != nil {
		log.Fatal(err)
	}
	hits, err := aligner.AlignContext(context.Background(), ref)
	if err != nil {
		log.Fatal(err)
	}
	for _, hit := range hits {
		fmt.Printf("hit: position %d, score %d/%d\n", hit.Pos, hit.Score, query.MaxScore())
	}

	// What would this build cost on the paper's FPGA?
	report, err := fabp.SizeOnDevice(fabp.DeviceKintex7, query.Residues(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)
}
