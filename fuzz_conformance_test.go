package fabp

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/core"
)

// mustConformAligner builds an aligner or fails the test.
func mustConformAligner(t *testing.T, q *Query, opts ...AlignerOption) *Aligner {
	t.Helper()
	a, err := NewAligner(q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mustAlign is AlignContext under a background context, failing the test
// on a scan error.
func mustAlign(tb testing.TB, a *Aligner, ref *Reference) []Hit {
	tb.Helper()
	hits, err := a.AlignContext(context.Background(), ref)
	if err != nil {
		tb.Fatalf("AlignContext: %v", err)
	}
	return hits
}

// mustAlignDatabase is AlignDatabaseContext under a background context,
// failing the test on a scan error.
func mustAlignDatabase(tb testing.TB, a *Aligner, d *Database) []RecordHit {
	tb.Helper()
	hits, err := a.AlignDatabaseContext(context.Background(), d)
	if err != nil {
		tb.Fatalf("AlignDatabaseContext: %v", err)
	}
	return hits
}

func assertHitsEqual(t *testing.T, label string, want, got []Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: hit %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// engineHits is the golden oracle: the scalar core.Engine scanning the
// whole reference for one query at an absolute threshold.
func engineHits(t *testing.T, q *Query, ref *Reference, thr int) []Hit {
	t.Helper()
	e, err := core.NewEngine(q.program, thr)
	if err != nil {
		t.Fatal(err)
	}
	return publicHits(e.Align(ref.seq))
}

// checkAlignConformance is the differential oracle: the scalar engine's
// whole-reference scan defines the truth, and every execution strategy —
// each kernel selection through Align, sharded database scans under both
// kernels, and the chunked stream scan at chunk sizes straddling the
// L_q-element carry boundary — must reproduce it hit for hit, in order.
func checkAlignConformance(t *testing.T, protein, refStr string, thr int) {
	t.Helper()
	q, err := NewQuery(protein)
	if err != nil {
		t.Skip(err) // fuzzer found an invalid protein; not a conformance bug
	}
	ref, err := NewReference(refStr)
	if err != nil {
		t.Skip(err)
	}
	if ref.Len() < q.Elements() {
		t.Skip("reference shorter than query")
	}

	want := engineHits(t, q, ref, thr)
	for _, kernel := range []Kernel{KernelScalar, KernelBitParallel, KernelAuto} {
		a := mustConformAligner(t, q, WithKernelType(kernel), WithThreshold(thr))
		assertHitsEqual(t, "Align/"+kernel.String(), want, mustAlign(t, a, ref))
	}

	// Sharded database scans: small shards so even short references tile
	// into several, under both kernels and bounded parallelism.
	dbase, err := DatabaseFromReference("conf", ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []Kernel{KernelScalar, KernelBitParallel} {
		a := mustConformAligner(t, q, WithKernelType(kernel), WithThreshold(thr),
			WithShardLen(64), WithParallelism(2))
		rh := mustAlignDatabase(t, a, dbase)
		got := make([]Hit, len(rh))
		for i, h := range rh {
			got[i] = Hit{Pos: h.Offset, Score: h.Score}
		}
		assertHitsEqual(t, "sharded AlignDatabase/"+kernel.String(), want, got)
	}

	// Chunked stream scans. scanChunks clamps the chunk to at least m+2
	// letters, so m+2 is the smallest (carry-heaviest) chunking; the last
	// value is large enough that no carry happens at all. The stream is
	// also fed as lowercase DNA broken into CRLF lines, which must decode
	// to the same letters.
	m := q.Elements()
	var lower strings.Builder
	for i, nt := range ref.seq {
		lower.WriteByte(nt.DNALetter() | 0x20)
		if i%60 == 59 {
			lower.WriteString("\r\n")
		}
	}
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)
	for _, chunk := range []int{m + 2, m + 3, 2*m + 1, 5*m + 7, len(refStr) + 1} {
		streamChunkLetters = chunk
		for _, kernel := range []Kernel{KernelBitParallel, KernelAuto} {
			for _, text := range []string{refStr, lower.String()} {
				a := mustConformAligner(t, q, WithKernelType(kernel), WithThreshold(thr))
				var got []Hit
				err := a.AlignStreamContext(context.Background(), strings.NewReader(text), func(h Hit) error {
					got = append(got, h)
					return nil
				})
				if err != nil {
					t.Fatalf("chunk %d AlignStream/%s: %v", chunk, kernel, err)
				}
				assertHitsEqual(t, "chunked AlignStream/"+kernel.String(), want, got)
			}
		}
	}
}

// checkBatchConformance is the batch arm of the differential oracle: the
// per-query scalar engine defines the truth, and every front-door form of
// a K-query scan must reproduce it per query, hit for hit, in order — K
// independent Scan calls (the unfused baseline), and fused Queries scans
// of a Reference and of a Database (hits attributed by record) under
// shard sizes straddling the longest query's carry overlap, and of a
// Stream across chunk sizes straddling its carry. Queries deliberately
// mix lengths so the fused scan's per-query window clamping is exercised.
func checkBatchConformance(t *testing.T, proteins []string, refStr string, frac float64) {
	t.Helper()
	queries := make([]*Query, 0, len(proteins))
	maxElems := 0
	for _, p := range proteins {
		q, err := NewQuery(p)
		if err != nil {
			t.Skip(err) // fuzzer found an invalid protein; not a conformance bug
		}
		queries = append(queries, q)
		if q.Elements() > maxElems {
			maxElems = q.Elements()
		}
	}
	ref, err := NewReference(refStr)
	if err != nil {
		t.Skip(err)
	}
	dbase, err := DatabaseFromReference("conf", ref)
	if err != nil {
		t.Fatal(err)
	}

	// Scalar truth: one engine per query over the whole reference, and
	// its hits attributed by record for the Database arm.
	want := make([][]Hit, len(queries))
	wantRec := make([][]RecordHit, len(queries))
	for i, q := range queries {
		thr, err := core.ThresholdFromFraction(frac, q.MaxScore())
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(q.program, thr)
		if err != nil {
			t.Fatal(err)
		}
		raw := e.Align(ref.seq)
		want[i] = publicHits(raw)
		wantRec[i] = toRecordHits(dbase.d.Attribute(raw, q.Elements()))
	}

	assertBatch := func(label string, got [][]Hit) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d queries, want %d", label, len(got), len(want))
		}
		for qi := range want {
			assertHitsEqual(t, fmt.Sprintf("%s query %d", label, qi), want[qi], got[qi])
		}
	}
	scan := func(label string, req ScanRequest) *ScanResult {
		t.Helper()
		req.Queries, req.ThresholdFrac = queries, frac
		res, err := Scan(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(res.PerQuery) != len(queries) {
			t.Fatalf("%s: %d query results, want %d", label, len(res.PerQuery), len(queries))
		}
		return res
	}

	// K independent single-query scans (the unfused baseline).
	perQuery := make([][]Hit, len(queries))
	for i, q := range queries {
		res, err := Scan(context.Background(), ScanRequest{Query: q, Reference: ref, ThresholdFrac: frac, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		perQuery[i] = res.Hits
	}
	assertBatch("per-query Scan", perQuery)

	// The fused in-memory batch wrapper.
	fused, err := AlignBatch(queries, ref, frac)
	if err != nil {
		t.Fatal(err)
	}
	assertBatch("AlignBatch", fused)

	// Fused Queries scans of both in-memory targets: whole scan, then
	// shard sizes straddling the longest query's carry overlap (64 is the
	// smallest legal tile; the aligned sizes around maxElems force shards
	// whose overlap reads cross into the next shard's block).
	shardLens := []int{0, 64, 128, (maxElems + 63) &^ 63, (maxElems + 127) &^ 63}
	for _, shardLen := range shardLens {
		label := fmt.Sprintf("Scan Queries/Reference shardLen=%d", shardLen)
		res := scan(label, ScanRequest{Reference: ref, ShardLen: shardLen})
		got := make([][]Hit, len(queries))
		for qi, qr := range res.PerQuery {
			got[qi] = qr.Hits
		}
		assertBatch(label, got)

		label = fmt.Sprintf("Scan Queries/Database shardLen=%d", shardLen)
		res = scan(label, ScanRequest{Database: dbase, ShardLen: shardLen})
		for qi, qr := range res.PerQuery {
			if len(qr.RecordHits) != len(wantRec[qi]) {
				t.Fatalf("%s query %d: %d hits, want %d", label, qi, len(qr.RecordHits), len(wantRec[qi]))
			}
			for i := range wantRec[qi] {
				if qr.RecordHits[i] != wantRec[qi][i] {
					t.Fatalf("%s query %d hit %d = %+v, want %+v", label, qi, i, qr.RecordHits[i], wantRec[qi][i])
				}
			}
		}
	}

	// Fused Queries scans of a Stream: one pooled pack per chunk shared by
	// every query, across chunk sizes straddling the longest query's carry
	// (maxElems+2 is the clamp floor, the last runs carry-free) — streamed
	// hits must be byte-identical to the scalar truth per query.
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)
	for _, chunk := range []int{maxElems + 2, 2*maxElems + 1, len(refStr) + 1} {
		streamChunkLetters = chunk
		got := make([][]Hit, len(queries))
		scan(fmt.Sprintf("Scan Queries/Stream chunk=%d", chunk), ScanRequest{
			Stream: strings.NewReader(refStr),
			Emit: func(qi int, h Hit) error {
				got[qi] = append(got[qi], h)
				return nil
			},
		})
		assertBatch(fmt.Sprintf("batch stream chunk=%d", chunk), got)
	}
}

// conformanceCase derives a bounded random workload from fuzz inputs.
func conformanceCase(protSeed, refSeed int64, protLen uint8, refLen uint16, thrPct uint8) (protein, ref string, thr int) {
	n := 2 + int(protLen)%19 // 2..20 residues
	prot := bio.RandomProtSeq(rand.New(rand.NewSource(protSeed)), n)
	m := 3 * n
	nuc := bio.RandomNucSeq(rand.New(rand.NewSource(refSeed)), m+int(refLen)%4096)
	// Threshold between 20% and 60% of max score: low enough that random
	// references produce hits, high enough that they stay sparse.
	thr = m * (2 + int(thrPct)%5) / 10
	if thr < 1 {
		thr = 1
	}
	return prot.String(), nuc.String(), thr
}

// batchConformanceCase derives a mixed-length batch workload from fuzz
// inputs: three proteins of staggered lengths over one reference, plus a
// shared threshold fraction. Low fractions widen the mismatch budget past
// four counter planes, exercising the fused kernel's generic spill arm as
// well as the register-resident ones.
func batchConformanceCase(protSeed, refSeed int64, protLen uint8, refLen uint16, thrPct uint8) (proteins []string, ref string, frac float64) {
	rng := rand.New(rand.NewSource(protSeed))
	for k := 0; k < 3; k++ {
		n := 2 + (int(protLen)+5*k)%19 // 2..20 residues, staggered per query
		proteins = append(proteins, bio.RandomProtSeq(rng, n).String())
	}
	nuc := bio.RandomNucSeq(rand.New(rand.NewSource(refSeed)), 60+int(refLen)%4096)
	frac = float64(5+int(thrPct)%5) / 10 // 0.5..0.9
	return proteins, nuc.String(), frac
}

// FuzzAlignConformance fuzzes the differential oracle; run with
//
//	go test -fuzz FuzzAlignConformance .
func FuzzAlignConformance(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(6), uint16(900), uint8(0))
	f.Add(int64(3), int64(4), uint8(2), uint16(64), uint8(1))
	f.Add(int64(5), int64(6), uint8(20), uint16(4000), uint8(2))
	f.Add(int64(7), int64(8), uint8(11), uint16(130), uint8(4))
	f.Fuzz(func(t *testing.T, protSeed, refSeed int64, protLen uint8, refLen uint16, thrPct uint8) {
		protein, ref, thr := conformanceCase(protSeed, refSeed, protLen, refLen, thrPct)
		checkAlignConformance(t, protein, ref, thr)
		proteins, bref, frac := batchConformanceCase(protSeed, refSeed, protLen, refLen, thrPct)
		checkBatchConformance(t, proteins, bref, frac)
	})
}

// TestAlignConformanceRandomTrials runs the same oracle over random trials
// in a plain `go test`, plus planted-gene workloads whose hits are real
// homologies rather than chance threshold crossings.
func TestAlignConformanceRandomTrials(t *testing.T) {
	for trial := int64(0); trial < 12; trial++ {
		protein, ref, thr := conformanceCase(trial, trial+100, uint8(3*trial), uint16(211*trial), uint8(trial))
		checkAlignConformance(t, protein, ref, thr)
	}

	ref, genes := SyntheticReference(77, 30_000, 4, 25)
	refStr := ref.String()
	for i, g := range genes {
		mut, _, err := MutateProtein(int64(i), g.Protein, 0.05, 0)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQuery(mut)
		if err != nil {
			t.Fatal(err)
		}
		checkAlignConformance(t, mut, refStr, q.MaxScore()*4/5)
	}

	// The batch arm over random mixed-length workloads, then the planted
	// genes as one batch whose hits are real homologies.
	for trial := int64(0); trial < 8; trial++ {
		proteins, bref, frac := batchConformanceCase(trial, trial+200, uint8(5*trial), uint16(301*trial), uint8(trial))
		checkBatchConformance(t, proteins, bref, frac)
	}
	var planted []string
	for _, g := range genes {
		planted = append(planted, g.Protein)
	}
	checkBatchConformance(t, planted, refStr, 0.8)
}
