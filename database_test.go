package fabp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"fabp/internal/core"
)

func buildFacadeDB(t *testing.T) (*Database, []PlantedGene) {
	t.Helper()
	ref, genes := SyntheticReference(55, 40_000, 4, 50)
	var fasta strings.Builder
	// Split the reference into two records at a gene-free point (20_000 is
	// inside a slot boundary region only probabilistically; instead keep
	// one record so planted positions stay valid, plus a decoy record).
	fasta.WriteString(">main primary sequence\n")
	fasta.WriteString(ref.String())
	fasta.WriteString("\n>decoy\n")
	decoy, _ := SyntheticReference(56, 5_000, 0, 0)
	fasta.WriteString(decoy.String())
	fasta.WriteString("\n")
	d, err := BuildDatabase(strings.NewReader(fasta.String()))
	if err != nil {
		t.Fatal(err)
	}
	return d, genes
}

func TestBuildDatabaseBasics(t *testing.T) {
	d, _ := buildFacadeDB(t)
	if d.NumRecords() != 2 || d.Len() != 45_000 {
		t.Fatalf("geometry: %d records, %d nt", d.NumRecords(), d.Len())
	}
	r := d.Record(0)
	if r.ID != "main" || r.Description != "primary sequence" || r.Length != 40_000 {
		t.Errorf("record 0: %+v", r)
	}
	if _, err := BuildDatabase(strings.NewReader("")); err == nil {
		t.Error("empty FASTA must fail")
	}
}

func TestDatabaseSaveLoad(t *testing.T) {
	d, _ := buildFacadeDB(t)
	var buf bytes.Buffer
	if err := d.SaveDatabase(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() || d2.NumRecords() != d.NumRecords() {
		t.Error("round trip lost geometry")
	}
	if _, err := LoadDatabase(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk must fail")
	}
}

func TestAlignDatabaseAttribution(t *testing.T) {
	d, genes := buildFacadeDB(t)
	g := genes[1]
	q, err := NewQuery(g.Protein)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAligner(q, WithThresholdFraction(0.9))
	if err != nil {
		t.Fatal(err)
	}
	hits := mustAlignDatabase(t, a, d)
	found := false
	for _, h := range hits {
		if h.RecordID == "main" && h.Offset == g.Pos {
			found = true
		}
	}
	if !found {
		t.Errorf("planted gene not attributed among %d hits", len(hits))
	}
}

func TestSessionEndToEnd(t *testing.T) {
	d, genes := buildFacadeDB(t)
	s, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewQuery(genes[0].Protein)
	hits, timing, err := s.RunContext(context.Background(), q, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h.RecordID == "main" && h.Offset == genes[0].Pos {
			found = true
		}
	}
	if !found {
		t.Error("session missed the planted gene")
	}
	if timing.Total <= 0 || timing.Kernel <= 0 || timing.Total < timing.Kernel {
		t.Errorf("timing implausible: %+v", timing)
	}
	if _, _, err := s.RunContext(context.Background(), q, 0); err == nil {
		t.Error("bad threshold fraction must fail")
	}
	if _, _, err := s.RunContext(context.Background(), q, 1.5); err == nil {
		t.Error("bad threshold fraction must fail")
	}
}

func TestSessionBatch(t *testing.T) {
	d, genes := buildFacadeDB(t)
	s, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*Query
	for _, g := range genes[:3] {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	perQuery, totalSec, err := s.RunBatchContext(context.Background(), queries, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(perQuery) != 3 || totalSec <= 0 {
		t.Fatalf("batch shape: %d results, %.3fs", len(perQuery), totalSec)
	}
	for i, g := range genes[:3] {
		found := false
		for _, h := range perQuery[i] {
			if h.Offset == g.Pos {
				found = true
			}
		}
		if !found {
			t.Errorf("batch query %d missed its gene", i)
		}
	}
}

func TestAlignBatchFacade(t *testing.T) {
	ref, genes := SyntheticReference(77, 30_000, 3, 40)
	var queries []*Query
	for _, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	results, err := AlignBatch(queries, ref, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range genes {
		found := false
		for _, h := range results[i] {
			if h.Pos == g.Pos {
				found = true
			}
		}
		if !found {
			t.Errorf("batch query %d missed the gene at %d", i, g.Pos)
		}
	}
	if _, err := AlignBatch(nil, ref, 0.9); err == nil {
		t.Error("empty batch must fail")
	}
}

// TestBatchErrorsTagged: every batch entry point's validation errors
// match the facade taxonomy — nil, empty or missing queries are
// ErrBadQuery, a bad threshold fraction is ErrBadOption — with their
// messages unchanged.
func TestBatchErrorsTagged(t *testing.T) {
	ref, genes := SyntheticReference(5, 4_000, 1, 20)
	dbase, err := DatabaseFromReference("tagged", ref)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(dbase)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]func(queries []*Query, frac float64) error{
		"AlignBatch": func(qs []*Query, f float64) error { _, err := AlignBatch(qs, ref, f); return err },
		"AlignDatabaseBatch": func(qs []*Query, f float64) error {
			_, err := AlignDatabaseBatch(dbase, qs, f)
			return err
		},
		"AlignBatchStream": func(qs []*Query, f float64) error {
			return AlignBatchStream(qs, strings.NewReader(ref.String()), f, func(int, Hit) error { return nil })
		},
		"Session.RunBatch": func(qs []*Query, f float64) error {
			_, _, err := sess.RunBatchContext(context.Background(), qs, f)
			return err
		},
	}
	cases := []struct {
		name    string
		queries []*Query
		frac    float64
		want    error
		msg     string
	}{
		{"empty batch", nil, 0.8, ErrBadQuery, "fabp: empty batch"},
		{"nil query", []*Query{q, nil}, 0.8, ErrBadQuery, "invalid batch queries at index 1"},
		{"bad fraction", []*Query{q}, 1.5, ErrBadOption, "1.5"},
	}
	for name, run := range entries {
		for _, tc := range cases {
			err := run(tc.queries, tc.frac)
			if !errors.Is(err, tc.want) || !strings.Contains(fmt.Sprint(err), tc.msg) {
				t.Errorf("%s %s: err = %v, want %v naming %q", name, tc.name, err, tc.want, tc.msg)
			}
		}
	}
	if _, _, err := sess.RunContext(context.Background(), q, 1.5); !errors.Is(err, ErrBadOption) {
		t.Errorf("Session.Run bad fraction: err = %v, want ErrBadOption", err)
	}
}

func TestRunExperimentAs(t *testing.T) {
	md, err := RunExperimentAs("table1", "markdown")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "| build |") && !strings.Contains(md, "| build ") {
		t.Errorf("markdown output: %s", md[:120])
	}
	csvOut, err := RunExperimentAs("table1", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvOut, "build,iter") {
		t.Errorf("csv output: %s", csvOut[:120])
	}
	if _, err := RunExperimentAs("table1", "xml"); err == nil {
		t.Error("bad format must fail")
	}
	if _, err := RunExperimentAs("nope", "text"); err == nil {
		t.Error("bad experiment must fail")
	}
}

// TestSessionMatchesEngine: a session's hits are the scalar core.Engine's
// hits over the concatenated database, attributed to records, for a
// single run and for every query of a batch.
func TestSessionMatchesEngine(t *testing.T) {
	d, genes := buildShardDB(t, 909, 60_000)
	s, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	const frac = 0.5
	var queries []*Query
	for _, g := range genes[:3] {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	engineHits := func(q *Query) []RecordHit {
		threshold, err := core.ThresholdFromFraction(frac, q.MaxScore())
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(q.program, threshold)
		if err != nil {
			t.Fatal(err)
		}
		return toRecordHits(d.d.Attribute(e.Align(d.d.Seq()), q.Elements()))
	}
	ctx := context.Background()
	want := engineHits(queries[0])
	if len(want) < 2 {
		t.Fatalf("engine found %d hits; the comparison is vacuous", len(want))
	}
	hits, _, err := s.RunContext(ctx, queries[0], frac)
	if err != nil {
		t.Fatal(err)
	}
	sameRecordHits(t, "RunContext", want, hits)
	perQuery, _, err := s.RunBatchContext(ctx, queries, frac)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		sameRecordHits(t, fmt.Sprintf("RunBatchContext query %d", i), engineHits(q), perQuery[i])
	}
}

// TestSessionTimingModelPinned pins the paper's timing model on a
// one-record database, where every window is attributed: RunContext's hit
// count and five timing legs, and RunBatchContext's per-query hit counts
// and total seconds, for fixed inputs.
func TestSessionTimingModelPinned(t *testing.T) {
	ref, genes := SyntheticReference(21, 50_000, 3, 40)
	d, err := DatabaseFromReference("one", ref)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*Query
	for _, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*want }
	ctx := context.Background()
	hits, tm, err := s.RunContext(ctx, queries[0], 0.55)
	if err != nil {
		t.Fatal(err)
	}
	want := QueryTiming{
		Encode: 2.4000000000000003e-06, QueryTransfer: 1.0018461538461539e-05,
		Kernel: 1.195e-06, Readback: 1.0039384615384615e-05, Total: 7.365284615384616e-05,
	}
	if len(hits) != 32 || !near(tm.Encode, want.Encode) || !near(tm.QueryTransfer, want.QueryTransfer) ||
		!near(tm.Kernel, want.Kernel) || !near(tm.Readback, want.Readback) || !near(tm.Total, want.Total) {
		t.Errorf("RunContext: %d hits, timing %+v; want 32 hits, timing %+v", len(hits), tm, want)
	}
	perQuery, total, err := s.RunBatchContext(ctx, queries, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{32, 202, 13} {
		if len(perQuery[i]) != n {
			t.Errorf("RunBatchContext query %d: %d hits, want %d", i, len(perQuery[i]), n)
		}
	}
	if !near(total, 0.00020114438461538462) {
		t.Errorf("RunBatchContext total %v s, want 0.00020114438461538462", total)
	}
}

// TestSessionBatchTelemetry: a single-query session run is not a fused
// batch — it leaves every batch.* metric unchanged — while a session
// batch books fused passes and saved plane bytes exactly as
// AlignDatabaseBatch does on the same input.
func TestSessionBatchTelemetry(t *testing.T) {
	d, genes := buildShardDB(t, 919, 600_000)
	s, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*Query
	for _, g := range genes[:3] {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	batchMetrics := func() map[string]uint64 {
		snap := DefaultMetrics().Snapshot()
		out := map[string]uint64{}
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "batch.") {
				out[name] = v
			}
		}
		for name, l := range snap.Latencies {
			if strings.HasPrefix(name, "batch.") {
				out[name+".count"] = l.Count
			}
		}
		return out
	}
	ctx := context.Background()
	before := batchMetrics()
	if _, _, err := s.RunContext(ctx, queries[0], 0.8); err != nil {
		t.Fatal(err)
	}
	for name, v := range batchMetrics() {
		if v != before[name] {
			t.Errorf("single-query RunContext moved %s: %d → %d", name, before[name], v)
		}
	}

	fused := func(run func() error) (passes, saved uint64) {
		b := batchMetrics()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		a := batchMetrics()
		return a["batch.fused_passes"] - b["batch.fused_passes"], a["batch.plane_bytes_saved"] - b["batch.plane_bytes_saved"]
	}
	wantPasses, wantSaved := fused(func() error { _, err := AlignDatabaseBatch(d, queries, 0.8); return err })
	if wantPasses < 2 || wantSaved == 0 {
		t.Fatalf("AlignDatabaseBatch booked %d fused passes, %d saved bytes; the comparison is vacuous", wantPasses, wantSaved)
	}
	passes, saved := fused(func() error { _, _, err := s.RunBatchContext(ctx, queries, 0.8); return err })
	if passes != wantPasses || saved != wantSaved {
		t.Errorf("RunBatchContext booked %d fused passes, %d saved bytes; AlignDatabaseBatch %d, %d",
			passes, saved, wantPasses, wantSaved)
	}
}
