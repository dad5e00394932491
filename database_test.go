package fabp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
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
	hits := a.AlignDatabase(d)
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
	hits, timing, err := s.Run(q, 0.9)
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
	if _, _, err := s.Run(q, 0); err == nil {
		t.Error("bad threshold fraction must fail")
	}
	if _, _, err := s.Run(q, 1.5); err == nil {
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
	perQuery, totalSec, err := s.RunBatch(queries, 0.9)
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
		"Session.RunBatch": func(qs []*Query, f float64) error { _, _, err := sess.RunBatch(qs, f); return err },
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
			if name == "Session.RunBatch" && tc.queries == nil {
				continue // an empty session batch is a valid no-op
			}
			err := run(tc.queries, tc.frac)
			if !errors.Is(err, tc.want) || !strings.Contains(fmt.Sprint(err), tc.msg) {
				t.Errorf("%s %s: err = %v, want %v naming %q", name, tc.name, err, tc.want, tc.msg)
			}
		}
	}
	if _, _, err := sess.Run(q, 1.5); !errors.Is(err, ErrBadOption) {
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
