package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"sync"

	"fabp"
)

// Every query is a 100-residue protein (300 back-translated elements),
// scanned at the paper's operating threshold of 0.8 of its maximum score.
const (
	geneResidues  = 100
	geneNt        = 3 * geneResidues
	thresholdFrac = 0.8
	fastaWidth    = 80
)

// subSeed derives the seed of one named input from the run's seed, so
// each input is reproducible on its own.
func subSeed(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, tag, i)
	return int64(h.Sum64() >> 1)
}

// gene is a planted coding region: the protein and where its first codon
// sits, as a record index and in-record offset for a database (record is
// -1 for a single reference).
type gene struct {
	protein string
	record  int
	offset  int
}

// dbInput is a generated multi-record nucleotide database.
type dbInput struct {
	fasta  []byte
	seq    string // the records' letters, concatenated as the database stores them
	recLen int
	genes  []gene
}

// makeDatabase generates records of recLen nt, each with genesPer planted
// genes.
func makeDatabase(seed int64, tag string, records, recLen, genesPer int) dbInput {
	var fa bytes.Buffer
	var seq strings.Builder
	in := dbInput{recLen: recLen}
	for r := 0; r < records; r++ {
		ref, planted := fabp.SyntheticReference(subSeed(seed, tag, r), recLen, genesPer, geneResidues)
		letters := ref.String()
		seq.WriteString(letters)
		fmt.Fprintf(&fa, ">%s%03d\n", tag, r)
		writeWrapped(&fa, letters)
		for _, g := range planted {
			in.genes = append(in.genes, gene{protein: g.Protein, record: r, offset: g.Pos})
		}
	}
	in.fasta = fa.Bytes()
	in.seq = seq.String()
	return in
}

func writeWrapped(b *bytes.Buffer, letters string) {
	for len(letters) > fastaWidth {
		b.WriteString(letters[:fastaWidth])
		b.WriteByte('\n')
		letters = letters[fastaWidth:]
	}
	b.WriteString(letters)
	b.WriteByte('\n')
}

// makeReference generates one reference of n nt with the given number of
// planted genes.
func makeReference(seed int64, n, genes int) (string, []gene) {
	ref, planted := fabp.SyntheticReference(seed, n, genes, geneResidues)
	out := make([]gene, len(planted))
	for i, g := range planted {
		out[i] = gene{protein: g.Protein, record: -1, offset: g.Pos}
	}
	return ref.String(), out
}

// writeDatabase builds the database from FASTA and saves it in the
// current (v2) file format, bit-planes included.
func writeDatabase(path string, fasta []byte) error {
	d, err := fabp.BuildDatabase(bytes.NewReader(fasta))
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := d.SaveDatabase(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLines stores one string per line.
func writeLines(path string, lines []string) error {
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

func readLines(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return strings.Fields(string(b)), nil
}

func proteins(gs []gene) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.protein
	}
	return out
}

const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

// variants makes single-substitution variants of planted proteins, never
// the same string twice in a run, so every variant query is new to the
// program's result cache while still hitting its gene: one residue
// changes at most 3 of 300 elements, well above the 0.8 threshold.
type variants struct {
	mu   sync.Mutex
	seen map[string]bool
}

func newVariants() *variants { return &variants{seen: map[string]bool{}} }

func (v *variants) of(rng *rand.Rand, protein string) string {
	for {
		b := []byte(protein)
		i := rng.Intn(len(b))
		aa := aminoAcids[rng.Intn(len(aminoAcids))]
		if aa == b[i] {
			continue
		}
		b[i] = aa
		s := string(b)
		v.mu.Lock()
		fresh := !v.seen[s]
		v.seen[s] = true
		v.mu.Unlock()
		if fresh {
			return s
		}
	}
}
