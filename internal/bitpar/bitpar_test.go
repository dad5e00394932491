package bitpar

import (
	"math/rand"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/isa"
	"fabp/internal/subonly"
)

func TestNewKernelValidation(t *testing.T) {
	if _, err := NewKernel(nil, 0); err == nil {
		t.Error("empty program must fail")
	}
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met})
	if _, err := NewKernel(prog, -1); err == nil {
		t.Error("negative threshold must fail")
	}
	if _, err := NewKernel(prog, 4); err == nil {
		t.Error("oversized threshold must fail")
	}
	k, err := NewKernel(prog, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k.bk.QueryElems(0) != 3 || k.bk.Threshold(0) != 2 {
		t.Error("accessors")
	}
}

// TestKernelMatchesGoldenModel is the central equivalence proof: the
// bit-parallel kernel must produce exactly the naive golden model's hits
// across random queries, references, thresholds and block boundaries.
func TestKernelMatchesGoldenModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		p := bio.RandomProtSeq(rng, 1+rng.Intn(20))
		prog := isa.MustEncodeProtein(p)
		threshold := rng.Intn(len(prog) + 1)
		// Lengths straddling the 64-position block boundary matter most.
		refLen := len(prog) + rng.Intn(300)
		ref := bio.RandomNucSeq(rng, refLen)

		k, err := NewKernel(prog, threshold)
		if err != nil {
			t.Fatal(err)
		}
		got := k.Align(ref)
		want := subonly.Align(prog, ref, threshold)
		if len(got) != len(want) {
			t.Fatalf("trial %d (q=%d t=%d ref=%d): %d hits vs golden %d",
				trial, len(prog), threshold, refLen, len(got), len(want))
		}
		for i := range want {
			if got[i].Pos != want[i].Pos || got[i].Score != want[i].Score {
				t.Fatalf("trial %d hit %d: %+v vs golden %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestKernelBlockBoundaryExact(t *testing.T) {
	// Plant perfect matches exactly at positions 63, 64, 127, 128.
	rng := rand.New(rand.NewSource(2))
	p := bio.ProtSeq{bio.Met, bio.Trp, bio.Lys} // no Ser, no degeneracy loss
	gene := bio.EncodeGene(rng, p)
	prog := isa.MustEncodeProtein(p)
	for _, pos := range []int{0, 1, 62, 63, 64, 65, 127, 128, 191} {
		ref := bio.RandomNucSeq(rng, 256)
		copy(ref[pos:], gene)
		k, _ := NewKernel(prog, len(prog))
		found := false
		for _, h := range k.Align(ref) {
			if h.Pos == pos && h.Score == len(prog) {
				found = true
			}
		}
		if !found {
			t.Errorf("perfect match at %d not found", pos)
		}
	}
}

func TestKernelShortReference(t *testing.T) {
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met, bio.Trp})
	k, _ := NewKernel(prog, 0)
	if hits := k.Align(bio.NucSeq{bio.A, bio.U}); hits != nil {
		t.Error("short reference must yield nil")
	}
}

func TestKernelThresholdZeroCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := bio.RandomProtSeq(rng, 5)
	prog := isa.MustEncodeProtein(p)
	ref := bio.RandomNucSeq(rng, 500)
	k, _ := NewKernel(prog, 0)
	hits := k.Align(ref)
	if len(hits) != len(ref)-len(prog)+1 {
		t.Errorf("threshold 0: %d hits, want %d", len(hits), len(ref)-len(prog)+1)
	}
}

func TestFetchEdges(t *testing.T) {
	ref := make(bio.NucSeq, 70)
	for i := range ref {
		ref[i] = bio.U // all ones in both planes
	}
	p := packPlanes(ref)
	if got := fetch(p.b0, 0); got != ^uint64(0) {
		t.Errorf("fetch(0) = %x", got)
	}
	// Negative offsets read zero-padding at the low end.
	all := ^uint64(0)
	if got := fetch(p.b0, -2); got != all<<2 {
		t.Errorf("fetch(-2) = %x", got)
	}
	// Beyond the end reads zeros.
	if got := fetch(p.b0, 65); got != 0x1F {
		t.Errorf("fetch(65) = %x, want 0x1f", got)
	}
	if got := fetch(p.b0, 10_000); got != 0 {
		t.Errorf("fetch far = %x", got)
	}
}

// TestMaskEval pins the fused mux form every element compiles to: the
// expandMux masks, evaluated over the current-nucleotide planes, accept
// exactly the nucleotides in the 4-bit truth table.
func TestMaskEval(t *testing.T) {
	maskEval := func(mask uint8, c0, c1 uint64) uint64 {
		a, ac, g, gu := expandMux(mask)
		lo := a ^ (c0 & ac)
		hi := g ^ (c0 & gu)
		return lo ^ (c1 & (lo ^ hi))
	}
	// c = G (c1=1, c0=0) in lane 0; A in lane 1 (bits zero).
	c0, c1 := uint64(0), uint64(1)
	if m := maskEval(1<<bio.G, c0, c1); m&1 != 1 || m&2 != 0 {
		t.Errorf("G mask eval = %x", m)
	}
	if m := maskEval(1<<bio.A, c0, c1); m&1 != 0 || m&2 == 0 {
		t.Errorf("A mask eval = %x", m)
	}
	if maskEval(0xF, 0x5A, 0xA5) != ^uint64(0)&lowMask(64) {
		t.Error("full mask must accept everything")
	}
	if maskEval(0, 0x5A, 0xA5) != 0 {
		t.Error("empty mask must accept nothing")
	}
	// Every single-nucleotide mask accepts exactly its own lanes.
	for v := bio.Nucleotide(0); v < 4; v++ {
		l0, l1 := uint64(v&1), uint64(v>>1&1)
		for w := bio.Nucleotide(0); w < 4; w++ {
			if got := maskEval(1<<w, l0, l1)&1 == 1; got != (v == w) {
				t.Errorf("mask %v on %v = %v", w, v, got)
			}
		}
	}
}

func TestAlignPlanesSharedAcrossKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := bio.RandomNucSeq(rng, 50_000)
	planes := PackReference(ref)
	if planes.Len() != len(ref) {
		t.Fatal("planes length")
	}
	for i := 0; i < 5; i++ {
		p := bio.RandomProtSeq(rng, 4+i)
		prog := isa.MustEncodeProtein(p)
		k, _ := NewKernel(prog, len(prog)/2)
		shared := k.AlignPlanes(planes)
		direct := k.Align(ref)
		if len(shared) != len(direct) {
			t.Fatalf("query %d: shared %d hits, direct %d", i, len(shared), len(direct))
		}
		for j := range shared {
			if shared[j] != direct[j] {
				t.Fatalf("query %d hit %d differs", i, j)
			}
		}
	}
}

func TestKernelParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := bio.RandomProtSeq(rng, 12)
	prog := isa.MustEncodeProtein(p)
	ref := bio.RandomNucSeq(rng, 300_000)
	k, _ := NewKernel(prog, len(prog)/2)
	k.SetParallelism(1) // documented no-op: the kernel never fans out
	serial := k.Align(ref)
	k.SetParallelism(8)
	parallel := k.Align(ref)
	if len(serial) != len(parallel) {
		t.Fatalf("parallel %d hits vs serial %d", len(parallel), len(serial))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("hit %d differs", i)
		}
	}
}

func BenchmarkKernelAlign(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	p := bio.RandomProtSeq(rng, 50)
	prog := isa.MustEncodeProtein(p)
	ref := bio.RandomNucSeq(rng, 1_000_000)
	k, _ := NewKernel(prog, int(0.9*float64(len(prog))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Align(ref)
	}
	b.SetBytes(int64(len(ref)) / 4)
}
