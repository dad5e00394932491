package bitpar

import (
	"math/rand"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/isa"
	"fabp/internal/subonly"
)

func TestNewBatchKernelValidation(t *testing.T) {
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met})
	if _, err := NewBatchKernel(nil, nil); err == nil {
		t.Error("empty batch must fail")
	}
	if _, err := NewBatchKernel([]isa.Program{prog}, []int{1, 2}); err == nil {
		t.Error("mismatched threshold count must fail")
	}
	if _, err := NewBatchKernel([]isa.Program{prog}, []int{-1}); err == nil {
		t.Error("negative threshold must fail")
	}
	if _, err := NewBatchKernel([]isa.Program{prog, nil}, []int{1, 0}); err == nil {
		t.Error("empty program in batch must fail")
	}
	bk, err := NewBatchKernel([]isa.Program{prog}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if bk.NumQueries() != 1 || bk.MaxElems() != 3 || bk.MinElems() != 3 ||
		bk.QueryElems(0) != 3 || bk.Threshold(0) != 2 {
		t.Error("accessors")
	}
}

// TestBatchKernelMatchesPerQuery is the batch equivalence proof: the fused
// scan must be bit-exact with K independent golden-model scans across
// random mixed-length queries, thresholds, and reference lengths that
// straddle block boundaries.
func TestBatchKernelMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nq := 1 + rng.Intn(6)
		progs := make([]isa.Program, nq)
		thresholds := make([]int, nq)
		for i := 0; i < nq; i++ {
			p := bio.RandomProtSeq(rng, 1+rng.Intn(18))
			progs[i] = isa.MustEncodeProtein(p)
			thresholds[i] = rng.Intn(len(progs[i]) + 1)
		}
		refLen := 3 + rng.Intn(400)
		ref := bio.RandomNucSeq(rng, refLen)
		pp := PackReference(ref)

		bk, err := NewBatchKernel(progs, thresholds)
		if err != nil {
			t.Fatal(err)
		}
		got := bk.AlignPlanes(pp)
		for qi := range progs {
			want := subonly.Align(progs[qi], ref, thresholds[qi])
			if len(got[qi]) != len(want) {
				t.Fatalf("trial %d query %d: %d hits vs golden %d",
					trial, qi, len(got[qi]), len(want))
			}
			for i := range want {
				if got[qi][i].Pos != want[i].Pos || got[qi][i].Score != want[i].Score {
					t.Fatalf("trial %d query %d hit %d: %+v vs %+v",
						trial, qi, i, got[qi][i], want[i])
				}
			}
		}
	}
}

// TestBatchKernelRangeSharding proves the fused shard primitive: tiling
// [0, Starts) into ranges (including unaligned ones) and concatenating
// per-shard hit lists reproduces the whole-reference fused scan exactly,
// regardless of where shard boundaries fall relative to block boundaries
// and each query's own valid-start limit.
func TestBatchKernelRangeSharding(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	progs := []isa.Program{
		isa.MustEncodeProtein(bio.RandomProtSeq(rng, 4)),
		isa.MustEncodeProtein(bio.RandomProtSeq(rng, 11)),
		isa.MustEncodeProtein(bio.RandomProtSeq(rng, 2)),
	}
	thresholds := []int{5, 9, 3}
	ref := bio.RandomNucSeq(rng, 700)
	pp := PackReference(ref)
	bk, err := NewBatchKernel(progs, thresholds)
	if err != nil {
		t.Fatal(err)
	}
	want := bk.AlignPlanes(pp)
	starts := bk.Starts(pp.Len())
	for _, shardLen := range []int{37, 64, 65, 128, 300, starts + 10} {
		got := make([][]Hit, bk.NumQueries())
		for lo := 0; lo < starts; lo += shardLen {
			hi := lo + shardLen
			if hi > starts {
				hi = starts
			}
			got = bk.AlignPlanesRange(pp, lo, hi, got)
		}
		for qi := range want {
			if len(got[qi]) != len(want[qi]) {
				t.Fatalf("shardLen %d query %d: %d hits, want %d",
					shardLen, qi, len(got[qi]), len(want[qi]))
			}
			for i := range want[qi] {
				if got[qi][i] != want[qi][i] {
					t.Fatalf("shardLen %d query %d hit %d: %+v, want %+v",
						shardLen, qi, i, got[qi][i], want[qi][i])
				}
			}
		}
	}
}

// TestBatchKernelShortReference: queries longer than the reference get no
// hits while shorter batch-mates still scan their valid starts.
func TestBatchKernelShortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	short := isa.MustEncodeProtein(bio.RandomProtSeq(rng, 2)) // 6 elements
	long := isa.MustEncodeProtein(bio.RandomProtSeq(rng, 20)) // 60 elements
	ref := bio.RandomNucSeq(rng, 30)
	pp := PackReference(ref)
	bk, err := NewBatchKernel([]isa.Program{short, long}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	got := bk.AlignPlanes(pp)
	if len(got[1]) != 0 {
		t.Errorf("query longer than reference got %d hits, want 0", len(got[1]))
	}
	k, _ := NewKernel(short, 0)
	want := k.AlignPlanes(pp)
	if len(got[0]) != len(want) {
		t.Errorf("short query got %d hits, want %d", len(got[0]), len(want))
	}
}

// BenchmarkBatchVsPerQuery measures the fused win the batch kernel exists
// for: one plane pass for the whole batch vs K passes.
func BenchmarkBatchVsPerQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	const nq = 16
	progs := make([]isa.Program, nq)
	thresholds := make([]int, nq)
	kernels := make([]*Kernel, nq)
	for i := range progs {
		progs[i] = isa.MustEncodeProtein(bio.RandomProtSeq(rng, 12))
		thresholds[i] = len(progs[i]) * 4 / 5
		kernels[i], _ = NewKernel(progs[i], thresholds[i])
	}
	pp := PackReference(bio.RandomNucSeq(rng, 1<<18))
	bk, err := NewBatchKernel(progs, thresholds)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bk.AlignPlanes(pp)
		}
	})
	b.Run("per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range kernels {
				k.AlignPlanes(pp)
			}
		}
	})
}
