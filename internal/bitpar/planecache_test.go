package bitpar

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/isa"
)

func TestPlaneCachePacksOncePerKey(t *testing.T) {
	c := NewPlaneCache(4)
	rng := rand.New(rand.NewSource(1))
	ref := bio.RandomNucSeq(rng, 1000)
	var packs atomic.Int64
	pack := func() *Planes { packs.Add(1); return PackReference(ref) }

	key := "db-a"
	p1 := c.Get(key, pack)
	p2 := c.Get(key, pack)
	if p1 != p2 || packs.Load() != 1 {
		t.Fatalf("same key repacked: %d packs", packs.Load())
	}
	if p1.Len() != 1000 {
		t.Fatalf("planes len %d", p1.Len())
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats %d/%d, want 1 hit 1 miss", s.Hits, s.Misses)
	}
	c.Invalidate(key)
	c.Get(key, pack)
	if packs.Load() != 2 {
		t.Error("invalidate must force a repack")
	}
}

func TestPlaneCacheEvictsLRU(t *testing.T) {
	c := NewPlaneCache(2)
	ref := bio.NucSeq{bio.A, bio.C, bio.G, bio.U}
	pack := func() *Planes { return PackReference(ref) }
	c.Get("a", pack)
	c.Get("b", pack)
	c.Get("a", pack) // refresh a
	c.Get("c", pack) // must evict b
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
	var packs atomic.Int64
	counting := func() *Planes { packs.Add(1); return PackReference(ref) }
	c.Get("a", counting)
	if packs.Load() != 0 {
		t.Error("a was evicted but b was older")
	}
	c.Get("b", counting)
	if packs.Load() != 1 {
		t.Error("b must have been evicted")
	}
}

// TestPlaneCacheConcurrent hammers one cache from many goroutines; run
// with -race. Concurrent first Gets of a key must pack exactly once.
func TestPlaneCacheConcurrent(t *testing.T) {
	c := NewPlaneCache(3)
	rng := rand.New(rand.NewSource(2))
	refs := make([]bio.NucSeq, 5)
	for i := range refs {
		refs[i] = bio.RandomNucSeq(rng, 500+i)
	}
	var packs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := (g + i) % len(refs)
				p := c.Get(key, func() *Planes {
					packs.Add(1)
					return PackReference(refs[key])
				})
				if p.Len() != 500+key {
					t.Errorf("key %d: planes len %d", key, p.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 3 {
		t.Errorf("capacity exceeded: %d", c.Len())
	}
	if packs.Load() < 5 {
		t.Errorf("only %d packs for 5 keys", packs.Load())
	}
}

// TestAlignPlanesRangeMatchesFull: shard-range scans concatenated in order
// must reproduce the full scan exactly, for ragged and aligned boundaries.
func TestAlignPlanesRangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := bio.RandomProtSeq(rng, 2+rng.Intn(15))
		prog := isa.MustEncodeProtein(p)
		ref := bio.RandomNucSeq(rng, len(prog)+rng.Intn(3000))
		bk, err := NewBatchKernel([]isa.Program{prog}, []int{rng.Intn(len(prog) + 1)})
		if err != nil {
			t.Fatal(err)
		}
		planes := PackReference(ref)
		full := bk.AlignPlanes(planes)[0]
		rangeHits := func(lo, hi int) []Hit { return bk.AlignPlanesRange(planes, lo, hi, nil)[0] }
		n := len(ref) - len(prog) + 1

		// 64-aligned shards.
		var sharded []Hit
		for lo := 0; lo < n; lo += 128 {
			hi := lo + 128
			if hi > n {
				hi = n
			}
			sharded = append(sharded, rangeHits(lo, hi)...)
		}
		assertSameHits(t, trial, full, sharded)

		// Ragged (unaligned) split point: trimming must still be exact.
		cut := rng.Intn(n + 1)
		ragged := append(rangeHits(0, cut), rangeHits(cut, n)...)
		assertSameHits(t, trial, full, ragged)

		// Out-of-range requests are clamped, not panics.
		assertSameHits(t, trial, rangeHits(0, 3), rangeHits(-5, 3))
		if got := rangeHits(n+100, n+200); got != nil {
			t.Fatalf("trial %d: beyond-end range returned %v", trial, got)
		}
	}
}

// TestAlignRangeMatchesAlign: the chunked-streaming primitive — a
// reference packed through a PlaneBuilder, then scanned range by range —
// reproduces the whole-reference scan.
func TestAlignRangeMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := bio.RandomProtSeq(rng, 6)
	prog := isa.MustEncodeProtein(p)
	ref := bio.RandomNucSeq(rng, 700)
	k, _ := NewKernel(prog, len(prog)/3)
	n := len(ref) - len(prog) + 1
	full := k.Align(ref)
	b := GetPlaneBuilder()
	defer b.Release()
	b.Append(ref[:300])
	b.Append(ref[300:])
	got := append(k.bk.AlignPlanesRange(b.Planes(), 0, 100, nil)[0],
		k.bk.AlignPlanesRange(b.Planes(), 100, n, nil)[0]...)
	assertSameHits(t, 0, full, got)
}

func assertSameHits(t *testing.T, trial int, want, got []Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("trial %d: %d hits vs %d", trial, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("trial %d hit %d: %+v vs %+v", trial, i, got[i], want[i])
		}
	}
}

// TestPlaneCacheBoundaryCapacities: non-positive capacities clamp to 1
// (the documented rule), and a capacity-1 cache still serves repeated
// Gets of one key from residence.
func TestPlaneCacheBoundaryCapacities(t *testing.T) {
	for _, capacity := range []int{-3, 0, 1} {
		c := NewPlaneCache(capacity)
		if c.Cap() != 1 {
			t.Fatalf("NewPlaneCache(%d).Cap() = %d, want 1", capacity, c.Cap())
		}
		ref := bio.NucSeq{bio.A, bio.C, bio.G, bio.U}
		var packs atomic.Int64
		pack := func() *Planes { packs.Add(1); return PackReference(ref) }
		c.Get("k", pack)
		c.Get("k", pack)
		if packs.Load() != 1 {
			t.Fatalf("capacity %d: %d packs for one key", capacity, packs.Load())
		}
		if c.Len() != 1 {
			t.Fatalf("capacity %d: len %d", capacity, c.Len())
		}
	}
}

// TestPlaneCacheStatsConsistency: Stats must reconcile with usage —
// lookups = hits + misses = total Gets, resident bytes match the resident
// planes, and Invalidate brings the footprint (but not the cumulative
// counters) down.
func TestPlaneCacheStatsConsistency(t *testing.T) {
	c := NewPlaneCache(4)
	rng := rand.New(rand.NewSource(9))
	refs := map[string]bio.NucSeq{
		"a": bio.RandomNucSeq(rng, 100),
		"b": bio.RandomNucSeq(rng, 1000),
		"c": bio.RandomNucSeq(rng, 64),
	}
	var want int64
	gets := 0
	for key, ref := range refs {
		ref := ref
		p := c.Get(key, func() *Planes { return PackReference(ref) })
		p2 := c.Get(key, func() *Planes { return PackReference(ref) })
		if p != p2 {
			t.Fatalf("key %s repacked", key)
		}
		want += p.SizeBytes()
		gets += 2
	}
	s := c.Stats()
	if s.Lookups() != uint64(gets) || s.Hits != 3 || s.Misses != 3 {
		t.Fatalf("stats %+v, want 3 hits 3 misses over %d gets", s, gets)
	}
	if s.ResidentBytes != want {
		t.Fatalf("resident %d bytes, want %d", s.ResidentBytes, want)
	}
	if s.Entries != 3 || s.Evictions != 0 {
		t.Fatalf("stats %+v", s)
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", hr)
	}

	c.Invalidate("b")
	s = c.Stats()
	if s.Entries != 2 {
		t.Fatalf("entries %d after invalidate", s.Entries)
	}
	if s.ResidentBytes >= want {
		t.Fatalf("resident bytes %d did not shrink from %d", s.ResidentBytes, want)
	}
	if s.Hits != 3 || s.Misses != 3 {
		t.Fatalf("cumulative counters changed by Invalidate: %+v", s)
	}

	c.Invalidate("a")
	c.Invalidate("c")
	c.Invalidate("missing") // no-op
	s = c.Stats()
	if s.Entries != 0 || s.ResidentBytes != 0 {
		t.Fatalf("stats %+v after full invalidation", s)
	}

	c.ResetStats()
	s = c.Stats()
	if s.Lookups() != 0 || s.Evictions != 0 {
		t.Fatalf("ResetStats left %+v", s)
	}
}

// TestPlaneCacheEvictionCounter: pushing past capacity must count one
// eviction per dropped entry.
func TestPlaneCacheEvictionCounter(t *testing.T) {
	c := NewPlaneCache(2)
	ref := bio.NucSeq{bio.A, bio.C}
	pack := func() *Planes { return PackReference(ref) }
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Get(k, pack)
	}
	s := c.Stats()
	if s.Evictions != 2 {
		t.Fatalf("evictions %d, want 2", s.Evictions)
	}
	if s.Entries != 2 {
		t.Fatalf("entries %d", s.Entries)
	}
}

// TestPlaneCacheGetInvalidateRaces hammers Get/Invalidate/Stats from many
// goroutines under eviction pressure (capacity far below the key set);
// run with -race. Afterwards the books must balance: lookups == total
// Gets, entries within capacity, resident bytes matching a fresh count.
func TestPlaneCacheGetInvalidateRaces(t *testing.T) {
	c := NewPlaneCache(2)
	rng := rand.New(rand.NewSource(10))
	refs := make([]bio.NucSeq, 8)
	for i := range refs {
		refs[i] = bio.RandomNucSeq(rng, 200+17*i)
	}
	var gets atomic.Int64
	var wg sync.WaitGroup
	const goroutines, iters = 12, 150
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := (g*7 + i) % len(refs)
				switch {
				case i%13 == 12:
					c.Invalidate(key)
				case i%29 == 28:
					s := c.Stats()
					if s.Entries > 2 || s.ResidentBytes < 0 {
						t.Errorf("mid-run stats out of bounds: %+v", s)
						return
					}
				default:
					p := c.Get(key, func() *Planes { return PackReference(refs[key]) })
					gets.Add(1)
					if p.Len() != 200+17*key {
						t.Errorf("key %d: wrong planes (len %d)", key, p.Len())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Lookups() != uint64(gets.Load()) {
		t.Errorf("lookups %d != %d gets", s.Lookups(), gets.Load())
	}
	if s.Entries > 2 {
		t.Errorf("capacity exceeded: %d entries", s.Entries)
	}
	// Invalidate everything: the footprint must be fully released while
	// the cumulative counters survive.
	for i := range refs {
		c.Invalidate(i)
	}
	s = c.Stats()
	if s.Entries != 0 || s.ResidentBytes != 0 {
		t.Errorf("footprint left after full invalidation: %+v", s)
	}
	if s.Lookups() != uint64(gets.Load()) {
		t.Errorf("counters lost by Invalidate: %+v", s)
	}
}
