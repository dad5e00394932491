package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPlanCoversEveryStartOnce(t *testing.T) {
	for _, tc := range []struct{ starts, shardLen int }{
		{0, 0}, {-5, 0}, {1, 0}, {63, 64}, {64, 64}, {65, 64},
		{1000, 128}, {1 << 20, 0}, {12345, 100}, // 100 rounds up to 128
	} {
		shards := Plan(tc.starts, tc.shardLen)
		if tc.starts <= 0 {
			if shards != nil {
				t.Errorf("Plan(%d,%d) = %v, want nil", tc.starts, tc.shardLen, shards)
			}
			continue
		}
		pos := 0
		for i, s := range shards {
			if s.Index != i {
				t.Fatalf("shard %d has Index %d", i, s.Index)
			}
			if s.Lo != pos || s.Hi <= s.Lo {
				t.Fatalf("Plan(%d,%d): shard %d = [%d,%d), want Lo=%d",
					tc.starts, tc.shardLen, i, s.Lo, s.Hi, pos)
			}
			if s.Lo%64 != 0 {
				t.Fatalf("shard %d Lo %d not 64-aligned", i, s.Lo)
			}
			pos = s.Hi
		}
		if pos != tc.starts {
			t.Errorf("Plan(%d,%d) covers %d starts", tc.starts, tc.shardLen, pos)
		}
	}
}

func TestPlanRangeCoversRangeOnce(t *testing.T) {
	for _, tc := range []struct{ lo, hi, shardLen int }{
		{0, 0, 0}, {5, 5, 64}, {10, 3, 64}, {-7, 100, 64},
		{0, 1000, 128}, {1, 1000, 128}, {63, 64, 64}, {63, 1000, 64},
		{64, 1000, 64}, {65, 1000, 64}, {200, 201, 0}, {100, 12345, 100},
	} {
		shards := PlanRange(tc.lo, tc.hi, tc.shardLen)
		lo := tc.lo
		if lo < 0 {
			lo = 0
		}
		if tc.hi <= lo {
			if shards != nil {
				t.Errorf("PlanRange(%d,%d,%d) = %v, want nil", tc.lo, tc.hi, tc.shardLen, shards)
			}
			continue
		}
		pos := lo
		for i, s := range shards {
			if s.Index != i {
				t.Fatalf("shard %d has Index %d", i, s.Index)
			}
			if s.Lo != pos || s.Hi <= s.Lo {
				t.Fatalf("PlanRange(%d,%d,%d): shard %d = [%d,%d), want Lo=%d",
					tc.lo, tc.hi, tc.shardLen, i, s.Lo, s.Hi, pos)
			}
			// Every boundary after the plan's own lo must be 64-aligned.
			if i > 0 && s.Lo%64 != 0 {
				t.Fatalf("shard %d Lo %d not 64-aligned", i, s.Lo)
			}
			pos = s.Hi
		}
		if pos != tc.hi {
			t.Errorf("PlanRange(%d,%d,%d) covers to %d, want %d", tc.lo, tc.hi, tc.shardLen, pos, tc.hi)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	if p.Workers() != 3 {
		t.Fatalf("workers %d", p.Workers())
	}
	var cur, max atomic.Int64
	track := func() {
		if c := cur.Add(1); c > max.Load() {
			max.Store(c)
		}
		defer cur.Add(-1)
		for i := 0; i < 1000; i++ {
			_ = i
		}
	}
	if err := p.Each(context.Background(), 50, func(int) { track() }); err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), p, nil, 50,
		func(context.Context, int) (int, error) { track(); return 0, nil },
		func(int, int, error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > 3 {
		t.Errorf("observed %d concurrent tasks, bound is 3", m)
	}
}

// gather is the collect-every-part sink over Run for the tests below:
// parts concatenate in the order Run hands them over.
func gather[T any](ctx context.Context, p *Pool, n int, produce func(i int) []T) ([]T, error) {
	var out []T
	err := Run(ctx, p, nil, n,
		func(_ context.Context, i int) ([]T, error) { return produce(i), nil },
		func(_ int, part []T, err error) error {
			if err != nil {
				return err
			}
			out = append(out, part...)
			return nil
		})
	return out, err
}

// gatherStreams is gather over per-stream parts: stream s of every part
// concatenates into out[s] in shard order; short parts contribute nothing
// to the streams they lack.
func gatherStreams[T any](ctx context.Context, p *Pool, n, streams int, produce func(i int) [][]T) ([][]T, error) {
	out := make([][]T, streams)
	err := Run(ctx, p, nil, n,
		func(_ context.Context, i int) ([][]T, error) { return produce(i), nil },
		func(_ int, part [][]T, err error) error {
			if err != nil {
				return err
			}
			for s := range part {
				out[s] = append(out[s], part[s]...)
			}
			return nil
		})
	return out, err
}

func TestGatherPreservesIndexOrder(t *testing.T) {
	p := NewPool(8)
	got, err := gather(context.Background(), p, 40, func(i int) []int {
		return []int{i * 2, i*2 + 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 80 {
		t.Fatalf("len %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if out, _ := gather(context.Background(), p, 5, func(int) []int { return nil }); out != nil {
		t.Errorf("all-empty gather = %v, want nil", out)
	}
}

func TestGatherBatchPreservesOrderPerStream(t *testing.T) {
	p := NewPool(8)
	const shards, streams = 40, 3
	got, err := gatherStreams(context.Background(), p, shards, streams, func(i int) [][]int {
		// Stream s gets s+1 items from each shard, tagged by shard order.
		out := make([][]int, streams)
		for s := range out {
			for k := 0; k <= s; k++ {
				out[s] = append(out[s], i*(s+1)+k)
			}
		}
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != streams {
		t.Fatalf("streams %d, want %d", len(got), streams)
	}
	for s, stream := range got {
		if len(stream) != shards*(s+1) {
			t.Fatalf("stream %d len %d, want %d", s, len(stream), shards*(s+1))
		}
		for i, v := range stream {
			if v != i {
				t.Fatalf("stream %d item %d = %d (shard order broken)", s, i, v)
			}
		}
	}
}

func TestGatherBatchRaggedAndEmpty(t *testing.T) {
	p := NewPool(4)
	// Run hands parts over exactly as produced: ragged parts reach the
	// sink ragged, so missing streams get nothing and stay nil.
	got, err := gatherStreams(context.Background(), p, 10, 3, func(i int) [][]int {
		if i%2 == 0 {
			return [][]int{{i}}
		}
		return nil
	})
	if err != nil || len(got) != 3 {
		t.Fatalf("streams %d, err %v", len(got), err)
	}
	if len(got[0]) != 5 || got[1] != nil || got[2] != nil {
		t.Fatalf("ragged gather: %v", got)
	}
	// Zero shards never call produce or the sink.
	if err := Run(context.Background(), p, nil, 0,
		func(context.Context, int) (int, error) { t.Fatal("produce called"); return 0, nil },
		func(int, int, error) error { t.Fatal("sink called"); return nil }); err != nil {
		t.Fatalf("empty plan: %v", err)
	}
	// The inline single-shard path hands over the part as produced.
	if got, _ := gatherStreams(context.Background(), p, 1, 3, func(int) [][]int { return [][]int{{7}} }); len(got) != 3 || got[0][0] != 7 {
		t.Fatalf("single-shard gather: %v", got)
	}
}

func TestStreamOrderedDeliversInOrder(t *testing.T) {
	p := NewPool(4)
	var got []int
	err := Run(context.Background(), p, nil, 30,
		func(_ context.Context, i int) ([]int, error) {
			return []int{i * 10, i*10 + 1}, nil
		},
		func(_ int, part []int, err error) error {
			got = append(got, part...)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("len %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order at %d: %v", i, got[i-3:i+1])
		}
	}
}

func TestStreamOrderedStopsOnError(t *testing.T) {
	p := NewPool(4)
	produceErr := errors.New("shard exploded")
	var failedAt int
	err := Run(context.Background(), p, nil, 100,
		func(_ context.Context, i int) ([]int, error) {
			if i == 7 {
				return nil, produceErr
			}
			return []int{i}, nil
		},
		func(i int, _ []int, err error) error {
			failedAt = i
			return err
		})
	if !errors.Is(err, produceErr) || failedAt != 7 {
		t.Errorf("produce error lost: %v (sink saw shard %d)", err, failedAt)
	}

	emitErr := errors.New("consumer full")
	var seen int
	err = Run(context.Background(), p, nil, 100,
		func(_ context.Context, i int) ([]int, error) { return []int{i}, nil },
		func(_ int, part []int, _ error) error {
			for _, v := range part {
				seen++
				if v == 5 {
					return emitErr
				}
			}
			return nil
		})
	if !errors.Is(err, emitErr) {
		t.Errorf("emit error lost: %v", err)
	}
	if seen != 6 {
		t.Errorf("emitted %d items after early stop, want 6", seen)
	}
}

// TestPoolSharedAcrossGoroutines exercises the shared pool from many
// concurrent batch-like callers; run with -race.
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	p := Shared()
	if p != Shared() {
		t.Fatal("Shared must return one pool")
	}
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits, err := gather(context.Background(), p, 20, func(i int) []int { return []int{i} })
			if err != nil {
				t.Error(err)
			}
			total.Add(int64(len(hits)))
		}()
	}
	wg.Wait()
	if total.Load() != 120 {
		t.Errorf("total %d", total.Load())
	}
}

func ExamplePlan() {
	for _, s := range Plan(300, 128) {
		fmt.Printf("[%d,%d) ", s.Lo, s.Hi)
	}
	// Output: [0,128) [128,256) [256,300)
}
