package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fabp/internal/telemetry"
)

// TestEachCtxBackgroundMatchesEach: an uncancellable context runs every
// task and returns nil.
func TestEachCtxBackgroundMatchesEach(t *testing.T) {
	p := NewPool(4)
	var ran atomic.Int64
	if err := p.Each(context.Background(), 100, func(i int) { ran.Add(1) }); err != nil {
		t.Fatalf("Each(Background) = %v", err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", ran.Load())
	}
}

// TestEachCtxCancelStopsDispatch cancels mid-run and checks the contract:
// the call returns context.Canceled, stops dispatching new tasks, and
// waits for the in-flight ones (no goroutine leaks).
func TestEachCtxCancelStopsDispatch(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	gate := make(chan struct{})
	err := p.Each(ctx, 1000, func(i int) {
		if started.Add(1) == 2 {
			cancel()
			close(gate)
		}
		<-gate // the first tasks park until the cancel fires
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Each = %v, want context.Canceled", err)
	}
	ran := started.Load()
	// Dispatch must have stopped near the cancellation point: 2 workers
	// plus at most a couple already past the checkpoint.
	if ran > 10 {
		t.Errorf("%d tasks ran after a cancel at task 2", ran)
	}
}

// TestGatherCtxCancelSheds runs a cancel mid-run and verifies shed shards
// are counted and the sink never sees a part after the cancel: what it
// received is an in-order prefix.
func TestGatherCtxCancelSheds(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(2)
	p.SetMetrics(reg)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	out, err := gather(ctx, p, 500, func(i int) []int {
		if started.Add(1) == 1 {
			cancel()
		}
		return []int{i}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if len(out) >= 500 {
		t.Errorf("canceled run sank all %d parts", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("sink saw %v, not an in-order prefix", out)
		}
	}
	if shed := reg.Snapshot().Counters["pool.tasks.canceled"]; shed == 0 {
		t.Error("pool.tasks.canceled not recorded")
	}
}

// TestGatherBatchCtxCancelSheds: a cancel mid-run sheds the remaining
// shards for every stream at once, sinks no part after the cancel, and
// counts the shed shards.
func TestGatherBatchCtxCancelSheds(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(2)
	p.SetMetrics(reg)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	out, err := gatherStreams(ctx, p, 500, 4, func(i int) [][]int {
		if started.Add(1) == 1 {
			cancel()
		}
		return [][]int{{i}, {i}, {i}, {i}}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	for s := range out {
		if len(out[s]) >= 500 || len(out[s]) != len(out[0]) {
			t.Errorf("canceled run sank %d parts into stream %d (stream 0: %d)", len(out[s]), s, len(out[0]))
		}
	}
	if shed := reg.Snapshot().Counters["pool.tasks.canceled"]; shed == 0 {
		t.Error("pool.tasks.canceled not recorded")
	}
}

// TestStreamOrderedCtxCancel checks the streaming sink: a cancel stops
// emission with context.Canceled, already-launched producers are drained
// (backlog gauge back to zero) and no goroutine outlives the call.
func TestStreamOrderedCtxCancel(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(2)
	p.SetMetrics(reg)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var emitted int
	err := Run(ctx, p, nil, 500,
		func(_ context.Context, i int) ([]int, error) { return []int{i}, nil },
		func(int, []int, error) error {
			emitted++
			if emitted == 3 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if emitted != 3 {
		t.Errorf("sink saw %d parts; a cancel inside the sink must stop the next one", emitted)
	}
	// Run joins its goroutines before returning; poll only for the
	// runtime's own bookkeeping to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reg.Snapshot().Gauges["pool.merge.backlog"] == 0 &&
			runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not quiesce: backlog=%d goroutines=%d (was %d)",
				reg.Snapshot().Gauges["pool.merge.backlog"], runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamOrderedCtxDeadline checks that an expired deadline surfaces
// as context.DeadlineExceeded even when producers would happily continue.
func TestStreamOrderedCtxDeadline(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := Run(ctx, p, nil, 10_000,
		func(_ context.Context, i int) ([]int, error) {
			time.Sleep(time.Millisecond)
			return []int{i}, nil
		},
		func(int, []int, error) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want context.DeadlineExceeded", err)
	}
}

// TestStreamOrderedCtxPreCancelled: a context already done yields its
// error without launching any producer, on the pooled and the inline
// single-shard path alike.
func TestStreamOrderedCtxPreCancelled(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{1, 50} {
		var produced atomic.Int64
		err := Run(ctx, p, nil, n,
			func(context.Context, int) ([]int, error) { produced.Add(1); return nil, nil },
			func(int, []int, error) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
		}
		if produced.Load() != 0 {
			t.Errorf("n=%d: %d producers ran under a pre-canceled context", n, produced.Load())
		}
	}
}
