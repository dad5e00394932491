package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fabp/internal/faultinject"
	"fabp/internal/retry"
	"fabp/internal/telemetry"
)

// testResilience builds a policy with its own counters so assertions are
// isolated from the process registry.
func testResilience(maxRetries int, hedgeAfter time.Duration, hedgeBudget int) (*Resilience, *telemetry.Counter, *telemetry.Counter) {
	reg := telemetry.NewRegistry()
	retries, hedged := reg.Counter("r"), reg.Counter("h")
	return NewResilience(
		retry.Backoff{Base: time.Microsecond, Cap: 50 * time.Microsecond, Max: maxRetries},
		hedgeAfter, hedgeBudget, retries, hedged), retries, hedged
}

// runOne runs a single-shard Run under res and returns its part or error
// — the shape every hedge/retry drill below needs.
func runOne(ctx context.Context, p *Pool, res *Resilience, produce func(ctx context.Context) ([]int, error)) ([]int, error) {
	var out []int
	err := Run(ctx, p, res, 1,
		func(ctx context.Context, _ int) ([]int, error) { return produce(ctx) },
		func(_ int, part []int, err error) error { out = part; return err })
	return out, err
}

// TestHedgeStragglerFirstResultWins: the primary attempt stalls well past
// HedgeAfter, the hedged duplicate finishes instantly — the call must
// return the duplicate's result promptly, count one hedge, and drain the
// straggler (no goroutine outlives the call).
func TestHedgeStragglerFirstResultWins(t *testing.T) {
	p := NewPool(4)
	res, _, hedged := testResilience(0, 2*time.Millisecond, 1)
	var attempts atomic.Int64
	t0 := time.Now()
	out, err := runOne(context.Background(), p, res,
		func(ctx context.Context) ([]int, error) {
			if attempts.Add(1) == 1 {
				// The straggler: blocks until the race is decided and its
				// context is canceled.
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return []int{7}, nil
		})
	if err != nil || len(out) != 1 || out[0] != 7 {
		t.Fatalf("hedged result = %v, %v", out, err)
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("hedge took %v; the duplicate did not win", el)
	}
	if hedged.Load() != 1 {
		t.Fatalf("hedged counter = %d, want 1", hedged.Load())
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("%d attempts launched, want 2", got)
	}
}

// TestHedgeBudgetSharedAcrossShards: the budget bounds duplicates for the
// whole call — with budget 1, the other slow shards cannot hedge again;
// and with budget 0 (or HedgeAfter 0) no duplicate ever launches.
func TestHedgeBudgetSharedAcrossShards(t *testing.T) {
	p := NewPool(4)
	res, _, hedged := testResilience(0, time.Millisecond, 1)
	slowShard := func(ctx context.Context, _ int) ([]int, error) {
		select { // slow but not stuck: finishes on its own
		case <-time.After(15 * time.Millisecond):
		case <-ctx.Done():
		}
		return []int{1}, nil
	}
	sink := func(_ int, _ []int, err error) error { return err }
	if err := Run(context.Background(), p, res, 3, slowShard, sink); err != nil {
		t.Fatal(err)
	}
	if got := hedged.Load(); got != 1 {
		t.Fatalf("budget 1: %d hedges launched", got)
	}

	res0, _, hedged0 := testResilience(0, 0, 8)
	if err := Run(context.Background(), p, res0, 3, slowShard, sink); err != nil {
		t.Fatal(err)
	}
	if hedged0.Load() != 0 {
		t.Fatal("HedgeAfter=0 still hedged")
	}
}

// TestHedgeRetriesTransientFailures: a shard failing transiently twice
// under a 3-retry budget succeeds on the third attempt; retries are
// counted; a permanent failure consumes no retries.
func TestHedgeRetriesTransientFailures(t *testing.T) {
	p := NewPool(2)
	res, retries, _ := testResilience(3, 0, 0)
	var n atomic.Int64
	out, err := runOne(context.Background(), p, res,
		func(context.Context) ([]int, error) {
			if n.Add(1) <= 2 {
				return nil, retry.Transient(errors.New("blip"))
			}
			return []int{3}, nil
		})
	if err != nil || len(out) != 1 {
		t.Fatalf("retried shard: %v, %v", out, err)
	}
	if retries.Load() != 2 {
		t.Fatalf("retries counter = %d, want 2", retries.Load())
	}

	perm := errors.New("permanent")
	res2, retries2, _ := testResilience(3, 0, 0)
	var calls atomic.Int64
	_, err = runOne(context.Background(), p, res2,
		func(context.Context) ([]int, error) {
			calls.Add(1)
			return nil, perm
		})
	if !errors.Is(err, perm) || calls.Load() != 1 || retries2.Load() != 0 {
		t.Fatalf("permanent failure: err=%v calls=%d retries=%d", err, calls.Load(), retries2.Load())
	}
}

// TestHedgeRetryBudgetExhausted: a shard that never recovers surfaces its
// last error after exactly Max retries.
func TestHedgeRetryBudgetExhausted(t *testing.T) {
	p := NewPool(2)
	res, retries, _ := testResilience(2, 0, 0)
	var calls atomic.Int64
	_, err := runOne(context.Background(), p, res,
		func(context.Context) ([]int, error) {
			calls.Add(1)
			return nil, retry.Transient(errors.New("still down"))
		})
	if err == nil || !retry.Retryable(err) {
		t.Fatalf("exhausted retries: err=%v", err)
	}
	if calls.Load() != 3 || retries.Load() != 2 {
		t.Fatalf("calls=%d retries=%d, want 3/2", calls.Load(), retries.Load())
	}
}

// TestHedgeDispatchHookInjectsAndRetries: the sched.shard.dispatch fault
// site fires inside every attempt, keyed by shard — a keylimit within the
// retry budget means every shard still succeeds. A nil policy still
// passes the hook: its single attempt fails.
func TestHedgeDispatchHookInjectsAndRetries(t *testing.T) {
	faultinject.Enable(11, faultinject.Plan{
		faultinject.SiteShardDispatch: {Every: 1, KeyLimit: 1, Fail: true},
	})
	defer faultinject.Disable()
	p := NewPool(2)
	res, retries, _ := testResilience(2, 0, 0)
	var got []int
	err := Run(context.Background(), p, res, 4,
		func(_ context.Context, i int) ([]int, error) { return []int{i}, nil },
		func(i int, part []int, err error) error {
			if err != nil || len(part) != 1 {
				t.Fatalf("shard %d: %v, %v", i, part, err)
			}
			got = append(got, part...)
			return nil
		})
	if err != nil || len(got) != 4 {
		t.Fatalf("run: %v, %v", got, err)
	}
	if retries.Load() != 4 {
		t.Fatalf("retries = %d, want 4 (one injected failure per shard)", retries.Load())
	}
	if fired := faultinject.Fired(faultinject.SiteShardDispatch); fired != 4 {
		t.Fatalf("dispatch site fired %d times, want 4", fired)
	}

	faultinject.Enable(11, faultinject.Plan{
		faultinject.SiteShardDispatch: {Every: 1, Fail: true},
	})
	if _, err := runOne(context.Background(), p, nil,
		func(context.Context) ([]int, error) { return []int{1}, nil }); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("nil policy under dispatch faults: err = %v, want the injected failure", err)
	}
}

// TestHedgeCanceledContextWinsAndDrains: cancellation mid-attempt returns
// ctx.Err(), is never retried, and every launched goroutine is drained —
// the goroutine count returns to baseline.
func TestHedgeCanceledContextWinsAndDrains(t *testing.T) {
	p := NewPool(4)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		res, _, _ := testResilience(5, time.Millisecond, 2)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		_, err := runOne(ctx, p, res,
			func(actx context.Context) ([]int, error) {
				<-actx.Done()
				return nil, actx.Err()
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("iter %d: err = %v, want context.Canceled", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d -> %d; hedged attempts leaked", before, runtime.NumGoroutine())
}
