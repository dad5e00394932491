// resilient.go is the scheduler's resilience layer, which every shard Run
// executes passes through: per-shard retry with bounded exponential
// backoff, hedged re-execution of straggler shards (budgeted duplicates,
// first result wins, the loser canceled through the context plumbing),
// and the sched.shard.dispatch fault-injection hook. A nil or zero policy
// is one attempt per shard.
package sched

import (
	"context"
	"sync/atomic"
	"time"

	"fabp/internal/faultinject"
	"fabp/internal/retry"
	"fabp/internal/telemetry"
)

// Resilience is one scan call's retry/hedge policy plus its shared hedge
// budget and telemetry handles. Build one per call with NewResilience; a
// nil *Resilience runs shards exactly once with no hedging.
type Resilience struct {
	// Backoff schedules retries of retryable shard failures (see
	// retry.Retryable); Backoff.Max bounds retries per shard.
	Backoff retry.Backoff
	// HedgeAfter is how long a shard attempt may run before a duplicate
	// is launched (0 disables hedging).
	HedgeAfter time.Duration
	// Retries / Hedged count on the caller's scan.retries / scan.hedged
	// metrics (nil-safe).
	Retries, Hedged *telemetry.Counter

	// budget is the remaining hedged duplicates for the whole call —
	// shared across shards so a uniformly slow scan cannot double its own
	// load.
	budget atomic.Int64
}

// NewResilience builds a per-call policy. hedgeBudget bounds the total
// duplicates the call may launch (ignored when hedgeAfter is 0).
func NewResilience(b retry.Backoff, hedgeAfter time.Duration, hedgeBudget int, retries, hedged *telemetry.Counter) *Resilience {
	r := &Resilience{Backoff: b, HedgeAfter: hedgeAfter, Retries: retries, Hedged: hedged}
	r.budget.Store(int64(hedgeBudget))
	return r
}

// takeHedge consumes one unit of hedge budget; false when exhausted.
func (r *Resilience) takeHedge() bool {
	return r.budget.Add(-1) >= 0
}

// runShard runs shard i's produce under r, from the shard's pool task
// (or inline for a single-shard Run). The shard's lifecycle:
//
//  1. Every attempt opens with the sched.shard.dispatch fault hook —
//     injected stalls model stragglers, injected errors model shard
//     failures — keyed by the shard index, so seeded plans hit
//     deterministic shards; then a context check, so an attempt that
//     starts after a cancel skips its scan.
//  2. If the attempt outlives r.HedgeAfter and budget remains, a hedged
//     duplicate is launched on the pool; the first success wins and the
//     loser's context is canceled. A duplicate waiting for a pool slot
//     aborts the moment the race is decided, and every launched attempt
//     is drained before the call returns — no goroutine outlives it.
//  3. A retryable failure (retry.Retryable) backs off on the policy's
//     deterministic jittered schedule and re-runs, at most Backoff.Max
//     times; context errors and non-retryable failures surface
//     immediately.
//
// A nil r runs exactly one attempt.
func runShard[T any](ctx context.Context, p *Pool, r *Resilience, i int, produce func(context.Context, int) (T, error)) (T, error) {
	if r == nil {
		return attempt(ctx, i, produce)
	}
	var zero T
	for n := 0; ; n++ {
		part, err := runHedged(ctx, p, r, i, produce)
		if err == nil {
			return part, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return zero, cerr
		}
		if n >= r.Backoff.Max || !retry.Retryable(err) {
			return zero, err
		}
		r.Retries.Inc()
		if serr := retry.Sleep(ctx, r.Backoff.Delay(n+1, uint64(i))); serr != nil {
			return zero, serr
		}
	}
}

// attempt is one try at shard i: the dispatch fault hook, a context
// check, then produce.
func attempt[T any](ctx context.Context, i int, produce func(context.Context, int) (T, error)) (T, error) {
	if err := faultinject.Check(ctx, faultinject.SiteShardDispatch, uint64(i)); err != nil {
		var zero T
		return zero, err
	}
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	return produce(ctx, i)
}

// runHedged executes one attempt with straggler hedging: the primary runs
// in its own goroutine (the caller's pool slot stays notionally held —
// the calling task just waits), and once HedgeAfter elapses a duplicate
// acquires its own slot and races it. First success wins; the other
// attempt's context is canceled and its result drained before returning.
// When both fail, the first failure is returned (one attempt's error is
// as good as the other's for the retry loop above).
func runHedged[T any](ctx context.Context, p *Pool, r *Resilience, i int, produce func(context.Context, int) (T, error)) (T, error) {
	if r.HedgeAfter <= 0 || r.budget.Load() <= 0 {
		return attempt(ctx, i, produce)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		part T
		err  error
	}
	ch := make(chan result, 2)
	go func() {
		part, err := attempt(hctx, i, produce)
		ch <- result{part, err}
	}()
	outstanding := 1
	hedged := false
	timer := time.NewTimer(r.HedgeAfter)
	defer timer.Stop()
	drain := func() {
		cancel()
		for ; outstanding > 0; outstanding-- {
			<-ch
		}
	}
	var firstErr error
	for {
		select {
		case res := <-ch:
			outstanding--
			if res.err == nil {
				drain()
				return res.part, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if outstanding == 0 {
				var zero T
				return zero, firstErr
			}
		case <-timer.C:
			if !hedged && r.takeHedge() {
				hedged = true
				r.Hedged.Inc()
				outstanding++
				go func() {
					var res result
					if res.err = p.acquireCtx(hctx); res.err != nil {
						ch <- res
						return
					}
					defer func() { <-p.sem }()
					p.runTask("hedge", func() { res.part, res.err = attempt(hctx, i, produce) })
					ch <- res
				}()
			}
		case <-ctx.Done():
			drain()
			var zero T
			return zero, ctx.Err()
		}
	}
}
