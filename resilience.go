// resilience.go is the facade of the scan pipeline's resilience layer:
// the public retry/hedge policy (WithRetryPolicy), opt-in partial-result
// degradation (WithPartialResults, PartialError) and the glue that routes
// shard scans through the scheduler's resilient path — bounded retries
// with deterministic jittered backoff, hedged duplicates for stragglers,
// and, when opted in, a scan that survives failed shards and reports
// exactly which window ranges it could not cover.
package fabp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"fabp/internal/core"
	"fabp/internal/faultinject"
	"fabp/internal/retry"
	"fabp/internal/sched"
)

// RetryPolicy bounds the automatic re-execution the scan pipeline may do
// on retryable failures (transient shard errors, injected faults, reader
// hiccups exposing Temporary() == true). The zero value disables both
// retries and hedging — the historical single-attempt behavior.
type RetryPolicy struct {
	// MaxRetries bounds retries per shard (or per chunk read on the
	// stream path) after the first attempt.
	MaxRetries int
	// Base and Cap bound the backoff delays: retry n waits a
	// deterministic jittered duration in [Base, min(Cap, Base<<(n-1))]
	// (defaults 1ms / 100ms).
	Base, Cap time.Duration
	// HedgeAfter launches a duplicate of a shard still running after
	// this long (0 disables hedging). First success wins; the loser is
	// canceled through the context plumbing.
	HedgeAfter time.Duration
	// HedgeBudget caps hedged duplicates per scan call (default 0: even
	// with HedgeAfter set, no duplicates launch without budget).
	HedgeBudget int
	// Seed drives the deterministic jitter (shared by every shard, each
	// decorrelated by its index).
	Seed uint64
}

// enabled reports whether the policy changes anything over a bare scan.
func (rp RetryPolicy) enabled() bool {
	return rp.MaxRetries > 0 || (rp.HedgeAfter > 0 && rp.HedgeBudget > 0)
}

// backoff renders the policy as the retry package's schedule.
func (rp RetryPolicy) backoff() retry.Backoff {
	return retry.Backoff{Base: rp.Base, Cap: rp.Cap, Max: rp.MaxRetries, Seed: rp.Seed}
}

// validate rejects nonsensical policies at option time.
func (rp RetryPolicy) validate() error {
	if rp.MaxRetries < 0 {
		return fmt.Errorf("fabp: negative MaxRetries %d", rp.MaxRetries)
	}
	if rp.Base < 0 || rp.Cap < 0 || rp.HedgeAfter < 0 {
		return fmt.Errorf("fabp: negative retry policy durations")
	}
	if rp.HedgeBudget < 0 {
		return fmt.Errorf("fabp: negative HedgeBudget %d", rp.HedgeBudget)
	}
	return nil
}

// WithRetryPolicy sets the aligner's retry/hedge policy for every scan
// path (AlignContext, AlignDatabase*, AlignStream*). Without it, scans
// run each shard exactly once — failures surface immediately.
func WithRetryPolicy(rp RetryPolicy) AlignerOption {
	return func(c *alignerConfig) {
		if err := rp.validate(); err != nil {
			c.err = err
			return
		}
		c.retryPolicy = rp
	}
}

// WithPartialResults opts the aligner's database and reference scans into
// degraded completion: when shards still fail after the retry policy is
// exhausted, the scan returns the hits from every surviving shard plus a
// typed *PartialError listing the window ranges it could not cover,
// instead of failing outright. Without this option (the default) any
// unrecoverable shard failure fails the whole scan.
func WithPartialResults() AlignerOption {
	return func(c *alignerConfig) { c.partial = true }
}

// ShardRange is one failed stretch of a partial scan: window starts
// [Lo, Hi) were not scanned, because of Err.
type ShardRange struct {
	Lo, Hi int
	Err    error
}

// PartialError reports a scan that completed in degraded mode: every hit
// outside the Failed ranges was returned, the listed ranges were not
// scanned. It is returned ALONGSIDE the surviving hits by scans running
// under WithPartialResults; match it with errors.As.
type PartialError struct {
	// Failed lists the uncovered window-start ranges in ascending
	// position order.
	Failed []ShardRange
}

func (e *PartialError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fabp: partial scan: %d shard range(s) failed:", len(e.Failed))
	for i, r := range e.Failed {
		if i == 3 {
			fmt.Fprintf(&b, " … (%d more)", len(e.Failed)-i)
			break
		}
		fmt.Fprintf(&b, " [%d,%d): %v;", r.Lo, r.Hi, r.Err)
	}
	return strings.TrimSuffix(b.String(), ";")
}

// batchRetryPolicy is the policy the package-level batch and Session
// paths use (they have no Aligner to carry WithRetryPolicy).
var (
	batchRetryMu     sync.RWMutex
	batchRetryPolicy RetryPolicy
)

// SetBatchRetryPolicy sets the retry/hedge policy for the package-level
// fused batch and Session scan paths (AlignBatch*, AlignDatabaseBatch*,
// Session.Run*), which have no Aligner to configure. The zero policy
// restores single-attempt behavior. Safe for concurrent use; batch scans
// read the policy once at call start.
func SetBatchRetryPolicy(rp RetryPolicy) {
	batchRetryMu.Lock()
	batchRetryPolicy = rp
	batchRetryMu.Unlock()
}

func currentBatchRetryPolicy() RetryPolicy {
	batchRetryMu.RLock()
	defer batchRetryMu.RUnlock()
	return batchRetryPolicy
}

// resilientScans reports whether this aligner's shard scans must route
// through the resilient path: an explicit policy, partial mode, or
// active fault injection (the shard-dispatch hook site lives on the
// resilient path). All three off — the production default — keeps scans
// on the historical zero-overhead path.
func (a *Aligner) resilientScans() bool {
	return a.retryPolicy.enabled() || a.partial || faultinject.Enabled()
}

// newResilience builds the per-call scheduler policy from rp, reporting
// on tm's counters.
func newResilience(rp RetryPolicy, tm *alignerMetrics) *sched.Resilience {
	return sched.NewResilience(rp.backoff(), rp.HedgeAfter, rp.HedgeBudget, tm.retries, tm.hedged)
}

// shardFailure records one shard's terminal failure during a resilient
// scan.
type shardFailure struct {
	shard sched.Shard
	err   error
}

// failureCollector accumulates shard failures across pool workers.
type failureCollector struct {
	mu     sync.Mutex
	failed []shardFailure
}

func (fc *failureCollector) add(s sched.Shard, err error) {
	fc.mu.Lock()
	fc.failed = append(fc.failed, shardFailure{s, err})
	fc.mu.Unlock()
}

// partialError renders the collected failures as a position-ordered
// *PartialError.
func (fc *failureCollector) partialError() *PartialError {
	sort.Slice(fc.failed, func(i, j int) bool { return fc.failed[i].shard.Lo < fc.failed[j].shard.Lo })
	pe := &PartialError{Failed: make([]ShardRange, len(fc.failed))}
	for i, f := range fc.failed {
		pe.Failed[i] = ShardRange{Lo: f.shard.Lo, Hi: f.shard.Hi, Err: f.err}
	}
	return pe
}

// firstRealError returns the first failure that is not a context error —
// the root cause when the scan shed its remaining shards after one shard
// failed unrecoverably.
func (fc *failureCollector) firstRealError() error {
	var fallback error
	for _, f := range fc.failed {
		if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
			if fallback == nil {
				fallback = f.err
			}
			continue
		}
		return fmt.Errorf("fabp: shard [%d,%d): %w", f.shard.Lo, f.shard.Hi, f.err)
	}
	return fallback
}

// gatherResilient is the resilient arm of the aligner's shard gather
// (scanShardsCtx): every shard runs under the aligner's retry/hedge
// policy, failures are collected, and the outcome depends on the mode —
// without partial results the first unrecoverable failure cancels the
// remaining shards and fails the scan; with them the scan completes on
// the surviving shards and returns a *PartialError beside the hits.
func (a *Aligner) gatherResilient(ctx context.Context, shards []sched.Shard, scan func(lo, hi int) []core.Hit) ([]core.Hit, error) {
	res := newResilience(a.retryPolicy, &a.tm)
	fc := &failureCollector{}
	sctx, cancelShards := context.WithCancel(ctx)
	defer cancelShards()
	hits, gerr := sched.GatherCtx(sctx, a.pool, len(shards), func(i int) []core.Hit {
		out, err := sched.ProduceResilient(sctx, a.pool, res, uint64(i), func(actx context.Context) ([]core.Hit, error) {
			if err := actx.Err(); err != nil {
				return nil, err
			}
			return scan(shards[i].Lo, shards[i].Hi), nil
		})
		if err != nil {
			fc.add(shards[i], err)
			if !a.partial {
				// Shed the rest of the plan; the scan is already lost.
				cancelShards()
			}
			return nil
		}
		return out
	})
	if err := ctx.Err(); err != nil {
		return nil, err // the caller's cancel/deadline wins over shard failures
	}
	if len(fc.failed) > 0 {
		if !a.partial {
			return nil, fc.firstRealError()
		}
		a.tm.partial.Inc()
		return hits, fc.partialError()
	}
	return hits, gerr
}

// gatherBatchResilient is the fused batch scan's resilient arm. Batches
// have no partial mode — a shard that still fails after the retry policy
// is exhausted fails the whole batch (every query's results depend on
// every shard).
func gatherBatchResilient(ctx context.Context, pool *sched.Pool, rp RetryPolicy, tm *alignerMetrics, shards []sched.Shard, k int, scanShard func(i int) [][]core.Hit) ([][]core.Hit, error) {
	res := newResilience(rp, tm)
	fc := &failureCollector{}
	sctx, cancelBatch := context.WithCancel(ctx)
	defer cancelBatch()
	perQuery, gerr := sched.GatherBatchCtx(sctx, pool, len(shards), k, func(i int) [][]core.Hit {
		out, err := sched.ProduceResilient(sctx, pool, res, uint64(i), func(actx context.Context) ([][]core.Hit, error) {
			if err := actx.Err(); err != nil {
				return nil, err
			}
			return scanShard(i), nil
		})
		if err != nil {
			fc.add(shards[i], err)
			cancelBatch()
			return nil
		}
		return out
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(fc.failed) > 0 {
		return nil, fc.firstRealError()
	}
	return perQuery, gerr
}

// resilientStreamProduce wraps a streaming scan's per-shard produce with
// the retry/hedge policy and partial-mode failure capture: in partial
// mode an exhausted shard contributes no hits and is recorded on fc (the
// merge continues); otherwise its failure stops the stream.
func resilientStreamProduce[T any](ctx context.Context, pool *sched.Pool, res *sched.Resilience, partial bool, fc *failureCollector, shards []sched.Shard, produce func(i int) ([]T, error)) func(i int) ([]T, error) {
	return func(i int) ([]T, error) {
		out, err := sched.ProduceResilient(ctx, pool, res, uint64(i), func(actx context.Context) ([]T, error) {
			if err := actx.Err(); err != nil {
				return nil, err
			}
			return produce(i)
		})
		if err != nil {
			if partial && ctx.Err() == nil {
				fc.add(shards[i], err)
				return nil, nil
			}
			return nil, fmt.Errorf("fabp: shard [%d,%d): %w", shards[i].Lo, shards[i].Hi, err)
		}
		return out, nil
	}
}
