package fabp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fabp/internal/core"
	"fabp/internal/sched"
)

// shardScan scores window starts [lo, hi) for every query of a scan,
// appending query qi's hits to dst[qi] (nil dst allocates) and returning
// the per-query lists; a single query is K=1.
type shardScan func(lo, hi int, dst [][]core.Hit) [][]core.Hit

// shardRun is the one way a nucleotide scan reaches the pool. It runs a
// shard plan through sched.Run and owns what every entry point shares:
// the call's retry/hedge policy, shard timing, failure handling and the
// two sinks — gather (collect every shard's hits) or, with emit set,
// ordered emit. A shard that still fails after the policy stops the scan
// with "fabp: shard [lo,hi): …", unless the run is partial: then the scan
// completes on the surviving shards and reports the failed ranges as a
// *PartialError.
//
// Build one per call — per stream for chunked scans — and reuse it across
// runs: the bound produce/sink functions, the policy and the gather
// buffers live as long as the shardRun, so a steady-state single-shard
// chunk allocates nothing until hits appear.
type shardRun struct {
	pool    *sched.Pool
	res     *sched.Resilience
	tm      *alignerMetrics
	partial bool
	k       int
	scan    shardScan
	// emit, when set, is the ordered-emit sink: each shard's hits reach it
	// in shard order and nothing is gathered.
	emit func(part [][]core.Hit) error

	// Per-run state, touched only by the sink (Run calls it in order on
	// the caller's goroutine) except scratch, which an attempt takes under
	// mu so a hedged duplicate never shares it.
	shards []sched.Shard
	parts  [][][]core.Hit
	failed []ShardRange
	mu     sync.Mutex
	// scratch is the previous single-shard run's result, which a caller
	// running again has already consumed: the next single shard scans
	// into it.
	scratch [][]core.Hit

	produce func(context.Context, int) ([][]core.Hit, error)
	sink    func(int, [][]core.Hit, error) error
}

// newShardRun builds a shard runner for the plan's queries on its pool,
// under its retry policy and partial mode, reporting on its telemetry.
func (p *scanPlan) newShardRun(scan shardScan) *shardRun {
	rp := p.rp
	r := &shardRun{
		pool:    p.pool,
		res:     sched.NewResilience(rp.backoff(), rp.HedgeAfter, rp.HedgeBudget, p.tm.retries, p.tm.hedged),
		tm:      p.tm,
		partial: p.partial,
		k:       len(p.progs),
		scan:    scan,
	}
	r.produce, r.sink = r.scanShard, r.take
	return r
}

// run executes the plan and returns the gathered per-query hits (len k;
// nil when emitting). On a partial run with failed shards it returns the
// survivors' hits beside a *PartialError; any other error comes back
// with no hits, a caller's cancel or deadline as the bare ctx.Err().
func (r *shardRun) run(ctx context.Context, shards []sched.Shard) ([][]core.Hit, error) {
	r.shards, r.parts, r.failed = shards, r.parts[:0], nil
	r.tm.shardsPlanned.Add(uint64(len(shards)))
	if err := sched.Run(ctx, r.pool, r.res, len(shards), r.produce, r.sink); err != nil {
		return nil, err
	}
	var hits [][]core.Hit
	if r.emit == nil {
		hits = r.gather()
	}
	if len(r.failed) > 0 {
		r.tm.partial.Inc()
		return hits, &PartialError{Failed: r.failed}
	}
	return hits, nil
}

// scanShard is the produce function: one timed shard scan. A single-shard
// run scans into the scratch lists when no other attempt holds them.
func (r *shardRun) scanShard(_ context.Context, i int) ([][]core.Hit, error) {
	var dst [][]core.Hit
	if len(r.shards) == 1 {
		r.mu.Lock()
		dst, r.scratch = r.scratch, nil
		r.mu.Unlock()
		for qi := range dst {
			dst[qi] = dst[qi][:0]
		}
	}
	s := r.shards[i]
	t0 := time.Now()
	part := r.scan(s.Lo, s.Hi, dst)
	observeSince(r.tm.shardLatency, t0)
	r.tm.shardsRun.Inc()
	return part, nil
}

// take is the sink: it settles a failed shard (stop, or record in
// partial mode), then emits or gathers the part.
func (r *shardRun) take(i int, part [][]core.Hit, err error) error {
	if err != nil {
		s := r.shards[i]
		if !r.partial {
			return fmt.Errorf("fabp: shard [%d,%d): %w", s.Lo, s.Hi, err)
		}
		r.failed = append(r.failed, ShardRange{Lo: s.Lo, Hi: s.Hi, Err: err})
		return nil
	}
	if r.emit != nil {
		return r.emit(part)
	}
	r.parts = append(r.parts, part)
	return nil
}

// gather concatenates the gathered parts query-wise in shard order. A
// lone part is returned as is and, from a single-shard run, kept as the
// next run's scratch (Run has joined every attempt, so no lock is
// needed).
func (r *shardRun) gather() [][]core.Hit {
	if len(r.parts) == 1 {
		if len(r.shards) == 1 {
			r.scratch = r.parts[0]
		}
		return r.parts[0]
	}
	out := make([][]core.Hit, r.k)
	for qi := range out {
		total := 0
		for _, part := range r.parts {
			total += len(part[qi])
		}
		if total == 0 {
			continue
		}
		out[qi] = make([]core.Hit, 0, total)
		for _, part := range r.parts {
			out[qi] = append(out[qi], part[qi]...)
		}
	}
	return out
}

// recordFused books one fused pass of k queries over a planeBytes-sized
// packed target: kernel time since t0, one fused pass per shard, and the
// (k−1)·planeBytes the batch did not re-read.
func recordFused(tm *alignerMetrics, k, shards int, planeBytes int64, t0 time.Time) {
	observeSince(tm.batchKernelLatency, t0)
	tm.batchFusedPasses.Add(uint64(shards))
	tm.batchPlaneBytesSaved.Add(uint64(k-1) * uint64(planeBytes))
}
