// Package sched is the shard scheduler behind FabP's database scans: it
// tiles a scan range into independent shards and executes them on a
// bounded worker pool shared by every query of a batch — the software
// rendering of the paper's decomposition into parallel alignment lanes
// (256 instances per 512-bit beat), and the same tiling GeneTEK-style
// designs use across compute lanes.
//
// Shards are expressed in *window starts*: a shard [Lo, Hi) scores the
// alignment windows starting in that range, which means the underlying
// kernel reads reference elements [Lo, Hi+Lq−1) — the shardLen + Lq−1
// overlap carry mirrors the cross-beat carry of the hardware reference
// buffer. Because every shard reads from one shared packed reference
// (context array or bit-planes), the carry costs no copying.
package sched

import (
	"context"
	"runtime"
	"sync"
	"time"

	"fabp/internal/faultinject"
	"fabp/internal/telemetry"
)

// DefaultShardLen is the default shard size in window starts. It is large
// enough to amortize goroutine dispatch and small enough to load-balance a
// multi-query batch across cores.
const DefaultShardLen = 1 << 18

// Shard is one tile of a scan: window starts [Lo, Hi).
type Shard struct {
	// Index is the shard's position in the plan (shards are emitted in
	// ascending position order).
	Index int
	// Lo and Hi bound the window starts, Lo inclusive, Hi exclusive. Every
	// boundary after the first is 64-aligned so bit-parallel kernels scan
	// whole blocks; the plan's own Lo may be unaligned (AlignPlanesRange
	// rounds down and trims), as in a streamed chunk whose fresh windows
	// begin mid-block.
	Lo, Hi int
}

// Plan tiles `starts` window starts into shards of at most shardLen starts
// each. It is PlanRange over [0, starts).
func Plan(starts, shardLen int) []Shard {
	return PlanRange(0, starts, shardLen)
}

// PlanRange tiles the window starts [lo, hi) into shards of at most
// shardLen starts each (0 or negative = DefaultShardLen). Interior shard
// boundaries land on 64-aligned positions for the bit-parallel kernel's
// block layout: the first shard runs from lo to the aligned grid, later
// shards are whole tiles. The scalar engine is indifferent to alignment.
func PlanRange(lo, hi, shardLen int) []Shard {
	return AppendPlanRange(nil, lo, hi, shardLen)
}

// AppendPlanRange is PlanRange writing into dst[:0], reusing its capacity
// — a chunked stream plans every chunk without allocating.
func AppendPlanRange(dst []Shard, lo, hi, shardLen int) []Shard {
	shards := dst[:0]
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return shards
	}
	if shardLen <= 0 {
		shardLen = DefaultShardLen
	}
	// Round up to the 64-position block granularity.
	shardLen = (shardLen + 63) &^ 63
	if n := (hi-lo+shardLen-1)/shardLen + 1; cap(shards) < n {
		shards = make([]Shard, 0, n)
	}
	for lo < hi {
		// Snap the shard end to the aligned tile grid so every boundary
		// after lo itself is 64-aligned (shardLen is a multiple of 64).
		end := lo&^63 + shardLen
		if end > hi {
			end = hi
		}
		shards = append(shards, Shard{Index: len(shards), Lo: lo, Hi: end})
		lo = end
	}
	return shards
}

// Pool is a bounded worker pool. All shards of all queries in a batch run
// on one pool, so total concurrency stays bounded no matter how many
// queries or shards are in flight.
type Pool struct {
	sem chan struct{}
	m   poolMetrics
}

// poolMetrics holds the pool's telemetry handles, resolved once at
// construction so the task path pays only atomic updates. Every field is
// nil-safe: a pool built over a nil registry records nothing.
type poolMetrics struct {
	// queued counts tasks submitted but not yet running (queue pressure);
	// running counts tasks currently executing.
	queued, running *telemetry.Gauge
	// completed counts finished tasks.
	completed *telemetry.Counter
	// wait is submit-to-start latency (time blocked on the semaphore);
	// run is task execution time.
	wait, run *telemetry.Histogram
	// backlog is the ordered-merge depth: Run parts produced but not yet
	// handed to the sink.
	backlog *telemetry.Gauge
	// canceled counts tasks never dispatched because their run's context
	// was canceled first — shards shed by cooperative cancellation.
	canceled *telemetry.Counter
}

func newPoolMetrics(reg *telemetry.Registry) poolMetrics {
	return poolMetrics{
		queued:    reg.Gauge("pool.tasks.queued"),
		running:   reg.Gauge("pool.tasks.running"),
		completed: reg.Counter("pool.tasks.completed"),
		wait:      reg.Histogram("pool.task.wait"),
		run:       reg.Histogram("pool.task.run"),
		backlog:   reg.Gauge("pool.merge.backlog"),
		canceled:  reg.Counter("pool.tasks.canceled"),
	}
}

// NewPool builds a pool allowing `workers` concurrent tasks (minimum 1),
// reporting telemetry to the process-default registry (see SetMetrics).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{
		sem: make(chan struct{}, workers),
		m:   newPoolMetrics(telemetry.Default()),
	}
}

// SetMetrics redirects the pool's telemetry to reg (nil disables it).
// Call before submitting work; it is not synchronized with running tasks.
func (p *Pool) SetMetrics(reg *telemetry.Registry) { p.m = newPoolMetrics(reg) }

// acquireCtx blocks until a worker slot is free, recording queue pressure
// and wait latency, or returns ctx.Err() once the context is done, so a
// canceled scan stops queueing behind a saturated pool.
func (p *Pool) acquireCtx(ctx context.Context) error {
	p.m.queued.Add(1)
	t0 := time.Now()
	defer func() {
		p.m.wait.Observe(time.Since(t0))
		p.m.queued.Add(-1)
	}()
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runTask executes one task under the running gauge, run-latency
// histogram and a pprof label attributing profile samples to pool work.
func (p *Pool) runTask(stage string, task func()) {
	p.m.running.Add(1)
	t0 := time.Now()
	telemetry.Labeled("fabp_pool", stage, task)
	p.m.run.Observe(time.Since(t0))
	p.m.running.Add(-1)
	p.m.completed.Inc()
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool (sized to GOMAXPROCS at first use),
// the default executor for database scans.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(runtime.GOMAXPROCS(0)) })
	return sharedPool
}

// Each runs run(0..n-1) on the pool and waits for all of them, with
// cooperative cancellation: the context is checked before each task is
// dispatched and a slot wait aborts when it fires. Dispatched tasks run to
// completion — a task is the cancellation granularity — and Each always
// waits for them, so no goroutine outlives the call. It returns the
// context error that stopped dispatch (nil when every task ran);
// undispatched tasks count on pool.tasks.canceled. A one-worker pool runs
// the tasks inline, in order.
func (p *Pool) Each(ctx context.Context, n int, run func(i int)) error {
	if n <= 0 {
		return nil
	}
	if p.Workers() == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				p.m.canceled.Add(uint64(n - i))
				return err
			}
			p.runTask("each", func() { run(i) })
		}
		return nil
	}
	var wg sync.WaitGroup
	var err error
	for i := 0; i < n; i++ {
		if err = p.acquireCtx(ctx); err != nil {
			p.m.canceled.Add(uint64(n - i))
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-p.sem }()
			p.runTask("each", func() { run(i) })
		}(i)
	}
	wg.Wait()
	return err
}

// Run is the shard executor: it runs produce for shards 0..n-1 and hands
// each shard's part to sink in index order.
//
//   - Each shard is dispatched on the pool and runs under r (see
//     Resilience; nil means one attempt). Every attempt first passes the
//     sched.shard.dispatch fault hook and a context check.
//   - Each produced part passes the sched.shard.merge fault hook. A shard
//     that still fails, or fails that hook, reaches the sink as
//     (i, zero, err); the sink decides whether that stops the run.
//   - At most Workers()+1 parts are produced but not yet sunk, so a sink
//     that emits as it goes holds bounded memory.
//
// The first error — the caller's context or a sink error — stops the
// run: undispatched shards are shed (counted on
// pool.tasks.canceled), in-flight attempts see a canceled context, and
// Run waits for every goroutine it started before returning that error.
// A canceled or expired caller context always surfaces as ctx.Err(), and
// the sink never sees a part after it. A single shard runs inline on the
// caller, without a pool slot.
func Run[T any](ctx context.Context, p *Pool, r *Resilience, n int,
	produce func(ctx context.Context, i int) (T, error),
	sink func(i int, part T, err error) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		p.m.canceled.Add(uint64(n))
		return err
	}
	if n == 1 {
		part, err := runShard(ctx, p, r, 0, produce)
		return merge(ctx, 0, part, err, sink)
	}

	rctx, stop := context.WithCancel(ctx)
	defer stop()
	type result struct {
		part T
		err  error
	}
	results := make([]chan result, n)
	for i := range results {
		results[i] = make(chan result, 1)
	}
	// tickets bounds dispatch: one per produced-but-unsunk part.
	tickets := make(chan struct{}, p.Workers()+1)
	var wg sync.WaitGroup
	launched := 0 // written by the dispatcher, read after wg.Wait
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			select {
			case tickets <- struct{}{}:
			case <-rctx.Done():
				p.m.canceled.Add(uint64(n - i))
				return
			}
			if p.acquireCtx(rctx) != nil {
				p.m.canceled.Add(uint64(n - i))
				return
			}
			launched++
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var res result
				p.runTask("shard", func() { res.part, res.err = runShard(rctx, p, r, i, produce) })
				<-p.sem
				p.m.backlog.Add(1)
				results[i] <- res
			}(i)
		}
	}()

	consumed := 0
	finish := func(err error) error {
		stop()
		wg.Wait()
		for ; consumed < launched; consumed++ {
			<-results[consumed]
			p.m.backlog.Add(-1)
		}
		return err
	}
	for i := 0; i < n; i++ {
		var res result
		select {
		case res = <-results[i]:
			consumed++
			p.m.backlog.Add(-1)
			<-tickets
		case <-ctx.Done():
			// Only the caller's context stops the dispatcher while the
			// merge still waits, so a missing part means a cancel.
			return finish(ctx.Err())
		}
		if err := merge(ctx, i, res.part, res.err, sink); err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}

// merge hands shard i's outcome to the sink in Run's order: the caller's
// cancel wins, and a produced part must pass the shard-merge fault hook.
func merge[T any](ctx context.Context, i int, part T, err error, sink func(int, T, error) error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if err == nil {
		if err = faultinject.Check(ctx, faultinject.SiteShardMerge, uint64(i)); err != nil {
			var zero T
			part = zero
		}
	}
	return sink(i, part, err)
}
