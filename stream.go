package fabp

import (
	"context"
	"fmt"
	"io"
	"time"

	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/faultinject"
	"fabp/internal/retry"
	"fabp/internal/sched"
)

// streamChunkLetters is the chunk size of the bounded-memory stream scan;
// a variable so tests can exercise the chunk-boundary carry cheaply.
var streamChunkLetters = 1 << 20

// scanChunks reads a nucleotide stream (raw letters, whitespace tolerated)
// in fixed-size chunks, packing each chunk ONCE into pooled bit-planes,
// carrying the last Lq−1 elements plus two elements of comparison context
// between chunks — the same cross-beat carry the hardware reference buffer
// implements — and invokes scan once per chunk with the packed planes and
// the chunk-local window-start range [lo, hi) that is new in this chunk.
// Global position = base + local position. The planes alias the pooled
// builder: scan must finish reading them before returning (every shard of
// a chunk may read them concurrently; the next chunk's carry reuses the
// buffers). scan returning an error stops the scan.
//
// m is the longest query's element count — it sets the carry and the
// windows complete mid-stream — and mFinal the shortest's, which bounds
// the tail windows only the final flush can deliver (m == mFinal for a
// single query). Kernels clamp per query, so the extra tail starts are
// safe for longer queries. tm records beats (chunks) processed,
// carry-boundary restarts, packed plane words and per-chunk pack latency.
//
// The context is checked before every read — the chunk boundary is the
// cancellation checkpoint — so a canceled or deadlined scan stops without
// waiting for the rest of the stream (a Read already blocked in the
// reader is not interrupted).
//
// Each read passes the stream.read fault-injection hook (keyed by chunk
// ordinal), and transient read failures — injected faults or reader
// errors exposing Temporary() — retry under rp's backoff schedule, up to
// rp.MaxRetries per chunk, counted on scan.retries. Only reads that
// returned no data retry (a short read with an error delivers its bytes
// first, exactly as io.Reader semantics require); exhausted or
// non-retryable errors surface through the flush-before-error path below.
// An invalid letter is bad input, not a scan failure: its error names the
// global position and matches ErrBadQuery.
func scanChunks(ctx context.Context, r io.Reader, m, mFinal int, tm *alignerMetrics, rp RetryPolicy, scan func(pp *bitpar.Planes, lo, hi, base int) error) error {
	chunkLetters := streamChunkLetters
	if chunkLetters < m+2 {
		chunkLetters = m + 2
	}

	bld := bitpar.GetPlaneBuilder()
	defer bld.Release()
	buf := make([]byte, chunkLetters)
	dec := make(bio.NucSeq, 0, chunkLetters)
	base := 0 // global position of the builder's element 0
	skip := 0 // window starts below this are re-carried context, already scanned

	backoff := rp.backoff()
	chunk := uint64(0) // read ordinal: the fault-hook key and jitter decorrelator
	readChunk := func() (int, error) {
		for n := 0; ; n++ {
			nRead := 0
			err := faultinject.Check(ctx, faultinject.SiteStreamRead, chunk)
			if err == nil {
				nRead, err = r.Read(buf)
			}
			if err == nil || err == io.EOF || nRead > 0 {
				return nRead, err
			}
			if n >= rp.MaxRetries || !retry.Retryable(err) || ctx.Err() != nil {
				return 0, err
			}
			tm.retries.Inc()
			if serr := retry.Sleep(ctx, backoff.Delay(n+1, chunk)); serr != nil {
				return 0, serr
			}
		}
	}

	flush := func(final bool) error {
		// Mid-stream, only windows whose full extent is present for the
		// longest query are scanned; the rest carry to the next chunk.
		n := bld.Len() - (m - 1)
		if final {
			// The tail: down to the shortest query's last valid start.
			n = bld.Len() - mFinal + 1
		}
		if n <= skip {
			return nil
		}
		tm.chunks.Inc()
		return scan(bld.Planes(), skip, n, base)
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		nRead, readErr := readChunk()
		chunk++
		if nRead == 0 && readErr != nil && readErr != io.EOF {
			if cerr := ctx.Err(); cerr != nil {
				return cerr // cancellation keeps its bare, unwrapped error
			}
		}
		var perr error
		dec, _, perr = bio.AppendNucASCII(dec[:0], buf[:nRead])
		if len(dec) > 0 {
			// Pack the decoded span once; every shard and every query of
			// the chunk reads these plane words.
			w0 := bld.Words()
			tp := time.Now()
			bld.Append(dec)
			observeSince(tm.packLatency, tp)
			tm.packWords.Add(uint64(bld.Words() - w0))
		}
		if perr != nil {
			return badQuery(fmt.Errorf("fabp: position %d: %w", base+bld.Len(), perr))
		}
		if bld.Len() >= chunkLetters {
			if err := flush(false); err != nil {
				return err
			}
			// Carry the unscanned tail (m-1 elements) plus 2 elements of
			// comparison context for the first carried window. The carry is
			// a word-level slide inside the pooled planes, never a repack.
			tm.carries.Inc()
			keep := m + 1
			if keep > bld.Len() {
				keep = bld.Len()
			}
			base += bld.Len() - keep
			bld.Carry(keep)
			skip = keep - (m - 1) // the context prefix, already scanned
		}
		if readErr == io.EOF {
			return flush(true)
		}
		if readErr != nil {
			// Deliver every window already complete before surfacing the
			// failure — the prefix scanned so far is valid work, exactly
			// as on EOF — and wrap the error with the global stream position
			// the way the parse path does, so the caller can resume.
			if err := flush(true); err != nil {
				return err
			}
			return fmt.Errorf("fabp: position %d: %w", base+bld.Len(), readErr)
		}
	}
}

// scanStream is the plan's chunked stream scan: scanChunks packs each
// chunk once, and the chunk's fresh window starts [lo, hi) run for every
// query of the fused kernel in one pass over the shared planes, as the
// shards of one per-stream shardRun. A chunk that fits one shard runs
// inline into the previous chunk's hit lists — already delivered — so
// the steady-state stream allocates nothing here until hits appear. Hits
// reach the plan's emit with their query index, in position order per
// query within each chunk, at most maxHits per query. Fused-pass and
// plane-reuse accounting matches the in-memory batch path, so stream and
// database fusion read identically on the instrument panel.
func (p *scanPlan) scanStream(ctx context.Context) (*ScanResult, error) {
	tm, k := p.tm, len(p.progs)
	tm.queries.Add(uint64(k))
	if p.query == nil {
		tm.batchQueries.Add(uint64(k))
	}
	tm.kernelBitpar.Add(uint64(k))
	defer observeSince(tm.alignLatency, time.Now())
	if err := p.compile(); err != nil {
		return nil, err
	}
	bk := p.bk
	var pp *bitpar.Planes
	run := p.newShardRun(func(lo, hi int, dst [][]core.Hit) [][]core.Hit {
		return bk.AlignPlanesRange(pp, lo, hi, dst)
	})
	per := p.perQuery()
	emitted := make([]int, k)
	var shards []sched.Shard
	err := scanChunks(ctx, p.stream, bk.MaxElems(), bk.MinElems(), tm, p.rp, func(chunk *bitpar.Planes, lo, hi, base int) error {
		pp = chunk
		shards = sched.AppendPlanRange(shards, lo, hi, p.shardLen)
		t0 := time.Now()
		perQuery, err := run.run(ctx, shards)
		if err != nil {
			return err
		}
		recordFused(tm, k, len(shards), pp.SizeBytes(), t0)
		for qi, hits := range perQuery {
			tm.hits.Add(uint64(len(hits)))
			for _, h := range hits {
				if p.maxHits > 0 && emitted[qi] == p.maxHits {
					per[qi].Truncated = true
					break
				}
				emitted[qi]++
				if err := p.emit(qi, Hit{Pos: base + h.Pos, Score: h.Score}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		tm.recordCtxErr(err)
	}
	return p.result(per), err
}

// AlignBatchStream scans one nucleotide stream with many queries in a
// single fused pass over each chunk: the stream is read and packed into
// bit-planes once per chunk, and the fused batch kernel scores all K
// queries from those shared plane words — K queries cost one read+pack,
// not K, exactly as AlignBatch fuses a database scan. Hits are delivered
// to emit with their query index, in position order per query within each
// chunk. Thresholds are the given fraction of each query's own maximum
// score; every query is validated before any reading starts. Return an
// error from emit to stop early. It is Scan with Queries, Stream and Emit
// set; use Scan for cancellation and a retry policy.
func AlignBatchStream(queries []*Query, r io.Reader, thresholdFrac float64, emit func(query int, h Hit) error) error {
	_, err := scanBatch(ScanRequest{Queries: queries, Stream: r, Emit: emit}, thresholdFrac)
	return err
}
