// Package host models the paper's host-side flow (§IV): the OpenCL host
// encodes queries, ships them and the reference database over PCIe into the
// FPGA DRAM, invokes the RTL kernel, and reads hit records back. The paper
// measures *end-to-end* time — "reading both query and reference sequences
// from the FPGA DRAM, aligning the sequences, and writing the results" —
// so this package accounts every leg, while executing the alignment itself
// functionally (bit-exact core.Engine) so results are real.
package host

import (
	"context"
	"fmt"

	"fabp/internal/bio"
	"fabp/internal/core"
	"fabp/internal/fpga"
	"fabp/internal/isa"
)

// PCIe models the host↔FPGA link.
type PCIe struct {
	// BandwidthBytes is effective bytes/second.
	BandwidthBytes float64
	// LatencySec is the fixed per-transfer cost (doorbells, descriptors).
	LatencySec float64
}

// Gen3x8 returns a PCIe 3.0 x8 link (~7.9 GB/s raw, ~6.5 effective).
func Gen3x8() PCIe { return PCIe{BandwidthBytes: 6.5e9, LatencySec: 10e-6} }

// TransferSec returns the time to move n bytes.
func (p PCIe) TransferSec(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return p.LatencySec + float64(n)/p.BandwidthBytes
}

// Platform bundles the accelerator card and host-side constants.
type Platform struct {
	// Device is the FPGA part.
	Device fpga.Device
	// Link is the PCIe connection.
	Link PCIe
	// DRAMBytes is the card's DRAM capacity for the resident database.
	DRAMBytes int64
	// EncodeNsPerElement is the host CPU cost to back-translate and encode
	// one query element.
	EncodeNsPerElement float64
	// InvokeOverheadSec is the per-kernel-launch overhead.
	InvokeOverheadSec float64
	// HitRecordBytes is the size of one write-back record (position +
	// score).
	HitRecordBytes int
}

// DefaultPlatform is the paper's setup: the Kintex-7 card on PCIe Gen3 x8
// with 8 GB of on-card DRAM.
func DefaultPlatform() Platform {
	return Platform{
		Device:             fpga.Kintex7(),
		Link:               Gen3x8(),
		DRAMBytes:          8 << 30,
		EncodeNsPerElement: 20,
		InvokeOverheadSec:  50e-6,
		HitRecordBytes:     8,
	}
}

// TransferStats describes one host→card movement.
type TransferStats struct {
	Bytes   int64
	Seconds float64
}

// EndToEnd decomposes one query's measured protocol legs.
type EndToEnd struct {
	// EncodeSec is host-side back-translation + encoding.
	EncodeSec float64
	// QueryTransferSec ships the encoded query to card DRAM.
	QueryTransferSec float64
	// KernelSec is the accelerator scan (from the fpga timing model).
	KernelSec float64
	// ReadbackSec returns the hit records.
	ReadbackSec float64
	// TotalSec sums every leg plus the kernel-invocation overhead.
	TotalSec float64
}

// QueryResult is the outcome of one end-to-end query.
type QueryResult struct {
	// Hits are the real alignment results (bit-exact engine).
	Hits []core.Hit
	// Sizing is the accelerator build used.
	Sizing fpga.Estimate
	// Timing decomposes the projected end-to-end time.
	Timing EndToEnd
}

// Session owns a card with a resident database, mirroring the paper's
// protocol: the database transfers once, then queries stream against it.
type Session struct {
	platform Platform
	packed   *bio.PackedNucSeq
	ref      bio.NucSeq
	loadCost TransferStats
	alignFn  AlignFunc
	batchFn  BatchAlignFunc
}

// AlignFunc computes one encoded query's hits against the resident
// database at an absolute threshold. Installing one (SetAlignFunc) lets
// the facade substitute its sharded, plane-cached scan for the session's
// built-in scalar engine; results must stay bit-exact, and only the hit
// computation is replaced — the timing protocol is unchanged. The
// function must honor the context's cancellation (return ctx.Err()
// promptly); the built-in engine checks it before scanning.
type AlignFunc func(ctx context.Context, prog isa.Program, threshold int) ([]core.Hit, error)

// SetAlignFunc installs the hit-computation hook (nil restores the
// built-in engine).
func (s *Session) SetAlignFunc(f AlignFunc) { s.alignFn = f }

// BatchAlignFunc computes a whole batch's hits against the resident
// database in one fused pass — every reference tile is scanned once for
// all queries instead of once per query. Thresholds are absolute
// per-query scores, index-aligned with progs; the result has one hit
// list per query, bit-exact with running AlignFunc per query. Like
// AlignFunc, only the hit computation is replaced — the timing protocol
// is unchanged — and the function must honor cancellation.
type BatchAlignFunc func(ctx context.Context, progs []isa.Program, thresholds []int) ([][]core.Hit, error)

// SetBatchAlignFunc installs the fused batch hook (nil falls back to a
// per-query loop over the AlignFunc or the built-in scalar engine).
func (s *Session) SetBatchAlignFunc(f BatchAlignFunc) { s.batchFn = f }

// NewSession prepares an empty card.
func NewSession(p Platform) *Session { return &Session{platform: p} }

// Platform returns the session's hardware description.
func (s *Session) Platform() Platform { return s.platform }

// LoadDatabase packs the reference 2-bit and ships it to card DRAM,
// replacing any previous content. It fails if the packed database exceeds
// the card's DRAM.
func (s *Session) LoadDatabase(ref bio.NucSeq) (TransferStats, error) {
	if len(ref) == 0 {
		return TransferStats{}, fmt.Errorf("host: empty database")
	}
	packed := bio.Pack(ref)
	bytes := int64(len(packed.Words()) * 8)
	if bytes > s.platform.DRAMBytes {
		return TransferStats{}, fmt.Errorf("host: database needs %d bytes, card DRAM holds %d",
			bytes, s.platform.DRAMBytes)
	}
	s.packed = packed
	s.ref = ref
	s.loadCost = TransferStats{Bytes: bytes, Seconds: s.platform.Link.TransferSec(bytes)}
	return s.loadCost, nil
}

// DatabaseLen returns the resident database length in nucleotides (0 if
// none).
func (s *Session) DatabaseLen() int { return len(s.ref) }

// LoadCost returns the one-time database transfer stats.
func (s *Session) LoadCost() TransferStats { return s.loadCost }

// align computes one query's hits: the installed AlignFunc, or the
// built-in scalar engine.
func (s *Session) align(ctx context.Context, prog isa.Program, threshold int) ([]core.Hit, error) {
	if s.alignFn != nil {
		return s.alignFn(ctx, prog, threshold)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	engine, err := core.NewEngine(prog, threshold)
	if err != nil {
		return nil, err
	}
	return engine.Align(s.ref), nil
}

// RunQuery executes one encoded query end-to-end: size the build, scan the
// resident database (bit-exact), and account every protocol leg.
func (s *Session) RunQuery(prog isa.Program, threshold int) (*QueryResult, error) {
	return s.RunQueryContext(context.Background(), prog, threshold)
}

// RunQueryContext is RunQuery under a context: the scan aborts with
// ctx.Err() on cancellation or deadline (through the installed AlignFunc's
// shard checkpoints, or before the built-in engine's scan starts).
func (s *Session) RunQueryContext(ctx context.Context, prog isa.Program, threshold int) (*QueryResult, error) {
	if s.packed == nil {
		return nil, fmt.Errorf("host: no database loaded")
	}
	est := fpga.Size(s.platform.Device, fpga.Config{QueryElems: len(prog)})
	if !est.Fits {
		return nil, fmt.Errorf("host: query of %d elements does not fit %s",
			len(prog), s.platform.Device.Name)
	}
	hits, err := s.align(ctx, prog, threshold)
	if err != nil {
		return nil, err
	}

	kernel := fpga.Time(est, len(s.ref), nil)
	encode := float64(len(prog)) * s.platform.EncodeNsPerElement * 1e-9
	queryXfer := s.platform.Link.TransferSec(int64(len(prog))) // 1 byte/instr
	readback := s.platform.Link.TransferSec(int64(len(hits) * s.platform.HitRecordBytes))
	timing := EndToEnd{
		EncodeSec:        encode,
		QueryTransferSec: queryXfer,
		KernelSec:        kernel.Seconds,
		ReadbackSec:      readback,
	}
	timing.TotalSec = encode + queryXfer + kernel.Seconds + readback + s.platform.InvokeOverheadSec
	return &QueryResult{Hits: hits, Sizing: est, Timing: timing}, nil
}

// BatchResult aggregates a multi-query run.
type BatchResult struct {
	// PerQuery holds each query's hits.
	PerQuery [][]core.Hit
	// TotalSec is the end-to-end batch time: one database load amortized
	// across all kernels and readbacks.
	TotalSec float64
	// KernelSec is the accelerator-only component.
	KernelSec float64
}

// RunBatch executes many queries against the resident database,
// reproducing the paper's measurement protocol (database resident, queries
// streamed). All queries must share one length class so a single bitstream
// sizing applies; mixed lengths size per the longest.
func (s *Session) RunBatch(progs []isa.Program, thresholdFrac float64) (*BatchResult, error) {
	return s.RunBatchContext(context.Background(), progs, thresholdFrac)
}

// RunBatchContext is RunBatch under a context: cancellation is checked
// between queries (and within each query's scan when an AlignFunc with
// shard checkpoints is installed), so an aborted batch returns ctx.Err()
// without scanning the remaining queries.
func (s *Session) RunBatchContext(ctx context.Context, progs []isa.Program, thresholdFrac float64) (*BatchResult, error) {
	if s.packed == nil {
		return nil, fmt.Errorf("host: no database loaded")
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("host: empty batch")
	}
	maxElems := 0
	for _, p := range progs {
		if len(p) > maxElems {
			maxElems = len(p)
		}
	}
	est := fpga.Size(s.platform.Device, fpga.Config{QueryElems: maxElems})
	if !est.Fits {
		return nil, fmt.Errorf("host: batch sizing (%d elements) does not fit %s",
			maxElems, s.platform.Device.Name)
	}
	var perQuery [][]core.Hit
	if s.batchFn != nil {
		// The fused path: one reference pass for the whole batch. Resolve
		// every query's absolute threshold first so a bad fraction fails
		// before any scanning starts (matching the per-query loop).
		thresholds := make([]int, len(progs))
		for i, p := range progs {
			threshold, err := core.ThresholdFromFraction(thresholdFrac, len(p))
			if err != nil {
				return nil, err
			}
			thresholds[i] = threshold
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if perQuery, err = s.batchFn(ctx, progs, thresholds); err != nil {
			return nil, err
		}
	} else {
		perQuery = make([][]core.Hit, len(progs))
		for i, p := range progs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			threshold, err := core.ThresholdFromFraction(thresholdFrac, len(p))
			if err != nil {
				return nil, err
			}
			hits, err := s.align(ctx, p, threshold)
			if err != nil {
				return nil, err
			}
			perQuery[i] = hits
		}
	}

	kernelOne := fpga.Time(est, len(s.ref), nil).Seconds
	var total float64
	var hitBytes int64
	for i, hits := range perQuery {
		total += float64(len(progs[i])) * s.platform.EncodeNsPerElement * 1e-9
		total += s.platform.Link.TransferSec(int64(len(progs[i])))
		hitBytes += int64(len(hits) * s.platform.HitRecordBytes)
	}
	kernelTotal := kernelOne * float64(len(progs))
	total += kernelTotal
	total += s.platform.Link.TransferSec(hitBytes)
	total += s.platform.InvokeOverheadSec * float64(len(progs))

	return &BatchResult{
		PerQuery:  perQuery,
		TotalSec:  total,
		KernelSec: kernelTotal,
	}, nil
}
