// Package host models the paper's host-side flow (§IV): the OpenCL host
// encodes queries, ships them and the reference database over PCIe into the
// FPGA DRAM, invokes the RTL kernel, and reads hit records back. The paper
// measures *end-to-end* time — "reading both query and reference sequences
// from the FPGA DRAM, aligning the sequences, and writing the results" —
// so this package accounts every leg. It does not run the alignment: its
// functions take query element counts, the database length and hit counts
// from a scan run elsewhere (fabp.Session runs Scan) and return the DRAM
// capacity check, the build's fit check and the projected timing.
package host

import (
	"fmt"

	"fabp/internal/fpga"
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

// PackedBytes is the card-DRAM footprint of an n-nucleotide database
// packed 2 bits per base into 64-bit words.
func PackedBytes(n int) int64 { return int64((n+31)/32) * 8 }

// Load is the database's one-time transfer into card DRAM: it fails for
// an empty database or one whose packed form exceeds the card's DRAM.
func (p Platform) Load(n int) (TransferStats, error) {
	if n <= 0 {
		return TransferStats{}, fmt.Errorf("host: empty database")
	}
	bytes := PackedBytes(n)
	if bytes > p.DRAMBytes {
		return TransferStats{}, fmt.Errorf("host: database needs %d bytes, card DRAM holds %d",
			bytes, p.DRAMBytes)
	}
	return TransferStats{Bytes: bytes, Seconds: p.Link.TransferSec(bytes)}, nil
}

// Fit sizes one accelerator build for queries of the given element
// counts — the longest sets the build, so a batch of mixed lengths sizes
// per its longest — and fails for no queries or a build that does not
// fit the device.
func (p Platform) Fit(elems ...int) (fpga.Estimate, error) {
	if len(elems) == 0 {
		return fpga.Estimate{}, fmt.Errorf("host: empty batch")
	}
	maxElems := 0
	for _, n := range elems {
		maxElems = max(maxElems, n)
	}
	est := fpga.Size(p.Device, fpga.Config{QueryElems: maxElems})
	if !est.Fits {
		return fpga.Estimate{}, fmt.Errorf("host: query sizing (%d elements) does not fit %s",
			maxElems, p.Device.Name)
	}
	return est, nil
}

// EndToEnd decomposes a run's projected end-to-end time in seconds.
type EndToEnd struct {
	// Encode is host-side back-translation + encoding.
	Encode float64
	// QueryTransfer ships the encoded queries to card DRAM.
	QueryTransfer float64
	// Kernel is the accelerator scan (from the fpga timing model).
	Kernel float64
	// Readback returns the hit records.
	Readback float64
	// Total sums every leg plus the kernel-invocation overheads.
	Total float64
}

// Time accounts a run of queries against the resident database on the
// build est (see Fit), the paper's measurement protocol (database
// resident, queries streamed): query i has elems[i] elements and reads
// back hits[i] records, each query is encoded, shipped and run as one
// kernel invocation over the dbLen-nucleotide database, and the hit
// records return in one transfer. A one-query run is the single-query
// protocol.
func (p Platform) Time(est fpga.Estimate, elems, hits []int, dbLen int) EndToEnd {
	var t EndToEnd
	var hitBytes int64
	for i, n := range elems {
		encode := float64(n) * p.EncodeNsPerElement * 1e-9
		queryXfer := p.Link.TransferSec(int64(n)) // 1 byte/instr
		t.Encode += encode
		t.QueryTransfer += queryXfer
		t.Total += encode
		t.Total += queryXfer
		hitBytes += int64(hits[i] * p.HitRecordBytes)
	}
	t.Kernel = fpga.Time(est, dbLen, nil).Seconds * float64(len(elems))
	t.Readback = p.Link.TransferSec(hitBytes)
	t.Total += t.Kernel
	t.Total += t.Readback
	t.Total += p.InvokeOverheadSec * float64(len(elems))
	return t
}
