package host

import (
	"math"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/fpga"
)

func TestPCIeTransfer(t *testing.T) {
	link := Gen3x8()
	if link.TransferSec(0) != 0 {
		t.Error("zero bytes must be free")
	}
	oneGB := link.TransferSec(1 << 30)
	if oneGB < 0.1 || oneGB > 0.3 {
		t.Errorf("1 GiB over Gen3 x8 took %.3fs, expected ~0.165s", oneGB)
	}
	// Latency dominates tiny transfers.
	if tiny := link.TransferSec(64); math.Abs(tiny-link.LatencySec) > 1e-6 {
		t.Errorf("tiny transfer %.2e should be ≈latency", tiny)
	}
}

func TestSessionLifecycle(t *testing.T) {
	p := DefaultPlatform()
	if _, err := p.Load(0); err == nil {
		t.Error("empty database must fail")
	}
	stats, err := p.Load(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != int64((100_000+31)/32*8) {
		t.Errorf("packed bytes %d", stats.Bytes)
	}
	if stats.Seconds <= 0 || stats.Seconds != p.Link.TransferSec(stats.Bytes) {
		t.Error("load cost bookkeeping")
	}
}

func TestSessionCapacity(t *testing.T) {
	p := DefaultPlatform()
	p.DRAMBytes = 1024
	if _, err := p.Load(100_000); err == nil {
		t.Error("oversized database must fail")
	}
	// The capacity formula is the 2-bit packed database's byte count.
	for _, n := range []int{1, 31, 32, 33, 100_000} {
		want := int64(len(bio.Pack(make(bio.NucSeq, n)).Words()) * 8)
		if got := PackedBytes(n); got != want {
			t.Errorf("PackedBytes(%d) = %d, bio.Pack holds %d bytes", n, got, want)
		}
	}
}

func TestRunQueryEndToEnd(t *testing.T) {
	p := DefaultPlatform()
	const elems, dbLen, hits = 150, 80_000, 7
	est, err := p.Fit(elems)
	if err != nil {
		t.Fatal(err)
	}
	// Timing decomposition must add up.
	tm := p.Time(est, []int{elems}, []int{hits}, dbLen)
	sum := tm.Encode + tm.QueryTransfer + tm.Kernel + tm.Readback + p.InvokeOverheadSec
	if math.Abs(sum-tm.Total) > 1e-12 {
		t.Errorf("timing legs %.3e != total %.3e", sum, tm.Total)
	}
	if tm.Kernel <= 0 || !est.Fits {
		t.Error("kernel timing/sizing missing")
	}
	if want := p.Link.TransferSec(hits * int64(p.HitRecordBytes)); tm.Readback != want {
		t.Errorf("readback %.3e, want %.3e for %d hit records", tm.Readback, want, hits)
	}
}

func TestRunQueryOversized(t *testing.T) {
	p := DefaultPlatform()
	p.Device = fpga.Artix7()
	p.Device.LUTs = 5000
	elems := 3 * 500
	if _, err := p.Fit(elems); err == nil {
		t.Error("non-fitting query must fail")
	}
	if _, err := p.Fit(90, elems); err == nil {
		t.Error("non-fitting batch must fail")
	}
}

func TestRunBatchAmortization(t *testing.T) {
	p := DefaultPlatform()
	elems, hits := []int{120, 120, 120, 120}, []int{3, 0, 5, 1}
	est, err := p.Fit(elems...)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Time(est, elems, hits, 60_000)
	if res.Kernel <= 0 || res.Total <= res.Kernel {
		t.Errorf("batch timing implausible: %+v", res)
	}
	sum := res.Encode + res.QueryTransfer + res.Kernel + res.Readback + p.InvokeOverheadSec*float64(len(elems))
	if math.Abs(sum-res.Total) > 1e-12 {
		t.Errorf("batch timing legs %.3e != total %.3e", sum, res.Total)
	}
	// The batch's hit records return in one transfer, so it pays one
	// readback latency where K single runs pay one each.
	var single float64
	for i := range elems {
		single += p.Time(est, elems[i:i+1], hits[i:i+1], 60_000).Total
	}
	if res.Total >= single {
		t.Errorf("batch %.3es not amortized below %d single runs (%.3es)", res.Total, len(elems), single)
	}
	if _, err := p.Fit(); err == nil {
		t.Error("empty batch must fail")
	}
}
