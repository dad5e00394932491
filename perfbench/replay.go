package main

import (
	"fmt"
	"time"

	"fabp"
	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/isa"
)

// Replays time one layer on its own, on one goroutine, over the inputs a
// workload just ran. They are the only code here that reaches past the
// public API, because the layers they time are internal.

// minReplay is how long each replay repeats its work.
const minReplay = 300 * time.Millisecond

// scalarReplayLen bounds the scalar engine replay's target.
const scalarReplayLen = 40_000

// replayRate repeats f for at least minReplay (and at least once) and
// returns work units per second.
func replayRate(work float64, f func()) float64 {
	n := 0
	t0 := time.Now()
	for n == 0 || time.Since(t0) < minReplay {
		f()
		n++
	}
	return work * float64(n) / time.Since(t0).Seconds()
}

// program compiles a protein the way fabp.NewQuery does and derives the
// workload's threshold.
func program(protein string) (isa.Program, int, error) {
	q, err := fabp.NewQuery(protein)
	if err != nil {
		return nil, 0, err
	}
	prog, err := isa.UnpackProgram(q.Instructions())
	if err != nil {
		return nil, 0, err
	}
	th, err := core.ThresholdFromFraction(thresholdFrac, len(prog))
	return prog, th, err
}

// replayLayers replays the kernels on target (a workload's resident or
// streamed letters) with the given queries, ASCII decoding on text, and
// the scalar engine on a window of target.
func replayLayers(l layerValues, target, text string, queries []string) error {
	seq, _, err := bio.AppendNucASCII(nil, target)
	if err != nil {
		return err
	}
	pp := bitpar.PackReference(seq)
	progs := make([]isa.Program, len(queries))
	ths := make([]int, len(queries))
	cells := 0.0
	for i, p := range queries {
		if progs[i], ths[i], err = program(p); err != nil {
			return err
		}
		cells += float64(len(progs[i])) * float64(len(seq))
	}
	k, err := bitpar.NewKernel(progs[0], ths[0])
	if err != nil {
		return err
	}
	k.SetParallelism(1)
	l["bitpar.kernel_cells_per_s"] = replayRate(float64(len(progs[0]))*float64(len(seq)), func() { k.AlignPlanes(pp) })
	bk, err := bitpar.NewBatchKernel(progs, ths)
	if err != nil {
		return err
	}
	l["bitpar.batch_kernel_cells_per_s"] = replayRate(cells, func() { bk.AlignPlanes(pp) })

	var dst bio.NucSeq
	var derr error
	l["bio.decode_nt_per_s"] = replayRate(float64(len(text)), func() {
		dst, _, derr = bio.AppendNucASCII(dst[:0], text)
	})
	if derr != nil {
		return derr
	}
	return scalarReplay(l, target[:min(len(target), scalarReplayLen)], queries[0])
}

// scalarReplay times the scalar core.Engine on one target.
func scalarReplay(l layerValues, target, protein string) error {
	seq, _, err := bio.AppendNucASCII(nil, target)
	if err != nil {
		return err
	}
	prog, th, err := program(protein)
	if err != nil {
		return err
	}
	e, err := core.NewEngine(prog, th)
	if err != nil {
		return err
	}
	e.SetParallelism(1)
	if len(seq) < len(prog) {
		return fmt.Errorf("scalar replay target of %d nt is shorter than the query", len(seq))
	}
	l["core.scalar_cells_per_s"] = replayRate(float64(len(prog))*float64(len(seq)), func() { e.Align(seq) })
	return nil
}
